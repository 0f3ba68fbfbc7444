//! `analytic_sweep`: the Fig. 7(a) / Fig. 8(a) pipeline inline — what a
//! reproducer waits for when regenerating `experiment_results.txt`.

use std::time::Instant;

use l15_core::baseline::{SystemKind, SystemModel};
use l15_core::casestudy::{generate_case_study, CaseStudyParams};
use l15_core::periodic::{simulate_taskset, PeriodicParams};
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_testkit::pool;
use l15_testkit::rng::SmallRng;

use crate::harness::{Check, Metric, Workload};
use crate::span::{Span, Tracer};
use crate::stats::{fnv1a, FNV_SEED};

/// DAGs per pass (Fig. 7(a) at the paper's generator defaults); a
/// quarter of them under `--quick`.
const DAGS: usize = 256;
/// Every 17th op is one Fig. 8(a) trial: 16 per pass.
const GROUP: usize = 17;
const CORES: usize = 8;
const INSTANCES: usize = 10;

/// What one op produced; exact for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    /// Average makespan over the instances under Prop., CMP|L1, CMP|L2.
    Dag([f64; 3]),
    /// Whether the trial met every deadline under Prop. and CMP|L1.
    Trial([bool; 2]),
}

/// The workload after set-up.
pub struct Sweep {
    seed: u64,
    dags: usize,
    gen: DagGenerator,
    systems: [SystemModel; 3],
    expected: Vec<Outcome>,
}

impl Sweep {
    fn dag(&self, index: usize, tr: &mut Tracer) -> Outcome {
        let mut rng = SmallRng::seed_from_u64(pool::item_seed(self.seed, index));
        let task = tr
            .span("dag.generate", |_| self.gen.generate(&mut rng))
            .expect("paper generator parameters are valid");
        let mut avg = [0.0; 3];
        for (slot, model) in avg.iter_mut().zip(&self.systems) {
            // Every system sees the same contention stream (the paper's
            // identical-trials set-up).
            let mut r = SmallRng::seed_from_u64(pool::item_seed(self.seed.wrapping_add(17), index));
            let spans = if model.kind == SystemKind::Proposed {
                let plan = tr.span("core.alg1", |_| model.plan(&task));
                tr.span("core.evaluate", |_| {
                    (0..INSTANCES)
                        .map(|k| model.simulate_instance(&task, CORES, &plan, k, &mut r).makespan)
                        .collect::<Vec<f64>>()
                })
            } else {
                tr.span("core.evaluate", |_| model.evaluate(&task, CORES, INSTANCES, &mut r))
            };
            *slot = spans.iter().sum::<f64>() / spans.len() as f64;
        }
        Outcome::Dag(avg)
    }

    fn trial(&self, trial: usize, tr: &mut Tracer) -> Outcome {
        let params = PeriodicParams { cores: CORES, ..PeriodicParams::default() };
        let cs = CaseStudyParams { width: CORES, ..CaseStudyParams::default() };
        let mut set_rng = SmallRng::seed_from_u64(self.seed ^ ((trial as u64) << 16));
        let tasks = tr
            .span("core.generate_case_study", |_| {
                generate_case_study(CORES / 2, 0.6 * CORES as f64, &cs, &mut set_rng)
            })
            .expect("case-study parameters are valid");
        let mut ok = [false; 2];
        for (slot, model) in ok.iter_mut().zip([&self.systems[0], &self.systems[1]]) {
            let mut sim_rng = SmallRng::seed_from_u64(self.seed.wrapping_add(trial as u64));
            *slot = tr
                .span("core.simulate_taskset", |_| {
                    simulate_taskset(&tasks, model, &params, &mut sim_rng)
                })
                .success();
        }
        Outcome::Trial(ok)
    }

    fn run(&self, i: usize, tr: &mut Tracer) -> Outcome {
        if i % GROUP == GROUP - 1 {
            self.trial(i / GROUP, tr)
        } else {
            self.dag(i - i / GROUP, tr)
        }
    }

    fn new(seed: u64, quick: bool) -> Self {
        Sweep {
            seed,
            dags: if quick { DAGS / 4 } else { DAGS },
            gen: DagGenerator::new(DagGenParams::default()),
            systems: [SystemModel::proposed(), SystemModel::cmp_l1(), SystemModel::cmp_l2()],
            expected: Vec::new(),
        }
    }

    /// Runs the reference pass.
    pub fn setup(seed: u64, quick: bool) -> Self {
        let mut w = Sweep::new(seed, quick);
        let mut tr = Tracer::off();
        w.expected = (0..w.pass_len()).map(|i| w.run(i, &mut tr)).collect();
        w
    }

    fn trials(&self) -> usize {
        self.dags / (GROUP - 1)
    }

    /// Mean makespan per system over the pass's DAGs.
    fn mean_makespans(&self) -> [f64; 3] {
        let mut sum = [0.0; 3];
        for o in &self.expected {
            if let Outcome::Dag(avg) = o {
                for (s, a) in sum.iter_mut().zip(avg) {
                    *s += a / self.dags as f64;
                }
            }
        }
        sum
    }
}

impl Workload for Sweep {
    fn pass_len(&self) -> usize {
        self.dags + self.trials()
    }

    fn op(&self, _client: usize, i: usize, tr: &mut Tracer) -> Result<(), String> {
        if self.run(i, tr) == self.expected[i] {
            Ok(())
        } else {
            Err("result differs from the set-up pass".to_owned())
        }
    }

    fn exact_metrics(&self) -> Vec<Metric> {
        let [prop, l1, l2] = self.mean_makespans();
        let (mut ok_prop, mut ok_l1) = (0usize, 0usize);
        for o in &self.expected {
            if let Outcome::Trial([p, l]) = o {
                ok_prop += usize::from(*p);
                ok_l1 += usize::from(*l);
            }
        }
        let gap = (ok_prop as f64 - ok_l1 as f64) / self.trials() as f64 * 100.0;
        let (gain_l1, gain_l2) = ((1.0 - prop / l1) * 100.0, (1.0 - prop / l2) * 100.0);
        vec![
            Metric::new("gain_vs_cmp_l1_pct", "%", gain_l1),
            Metric::new("gain_vs_cmp_l2_pct", "%", gain_l2),
            Metric::new("success_gap_l1_pp", "pp", gap),
            // Error against the paper's Fig. 7 averages (printed, ungated).
            Metric::new("gain_vs_cmp_l1_minus_paper_pp", "pp", gain_l1 - 11.1),
            Metric::new("gain_vs_cmp_l2_minus_paper_pp", "pp", gain_l2 - 22.9),
        ]
    }

    fn digest(&self) -> u64 {
        self.expected.iter().fold(FNV_SEED, |h, o| fnv1a(h, format!("{o:?}").as_bytes()))
    }

    fn setup_checks(&self) -> Vec<Check> {
        let [prop, l1, l2] = self.mean_makespans();
        vec![Check::new("proposed_beats_both_baselines", prop < l1 && prop < l2)]
    }

    fn layer_extras(
        &self,
        _tr: &mut Tracer,
        _ops: &[Vec<Span>],
        _checks: &mut Vec<Check>,
        quick: bool,
    ) -> Vec<Metric> {
        // The reproducer's wall time at 2 pool workers against 1.
        let n = if quick { 32 } else { self.dags };
        let pass = |jobs: usize| {
            let t = Instant::now();
            std::hint::black_box(pool::run_on(jobs, n, |i| self.dag(i, &mut Tracer::off())));
            t.elapsed().as_secs_f64()
        };
        let (one, two) = (pass(1), pass(2));
        vec![Metric::new("testkit.pool_speedup_2", "ratio", one / two)]
    }

    fn close(self: Box<Self>) -> Vec<Check> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_indices_cover_every_dag_and_trial_once() {
        let w = Sweep::new(1, false);
        let (mut dags, mut trials) = (Vec::new(), Vec::new());
        for i in 0..w.pass_len() {
            if i % GROUP == GROUP - 1 {
                trials.push(i / GROUP);
            } else {
                dags.push(i - i / GROUP);
            }
        }
        assert_eq!(dags, (0..DAGS).collect::<Vec<_>>());
        assert_eq!(trials, (0..16).collect::<Vec<_>>());
    }
}
