//! `online_admission`: wall-time cost of `OnlineSession::submit` as the
//! resident set grows — every admission re-runs `federated_partition`
//! over all residents plus the candidate.

use std::sync::Mutex;

use l15_core::baseline::SystemModel;
use l15_core::federated::{federated_partition, ClusterTopology};
use l15_dag::DagTask;
use l15_online::{
    small_gen, task_for, Decision, ModeChangeReport, OnlineConfig, OnlineSession, StreamParams,
};
use l15_soc::SocConfig;
use l15_testkit::arrivals::{sporadic_stream, SporadicParams};

use crate::harness::{Check, Metric, Workload};
use crate::span::{Span, Tracer};
use crate::stats::{fnv1a, median, FNV_SEED};

const TOPOLOGY: ClusterTopology = ClusterTopology { clusters: 8, cores_per_cluster: 4 };
/// Arrivals per pass; the op after them is the pass's one `switch_mode`.
const ARRIVALS: usize = 200;
/// Arrivals of the executing stream the traced run adds.
const EXEC_ARRIVALS: usize = 32;
/// The mode change keeps the newest residents under half the way budget.
const KEEP_NEWEST: usize = 16;
const SWITCH_ZETA: usize = 8;
/// Resident counts (±8) at which the submit curve is sampled.
const CURVE: [usize; 4] = [16, 64, 128, 192];

/// The admission verdict of one arrival, as compared between passes.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    admitted: bool,
    cluster: usize,
    plan_digest: u64,
}

/// The workload after set-up.
pub struct Admission {
    arrivals: Vec<(DagTask, u64)>,
    verdicts: Vec<Verdict>,
    switched: Result<ModeChangeReport, String>,
    /// Residents before each arrival of the reference pass.
    residents: Vec<usize>,
    session: Mutex<Option<OnlineSession>>,
}

fn config(execute: bool) -> OnlineConfig {
    OnlineConfig {
        topology: TOPOLOGY,
        soc: SocConfig::proposed_32core(),
        execute,
        // Nothing retires: the resident set only grows within a pass.
        job_lifetime: u64::MAX / 2,
        ..OnlineConfig::default()
    }
}

fn verdict(session: &OnlineSession, id: usize) -> Verdict {
    let job = session.job(id).expect("submit returned this id");
    match job.decision {
        Decision::Admitted { cluster, .. } => {
            Verdict { admitted: true, cluster, plan_digest: job.plan_digest }
        }
        Decision::Rejected { .. } => Verdict { admitted: false, cluster: 0, plan_digest: 0 },
    }
}

impl Admission {
    /// Generates the arrival stream and runs the reference pass.
    pub fn setup(seed: u64) -> Self {
        let params = StreamParams {
            seed,
            arrivals: SporadicParams { count: ARRIVALS, min_gap: 1_000, max_extra: 2_000 },
            util_range: (0.05, 0.15),
            gen: small_gen(),
            mode_switch: None,
        };
        let arrivals = sporadic_stream(seed, &params.arrivals)
            .iter()
            .map(|a| (task_for(a, &params), a.cycle))
            .collect();
        let mut w = Admission {
            arrivals,
            verdicts: Vec::new(),
            switched: Err(String::new()),
            residents: Vec::new(),
            session: Mutex::new(None),
        };
        let mut tr = Tracer::off();
        let mut resident = 0;
        for i in 0..ARRIVALS {
            w.residents.push(resident);
            let v = w.submit(i, &mut tr);
            resident += usize::from(v.admitted);
            w.verdicts.push(v);
        }
        w.switched = w.switch(&mut tr);
        w
    }

    fn submit(&self, i: usize, tr: &mut Tracer) -> Verdict {
        let mut guard = self.session.lock().expect("one client; never poisoned");
        if i == 0 {
            *guard = Some(OnlineSession::new(config(false)));
        }
        let session = guard.as_mut().expect("op 0 opened the session");
        let (task, cycle) = &self.arrivals[i];
        let id = tr.span("online.submit", |_| session.submit(task.clone(), *cycle));
        verdict(session, id)
    }

    fn switch(&self, tr: &mut Tracer) -> Result<ModeChangeReport, String> {
        let mut guard = self.session.lock().expect("one client; never poisoned");
        let session = guard.as_mut().expect("op 0 opened the session");
        let active = session.active();
        let keep = active[active.len().saturating_sub(KEEP_NEWEST)..].to_vec();
        tr.span("online.switch_mode", |_| session.switch_mode("half", &keep, SWITCH_ZETA))
            .map_err(|e| e.to_string())
    }
}

impl Workload for Admission {
    fn pass_len(&self) -> usize {
        ARRIVALS + 1
    }

    fn op(&self, _client: usize, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let same = if i < ARRIVALS {
            self.submit(i, tr) == self.verdicts[i]
        } else {
            self.switch(tr) == self.switched
        };
        if same {
            Ok(())
        } else {
            Err("decision differs from the set-up pass".to_owned())
        }
    }

    fn exact_metrics(&self) -> Vec<Metric> {
        let admitted = self.verdicts.iter().filter(|v| v.admitted).count();
        vec![Metric::new("admit_ratio", "ratio", admitted as f64 / ARRIVALS as f64)]
    }

    fn digest(&self) -> u64 {
        let h = self.verdicts.iter().fold(FNV_SEED, |h, v| fnv1a(h, format!("{v:?}").as_bytes()));
        fnv1a(h, format!("{:?}", self.switched).as_bytes())
    }

    fn setup_checks(&self) -> Vec<Check> {
        vec![
            Check::new("switch_mode_accepted", self.switched.is_ok()),
            Check::new(
                "residents_reach_the_curve",
                self.residents.last().is_some_and(|&r| r + 8 >= CURVE[3]),
            ),
        ]
    }

    fn layer_extras(
        &self,
        tr: &mut Tracer,
        ops: &[Vec<Span>],
        checks: &mut Vec<Check>,
        quick: bool,
    ) -> Vec<Metric> {
        // Submit wall time by position in the pass, from the op loop.
        let mut by_index: Vec<Vec<f64>> = vec![Vec::new(); ARRIVALS];
        let mut switch_ms = Vec::new();
        for s in ops.iter().flatten() {
            let i = (s.op & 0xffff_ffff_ffff) as usize % self.pass_len();
            match s.name {
                "online.submit" => by_index[i].push(s.dur_ns() as f64 / 1e3),
                "online.switch_mode" => switch_ms.push(s.dur_ns() as f64 / 1e6),
                _ => {}
            }
        }
        let mut out: Vec<Metric> = CURVE
            .iter()
            .map(|&r| {
                let near: Vec<f64> = (0..ARRIVALS)
                    .filter(|&i| self.residents[i].abs_diff(r) <= 8)
                    .flat_map(|i| by_index[i].iter().copied())
                    .collect();
                Metric::new(format!("online.submit_us_r{r}"), "us", median(&near))
            })
            .collect();

        // Replay the partition each sampled submit ran, from outside.
        let model = SystemModel::proposed();
        let mut submit_us = 0.0;
        let mut residents: Vec<DagTask> = Vec::new();
        let before = tr.spans().len();
        for (i, ((task, _), verdict)) in self.arrivals.iter().zip(&self.verdicts).enumerate() {
            residents.push(task.clone());
            if i % 8 == 0 {
                let _ = tr.span("core.federated_partition", |_| {
                    federated_partition(&residents, TOPOLOGY, &model)
                });
                submit_us += median(&by_index[i]);
            }
            if !verdict.admitted {
                residents.pop();
            }
        }
        let replay_us: f64 = tr.spans()[before..].iter().map(|s| s.dur_ns() as f64 / 1e3).sum();
        out.push(Metric::new("online.partition_share", "ratio", replay_us / submit_us.max(1e-9)));
        out.push(Metric::new("online.switch_mode_ms", "ms", median(&switch_ms)));

        // The executing stream: admitted jobs run on the live SoC with a
        // flight recorder attached — the one hot path `trace` sits on.
        let mut session = OnlineSession::new(config(true));
        let n = if quick { 4 } else { EXEC_ARRIVALS };
        let exec_ms: Vec<f64> = self.arrivals[..n]
            .iter()
            .map(|(task, cycle)| {
                let t = std::time::Instant::now();
                tr.span("online.submit_exec", |_| session.submit(task.clone(), *cycle));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let ran_clean = session
            .jobs()
            .iter()
            .all(|j| j.exec_error.is_none() && (j.gantt.is_some() || !j.decision.admitted()));
        checks.push(Check::new("executing_stream_ran_every_admitted_job", ran_clean));
        out.push(Metric::new("online.submit_exec_ms", "ms", median(&exec_ms)));
        out
    }

    fn close(self: Box<Self>) -> Vec<Check> {
        Vec::new()
    }
}
