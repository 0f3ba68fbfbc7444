//! `l15 fig7` regenerates **Fig. 7**: average normalised makespan of a
//! DAG task under varied `U_i` (a), `p` (b) and `cpr` (c), comparing the
//! proposed L1.5 schedule against the SOTA \[15\] on CMP|L1 and CMP|L2.
//!
//! Paper setup: 500 synthetic DAGs, first 10 instances each, series
//! normalised by the highest value observed. Scale with `L15_DAGS`.

use l15_core::baseline::SystemModel;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::DagTask;
use l15_testkit::cli::Parsed;
use l15_testkit::pool;
use l15_testkit::rng::SmallRng;

use crate::{env_seed, env_usize, scaled, Outcome};

pub fn run(p: &Parsed) -> Outcome {
    let n_dags = env_usize("L15_DAGS", scaled(p, 500, 8));
    let instances = env_usize("L15_INSTANCES", scaled(p, 10, 3));
    let cores = env_usize("L15_CORES", 8);
    let seed = env_seed();
    let systems = [SystemModel::proposed(), SystemModel::cmp_l1(), SystemModel::cmp_l2()];
    let names = ["Prop.", "CMP|L1", "CMP|L2"];

    println!("Fig. 7 — average normalised makespan ({n_dags} DAGs x {instances} instances, {cores} cores)");
    for (fig, kind) in [("(a)", "utilisation"), ("(b)", "p"), ("(c)", "cpr")] {
        let points = paper_points(kind);
        let sweep = makespan_sweep(&points, &systems, n_dags, instances, cores, seed);
        // Normalise across the whole panel.
        let mut series: Vec<Vec<f64>> = (0..systems.len())
            .map(|s| sweep.iter().map(|p| p.stats[s].average).collect())
            .collect();
        normalise(&mut series);

        println!("\nFig. 7{fig}: x = {kind}");
        print!("{:>8}", "x");
        for n in names {
            print!("{n:>10}");
        }
        println!();
        for (i, pt) in sweep.iter().enumerate() {
            print!("{:>8.2}", pt.x);
            for row in &series {
                print!("{:>10.3}", row[i]);
            }
            println!();
        }
        // Headline deltas, as the paper reports for Fig. 7(a).
        let avg_gain = |s: usize| -> f64 {
            let mut g = 0.0;
            for (prop, other) in series[0].iter().zip(&series[s]) {
                g += 1.0 - prop / other;
            }
            g / series[0].len() as f64 * 100.0
        };
        println!(
            "  Prop. vs CMP|L1: {:.1}% lower makespan on average; vs CMP|L2: {:.1}%",
            avg_gain(1),
            avg_gain(2)
        );
    }
    Ok(true)
}

/// The paper's five points of one swept generator parameter of Fig. 7 /
/// Tab. 2 — `utilisation` (`U_i`), `p` (maximum layer width) or `cpr`
/// (critical path ratio) — as (x value, generator parameters), every other
/// parameter at the paper's default.
pub fn paper_points(kind: &str) -> Vec<(f64, DagGenParams)> {
    let d = DagGenParams::default;
    match kind {
        "utilisation" => {
            [0.2, 0.4, 0.6, 0.8, 1.0].map(|u| (u, DagGenParams { utilisation: u, ..d() }))
        }
        "p" => [9, 12, 15, 18, 21].map(|p| (p as f64, DagGenParams { max_width: p, ..d() })),
        "cpr" => [0.1, 0.2, 0.3, 0.4, 0.5].map(|c| (c, DagGenParams { cpr: c, ..d() })),
        other => panic!("unknown sweep kind `{other}`"),
    }
    .into()
}

/// Makespan statistics of one system at one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MakespanStat {
    /// Mean over all DAGs and instances.
    pub average: f64,
    /// Mean over DAGs of the per-DAG worst instance.
    pub worst_case: f64,
}

/// One sweep point evaluated on all compared systems.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept value.
    pub x: f64,
    /// Per-system statistics, ordered as the `systems` argument.
    pub stats: Vec<MakespanStat>,
}

/// Evaluates `systems` over `points`, generating `n_dags` DAGs per point
/// and simulating the first `instances` releases of each (the paper: 500
/// DAGs × 10 instances, 8 cores). DAGs are sweep items on the
/// deterministic pool: each is generated and evaluated from its own
/// (seed, index)-derived streams, so the output is independent of
/// `L15_JOBS`.
pub fn makespan_sweep(
    points: &[(f64, DagGenParams)],
    systems: &[SystemModel],
    n_dags: usize,
    instances: usize,
    cores: usize,
    seed: u64,
) -> Vec<SweepPoint> {
    points
        .iter()
        .map(|(x, params)| {
            let gen = DagGenerator::new(params.clone());
            // One work item per DAG. Generation and evaluation draws are
            // seeded from (seed, DAG index) alone, so the sweep is
            // byte-identical at every L15_JOBS worker count; every system
            // evaluates a DAG under the same contention stream (the
            // paper's identical-trials setup).
            let per_dag: Vec<Vec<(f64, f64)>> = pool::run(n_dags, |i| {
                let mut rng = SmallRng::seed_from_u64(pool::item_seed(seed, i));
                let task: DagTask = gen.generate(&mut rng).expect("paper parameters are valid");
                systems
                    .iter()
                    .map(|m| {
                        let eval_seed = pool::item_seed(seed.wrapping_add(17), i);
                        let mut r = SmallRng::seed_from_u64(eval_seed);
                        let spans = m.evaluate(&task, cores, instances, &mut r);
                        let avg = spans.iter().sum::<f64>() / spans.len() as f64;
                        let wc = spans.iter().cloned().fold(f64::MIN, f64::max);
                        (avg, wc)
                    })
                    .collect()
            });
            let stats = (0..systems.len())
                .map(|s| {
                    let mut avg = 0.0;
                    let mut wc = 0.0;
                    for dag in &per_dag {
                        avg += dag[s].0;
                        wc += dag[s].1;
                    }
                    MakespanStat { average: avg / n_dags as f64, worst_case: wc / n_dags as f64 }
                })
                .collect();
            SweepPoint { x: *x, stats }
        })
        .collect()
}

/// Normalises a family of series by the maximum value observed anywhere in
/// it (the paper's "normalised by the highest value observed").
fn normalise(series: &mut [Vec<f64>]) {
    let max = series.iter().flat_map(|s| s.iter()).cloned().fold(f64::MIN, f64::max);
    if max > 0.0 {
        for s in series.iter_mut() {
            for v in s.iter_mut() {
                *v /= max;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_match_paper() {
        let d = DagGenParams::default();
        assert_eq!(paper_points("utilisation").len(), 5);
        assert_eq!(paper_points("p")[0], (9.0, DagGenParams { max_width: 9, ..d.clone() }));
        assert_eq!(paper_points("cpr")[4], (0.5, DagGenParams { cpr: 0.5, ..d }));
    }

    #[test]
    fn normalise_scales_to_unit_max() {
        let mut series = vec![vec![1.0, 2.0], vec![4.0, 3.0]];
        normalise(&mut series);
        assert_eq!(series[1][0], 1.0);
        assert_eq!(series[0][0], 0.25);
    }

    #[test]
    fn tiny_sweep_runs() {
        let points = vec![(0.4, DagGenParams { utilisation: 0.4, ..DagGenParams::default() })];
        let systems = vec![SystemModel::proposed(), SystemModel::cmp_l1()];
        let r = makespan_sweep(&points, &systems, 3, 2, 8, 7);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].stats.len(), 2);
        assert!(r[0].stats[0].average > 0.0);
        assert!(r[0].stats[0].worst_case >= r[0].stats[0].average - 1e-9);
    }

    #[test]
    fn sweep_is_deterministic_across_worker_counts() {
        // The public entry points read L15_JOBS; drive the pool explicitly
        // here so the test is environment-independent: the same per-item
        // seeding must yield identical results at 1 and 4 workers.
        let eval = |jobs: usize| {
            pool::run_on(jobs, 6, |i| {
                let mut rng = SmallRng::seed_from_u64(pool::item_seed(11, i));
                let gen = DagGenerator::new(DagGenParams::default());
                let task = gen.generate(&mut rng).expect("valid params");
                let mut r = SmallRng::seed_from_u64(pool::item_seed(28, i));
                SystemModel::proposed().evaluate(&task, 8, 2, &mut r)
            })
        };
        assert_eq!(eval(1), eval(4));
    }
}
