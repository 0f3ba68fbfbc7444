//! `l15 ablation`: the design decisions DESIGN.md calls out, judged by
//! the quality of the result — the mean makespan (lower is better) of the
//! full plan+simulate pipeline over 20 DAGs:
//!
//! 1. **λ re-update** (Alg. 1 line 20) vs a one-shot λ.
//! 2. **Way-allocation function `F`**: the paper's longest-path-greedy vs
//!    a proportional-share split.
//!
//! The table is seconds-scale already, so `--quick` changes nothing.

use l15_core::alg1::{schedule_with_l15_with, Alg1Options, AllocationPolicy};
use l15_core::baseline::SystemModel;
use l15_dag::gen::{DagGenParams, DagGenerator};
use l15_dag::{DagTask, ExecutionTimeModel};
use l15_testkit::cli::Parsed;
use l15_testkit::pool;
use l15_testkit::rng::SmallRng;

use crate::Outcome;

fn tasks(n: usize) -> Vec<DagTask> {
    let gen = DagGenerator::new(DagGenParams::default());
    let mut rng = SmallRng::seed_from_u64(77);
    (0..n).map(|_| gen.generate(&mut rng).expect("valid params")).collect()
}

fn mean_makespan(tasks: &[DagTask], opts: Alg1Options) -> f64 {
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    let model = SystemModel::proposed();
    // One sweep item per task, each with its own (seed, index)-derived
    // interference stream, so the mean is identical at any L15_JOBS.
    let spans = pool::run(tasks.len(), |i| {
        let mut rng = SmallRng::seed_from_u64(pool::item_seed(5, i));
        let plan = schedule_with_l15_with(&tasks[i], 16, &etm, opts);
        model.simulate_instance(&tasks[i], 8, &plan, 0, &mut rng).makespan
    });
    spans.iter().sum::<f64>() / tasks.len() as f64
}

pub fn run(_: &Parsed) -> Outcome {
    let set = tasks(20);
    let variants = [
        ("paper", Alg1Options::default()),
        ("no_lambda_update", Alg1Options { update_lambda: false, ..Default::default() }),
        (
            "proportional_share",
            Alg1Options { allocation: AllocationPolicy::ProportionalShare, ..Default::default() },
        ),
    ];
    println!("\nAblation quality (mean makespan over 20 DAGs, lower is better):");
    for (name, opts) in variants {
        println!("  {name:<20} {:.2}", mean_makespan(&set, opts));
    }
    Ok(true)
}
