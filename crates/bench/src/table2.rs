//! `l15 table2` regenerates **Tab. 2**: comparison of the normalised
//! *worst-case* makespan under varied `U_i`, `p` and `cpr` — CMP \[15\] vs
//! the proposed schedule with the L1.5 cache.
//!
//! The worst case of each DAG is the maximum over its first 10 instances;
//! conventional caches are cold on the first instance, which is exactly
//! why the CMP column is high (the warm-up argument of Sec. 5.1). Values
//! are normalised per panel family by the highest worst case observed
//! across the three sweeps, as in the paper's joint table.

use l15_core::baseline::SystemModel;
use l15_testkit::cli::Parsed;

use crate::fig7::{makespan_sweep, paper_points};
use crate::{env_seed, env_usize, scaled, Outcome};

pub fn run(p: &Parsed) -> Outcome {
    let n_dags = env_usize("L15_DAGS", scaled(p, 500, 8));
    let instances = env_usize("L15_INSTANCES", scaled(p, 10, 3));
    let cores = env_usize("L15_CORES", 8);
    let seed = env_seed();
    let systems = [SystemModel::cmp_l1(), SystemModel::proposed()];

    // Evaluate all three sweeps first so the normalisation is global.
    let kinds = ["utilisation", "p", "cpr"];
    let sweeps: Vec<_> = kinds
        .iter()
        .map(|k| makespan_sweep(&paper_points(k), &systems, n_dags, instances, cores, seed))
        .collect();
    let max = sweeps
        .iter()
        .flat_map(|s| s.iter())
        .flat_map(|p| p.stats.iter())
        .map(|s| s.worst_case)
        .fold(f64::MIN, f64::max);

    println!(
        "Tab. 2 — normalised worst-case makespan ({n_dags} DAGs x {instances} instances, {cores} cores)"
    );
    println!(
        "{:>6} {:>10} {:>8} | {:>6} {:>10} {:>8} | {:>6} {:>10} {:>8}",
        "U_i", "CMP [15]", "Prop.", "p", "CMP [15]", "Prop.", "cpr", "CMP [15]", "Prop."
    );
    for row in 0..5 {
        for (k, sweep) in sweeps.iter().enumerate() {
            let pt = &sweep[row];
            print!(
                "{:>6.2} {:>10.3} {:>8.3}",
                pt.x,
                pt.stats[0].worst_case / max,
                pt.stats[1].worst_case / max
            );
            if k < 2 {
                print!(" | ");
            }
        }
        println!();
    }
    // Headline: average worst-case improvement per sweep.
    for (k, sweep) in sweeps.iter().enumerate() {
        let gain: f64 =
            sweep.iter().map(|p| 1.0 - p.stats[1].worst_case / p.stats[0].worst_case).sum::<f64>()
                / sweep.len() as f64;
        println!(
            "  varied {}: Prop. outperforms CMP by {:.1}% on average (paper: 26.3/22.1/19.9%)",
            kinds[k],
            gain * 100.0
        );
    }
    Ok(true)
}
