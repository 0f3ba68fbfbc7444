//! `l15 fig8c` regenerates **Fig. 8(c)** (Sec. 5.3 side-effects
//! analysis): L1.5 way utilisation and misconfiguration ratio φ on busy
//! systems — `xc|y%` = an SoC with `x` cores at `y` % target utilisation.
//!
//! Paper expectations: utilisation > 95 % at 80 % load, > 98 % at 100 %
//! load, and φ consistently below 1 % (rising slightly with load, caused
//! by the Walloc's one-way-per-cycle constraint).

use l15_core::baseline::SystemModel;
use l15_core::periodic::{simulate_taskset, PeriodicOutcome};
use l15_testkit::cli::Parsed;

use crate::fig8ab::case_study_trials;
use crate::{env_seed, env_usize, scaled, Outcome};

pub fn run(p: &Parsed) -> Outcome {
    let trials = env_usize("L15_TRIALS", scaled(p, 200, 2));
    let seed = env_seed();
    println!("Fig. 8(c) — L1.5 side effects ({trials} trials/point)");
    println!(
        "{:>10} {:>16} {:>12} {:>17}",
        "config", "way-util (busy)", "phi (avg)", "phi (worst trial)"
    );
    for (cores, util) in [(8usize, 0.8), (8, 1.0), (16, 0.8), (16, 1.0)] {
        let out = side_effects_at(cores, util, trials, seed);
        println!(
            "{:>7}|{:>2.0}% {:>15.1}% {:>11.3}% {:>11.3}%",
            format!("{cores}c"),
            util * 100.0,
            out.l15_utilisation * 100.0,
            out.phi_avg * 100.0,
            out.phi_max * 100.0
        );
    }
    println!("  (paper: util >95% @80%, >98% @100%; phi < 1% everywhere)");
    Ok(true)
}

/// Side-effects measurement (Fig. 8(c)): runs the proposed system at a
/// target utilisation and returns the aggregated outcome.
fn side_effects_at(cores: usize, target_util: f64, trials: usize, seed: u64) -> PeriodicOutcome {
    let model = SystemModel::proposed();
    let total = target_util * cores as f64;
    let outs = case_study_trials(cores, cores, total, trials, seed, |tasks, params, rng| {
        simulate_taskset(tasks, &model, params, rng)
    });
    // Index-ordered sums, bit-identical to a sequential loop at any worker
    // count. The paper's phi is measured per system execution (one trial):
    // the worst case is the worst trial, not the worst individual node.
    let n = trials.max(1) as f64;
    let mean = |f: fn(&PeriodicOutcome) -> f64| outs.iter().map(f).fold(0.0, |a, b| a + b) / n;
    PeriodicOutcome {
        jobs: outs.iter().map(|o| o.jobs).sum(),
        misses: outs.iter().map(|o| o.misses).sum(),
        l15_utilisation: mean(|o| o.l15_utilisation),
        phi_avg: mean(|o| o.phi_avg),
        phi_max: outs.iter().map(|o| o.phi_avg).fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_side_effects_run() {
        let out = side_effects_at(8, 0.8, 2, 5);
        assert!(out.l15_utilisation > 0.0);
        assert!(out.phi_max < 0.05);
    }
}
