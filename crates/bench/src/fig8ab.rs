//! `l15 fig8ab` regenerates **Fig. 8(a)/(b)**: success ratios of the
//! proposed system and the three comparators on 8-core and 16-core SoCs,
//! over target utilisations 40–90 % (5 % steps), 200 trials per point.
//!
//! Workloads are the DAG-ified PARSEC shapes of Sec. 5.2 with dependent
//! data in [2 KiB, 16 KiB]; the same task sets are used for every system
//! in a trial (the paper: "we ensured the dependent data and timing
//! parameters in each trial were identical").

use l15_core::baseline::SystemModel;
use l15_core::casestudy::{generate_case_study, CaseStudyParams};
use l15_core::periodic::{simulate_taskset, PeriodicParams};
use l15_dag::DagTask;
use l15_testkit::cli::Parsed;
use l15_testkit::pool;
use l15_testkit::rng::SmallRng;

use crate::{env_seed, env_usize, scaled, Outcome};

pub fn run(p: &Parsed) -> Outcome {
    let trials = env_usize("L15_TRIALS", scaled(p, 200, 3));
    let seed = env_seed();
    let systems = [
        ("Prop.", SystemModel::proposed()),
        ("CMP|L1", SystemModel::cmp_l1()),
        ("CMP|L2", SystemModel::cmp_l2()),
        ("CMP|Shared-L1", SystemModel::cmp_shared_l1()),
    ];
    let utils: Vec<f64> = (0..=10).map(|i| 0.40 + 0.05 * i as f64).collect();

    for (panel, cores) in [("(a)", 8usize), ("(b)", 16usize)] {
        println!("\nFig. 8{panel} — success ratio, {cores}-core SoC ({trials} trials/point)");
        print!("{:>8}", "util");
        for (n, _) in &systems {
            print!("{n:>15}");
        }
        println!();
        let mut gains: Vec<f64> = vec![0.0; systems.len() - 1];
        for &u in &utils {
            print!("{:>7.0}%", u * 100.0);
            let mut row = Vec::new();
            for (_, m) in &systems {
                let s = success_at(m, cores, u, trials, seed);
                row.push(s);
                print!("{:>15.3}", s);
            }
            println!();
            for (i, g) in gains.iter_mut().enumerate() {
                *g += row[0] - row[i + 1];
            }
        }
        for (i, (n, _)) in systems.iter().enumerate().skip(1) {
            println!(
                "  Prop. vs {n}: +{:.1} pp success ratio on average (paper band: 5-40 pp)",
                gains[i - 1] / utils.len() as f64 * 100.0
            );
        }
    }
    Ok(true)
}

/// Success-ratio measurement at one target utilisation (Fig. 8(a)/(b)).
fn success_at(
    model: &SystemModel,
    cores: usize,
    target_util: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    let total = target_util * cores as f64;
    success_ratio(case_study_trials(cores, cores, total, trials, seed, |tasks, params, rng| {
        simulate_taskset(tasks, model, params, rng).success()
    }))
}

/// The share of successful trials.
pub fn success_ratio(trials: Vec<bool>) -> f64 {
    trials.iter().filter(|&&ok| ok).count() as f64 / trials.len().max(1) as f64
}

/// Runs `trials` trials of the Sec. 5.2 case study on `cores` cores
/// (clusters of 4, ζ = 16, 5 releases): trial `t` draws `max(cores / 2,
/// 2)` task shapes of width `width` at total utilisation `total_util`
/// from `(seed, t)` alone — the same set for every system — and hands
/// them to `f` with the periodic parameters and the trial's own
/// contention stream. Results come back in trial order, so every fold
/// over them is byte-identical at any `L15_JOBS`.
pub fn case_study_trials<T: Send>(
    cores: usize,
    width: usize,
    total_util: f64,
    trials: usize,
    seed: u64,
    f: impl Fn(&[DagTask], &PeriodicParams, &mut SmallRng) -> T + Sync,
) -> Vec<T> {
    let params = PeriodicParams {
        cores,
        cores_per_cluster: 4,
        zeta: 16,
        releases: 5,
        way_config_time: 0.0005,
    };
    let cs = CaseStudyParams { width, ..Default::default() };
    pool::run(trials, |trial| {
        let mut set_rng = SmallRng::seed_from_u64(seed ^ (trial as u64) << 16);
        let tasks = generate_case_study((cores / 2).max(2), total_util, &cs, &mut set_rng)
            .expect("case-study parameters are valid");
        let mut sim_rng = SmallRng::seed_from_u64(seed.wrapping_add(trial as u64));
        f(&tasks, &params, &mut sim_rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_success_ratio_runs() {
        let m = SystemModel::proposed();
        let s = success_at(&m, 8, 0.4, 3, 5);
        assert!((0.0..=1.0).contains(&s));
    }
}
