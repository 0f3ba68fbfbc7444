//! `l15 cluster`: cluster-count vs success-ratio sweep for the federated
//! multi-cluster tier. At a fixed **absolute** utilisation, how many
//! 4-core L1.5 clusters does each system need before the task sets are
//! both admitted (federated partition: heavy/light split, dedicated
//! clusters, first-fit packing) and simulate without a deadline miss?
//!
//! The proposed system's single-cluster admission bound keeps the ETM
//! benefit term, so it reaches a given success ratio with fewer clusters
//! than the CMP baselines — the multi-cluster extension of the Fig. 8
//! argument.
//!
//! The artifact on stdout is byte-identical at every `L15_JOBS` worker
//! count (per-trial streams derive from `(seed, trial)` alone), which
//! `scripts/ci.sh` checks by diffing `L15_JOBS=1` against `L15_JOBS=4`.

use l15_core::baseline::SystemModel;
use l15_core::federated::{federated_partition, ClusterTopology};
use l15_core::periodic::simulate_taskset;
use l15_testkit::cli::Parsed;

use crate::fig8ab::{case_study_trials, success_ratio};
use crate::{env_seed, env_usize, scaled, Outcome};

pub fn run(p: &Parsed) -> Outcome {
    let trials = env_usize("L15_TRIALS", scaled(p, 200, 3));
    let seed = env_seed();
    let systems = [
        ("Prop.", SystemModel::proposed()),
        ("CMP|L1", SystemModel::cmp_l1()),
        ("CMP|L2", SystemModel::cmp_l2()),
    ];
    let clusters: &[usize] = if p.quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let utils: &[f64] = if p.quick { &[2.0] } else { &[2.0, 4.0, 6.0] };

    for &u in utils {
        println!("\nCluster sweep — success ratio at total utilisation {u:.1} ({trials} trials)");
        print!("{:>10}{:>8}", "clusters", "cores");
        for (n, _) in &systems {
            print!("{n:>12}");
        }
        println!();
        for &c in clusters {
            print!("{c:>10}{:>8}", c * 4);
            for (_, m) in &systems {
                print!("{:>12.3}", success_at_clusters(m, c, u, trials, seed));
            }
            println!();
        }
    }
    Ok(true)
}

/// Success-ratio measurement over a *cluster-count* axis: admission by
/// the federated tier ([`federated_partition`]) composed with the
/// periodic engine on the admitted platform. A trial succeeds when the
/// set is both admitted and simulates without a deadline miss, so the
/// curve shows how success scales as clusters are added at a **fixed
/// absolute** utilisation — the L1.5 benefit term folds into admission
/// via the single-cluster ETM bound.
fn success_at_clusters(
    model: &SystemModel,
    clusters: usize,
    total_util: f64,
    trials: usize,
    seed: u64,
) -> f64 {
    let topo = ClusterTopology { clusters, cores_per_cluster: 4 };
    let ok = case_study_trials(clusters * 4, 4, total_util, trials, seed, |tasks, p, rng| {
        // A typed infeasible verdict is a failed trial.
        federated_partition(tasks, topo, model).is_ok()
            && simulate_taskset(tasks, model, p, rng).success()
    });
    success_ratio(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_core::casestudy::{generate_case_study, CaseStudyParams};
    use l15_testkit::pool;
    use l15_testkit::rng::SmallRng;

    #[test]
    fn tiny_cluster_success_ratio_runs_and_is_jobs_independent() {
        let m = SystemModel::proposed();
        let s = success_at_clusters(&m, 2, 2.0, 3, 5);
        assert!((0.0..=1.0).contains(&s));
        // The same sweep driven at explicit worker counts must agree.
        let eval = |jobs: usize| {
            pool::run_on(jobs, 4, |trial| {
                let mut set_rng = SmallRng::seed_from_u64(5 ^ (trial as u64) << 16);
                let cs = CaseStudyParams { width: 4, ..Default::default() };
                let tasks = generate_case_study(4, 2.0, &cs, &mut set_rng).unwrap();
                let topo = ClusterTopology { clusters: 2, cores_per_cluster: 4 };
                federated_partition(&tasks, topo, &SystemModel::proposed()).is_ok()
            })
        };
        assert_eq!(eval(1), eval(4));
    }
}
