//! One slice of the Sec. 5.2 case study: DAG-ified PARSEC workloads on an
//! 8-core SoC, success ratios of the proposed system vs the comparators at
//! a few target utilisations (the full sweep is `l15 fig8ab`).
//!
//! ```sh
//! cargo run --release --example parsec_case_study
//! ```

use l15::core::baseline::SystemModel;
use l15::core::casestudy::{dagify, generate_case_study, CaseStudyParams, Workload};
use l15::core::periodic::{simulate_taskset, PeriodicParams};
use l15_testkit::rng::SmallRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = CaseStudyParams::default();

    // Show what one DAG-ified workload looks like.
    let mut rng = SmallRng::seed_from_u64(3);
    let ferret = dagify(Workload::Ferret, 0.5, &params, &mut rng)?;
    println!(
        "ferret (DAG-ified): {} nodes, {} edges, period {:.0}, utilisation {:.2}",
        ferret.graph().node_count(),
        ferret.graph().edge_count(),
        ferret.period(),
        ferret.utilisation()
    );

    // Success ratios at three target utilisations, 40 trials each.
    let systems = [
        ("Prop.", SystemModel::proposed()),
        ("CMP|L1", SystemModel::cmp_l1()),
        ("CMP|L2", SystemModel::cmp_l2()),
        ("CMP|Shared-L1", SystemModel::cmp_shared_l1()),
    ];
    let periodic = PeriodicParams::default(); // 8 cores, 2 clusters
    let trials = 40;

    println!("\nSuccess ratio, 8-core SoC ({trials} trials per point):");
    print!("{:>6}", "util");
    for (n, _) in &systems {
        print!("{n:>15}");
    }
    println!();
    for util in [0.5, 0.7, 0.9] {
        print!("{:>5.0}%", util * 100.0);
        for (_, model) in &systems {
            let mut ok = 0;
            for trial in 0..trials {
                let mut set_rng = SmallRng::seed_from_u64(100 + trial);
                let tasks = generate_case_study(4, util * 8.0, &params, &mut set_rng)?;
                let mut sim_rng = SmallRng::seed_from_u64(trial);
                if simulate_taskset(&tasks, model, &periodic, &mut sim_rng).success() {
                    ok += 1;
                }
            }
            print!("{:>15.2}", ok as f64 / trials as f64);
        }
        println!();
    }
    println!("\n(The proposed column should dominate, and every column should fall");
    println!(" as utilisation rises — the Fig. 8(a) shape.)");
    Ok(())
}
