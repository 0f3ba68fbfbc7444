//! Safe timing bounds in action (paper Sec. 4.2): the Graham-style
//! makespan bound with communication costs, evaluated under the proposed
//! system vs the worst-case conventional system, and the cache-aware
//! federated tier deciding cluster assignments for a whole task set.
//!
//! ```sh
//! cargo run --release --example schedulability
//! ```

use l15::core::alg1::schedule_with_l15;
use l15::core::baseline::SystemModel;
use l15::core::federated::{federated_partition, ClusterTopology};
use l15::core::rta;
use l15::dag::gen::{DagGenParams, DagGenerator};
use l15::dag::taskset::{generate_taskset, TaskSetParams};
use l15::dag::ExecutionTimeModel;
use l15_testkit::rng::SmallRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(12);
    let etm = ExecutionTimeModel::new(2048)?;

    // --- Single task: how much tighter does the L1.5 make the bound? ----
    let task = DagGenerator::new(DagGenParams { utilisation: 0.8, ..Default::default() })
        .generate(&mut rng)?;
    let g = task.graph();
    let plan = schedule_with_l15(&task, 16, &etm);
    let cmp = SystemModel::cmp_l1();

    println!(
        "Safe makespan bounds for one DAG (W = {:.1}, D = {:.1}):",
        g.total_work(),
        task.deadline()
    );
    println!("{:>7} {:>16} {:>22}", "cores", "proposed (ETM)", "CMP|L1 (worst case)");
    for m in [2usize, 4, 8, 16] {
        let b_prop = rta::makespan_bound(
            &task,
            m,
            |v| g.node(v).wcet,
            |e| {
                let from = g.edge(e).from;
                etm.edge_cost_in(g, e, plan.local_ways[from.0])
            },
        );
        let b_cmp = rta::makespan_bound(
            &task,
            m,
            |v| cmp.worst_case_exec(g.node(v).wcet),
            |e| {
                let edge = g.edge(e);
                cmp.worst_case_edge_cost(
                    edge.cost,
                    edge.alpha,
                    g.node(edge.from).data_bytes,
                    0,
                    false,
                    true,
                )
            },
        );
        println!("{m:>7} {:>16.2} {:>22.2}", b_prop.bound, b_cmp.bound);
    }

    // --- Task set: federated assignment --------------------------------
    let tasks = generate_taskset(
        &TaskSetParams {
            n_tasks: 5,
            total_utilisation: 4.0,
            dag: DagGenParams { layers: (3, 5), max_width: 6, ..Default::default() },
        },
        &mut rng,
    )?;
    // Analysed under the proposed system's deterministic costs.
    println!("\nFederated analysis of a 5-task set on 4 clusters x 4 cores:");
    let topo = ClusterTopology { clusters: 4, cores_per_cluster: 4 };
    match federated_partition(&tasks, topo, &SystemModel::proposed()) {
        Ok(plan) => {
            println!(
                "{:>6} {:>8} {:>8} {:>12} {:>10}",
                "task", "U_i", "heavy?", "clusters", "bound"
            );
            for a in &plan.assignments {
                println!(
                    "{:>6} {:>8.2} {:>8} {:>12} {:>10.1}",
                    a.task,
                    tasks[a.task].utilisation(),
                    if a.heavy { "yes" } else { "no" },
                    format!("{:?}", a.clusters),
                    a.bound
                );
            }
            println!("schedulable: every task placed");
        }
        Err(e) => println!("not schedulable [{}]: {e}", e.code()),
    }
    Ok(())
}
