//! `l15 fullstack`: cycle-level execution of small DAG workloads on the
//! simulated SoC, proposed vs capacity-equalised legacy hardware — no
//! analytic model anywhere in the loop. Complements the analytic Fig. 7 /
//! Fig. 8 experiments with end-to-end evidence that the mechanism works:
//! the same binaries, the same dependent data, only the cache architecture
//! differs.
//!
//! Also reports the Sec. 3.3 superscalar estimate for a producer kernel
//! with single vs dual memory ports towards the L1.5.

use l15_core::alg1::schedule_with_l15;
use l15_core::baseline::baseline_priorities;
use l15_dag::topology::{fork_join, layered_mesh, UniformPayload};
use l15_dag::{DagTask, ExecutionTimeModel};
use l15_runtime::kernel::{run_task, KernelConfig};
use l15_runtime::WorkScale;
use l15_rvcore::superscalar::{capture_trace, estimate_cycles, SuperscalarConfig};
use l15_soc::{Soc, SocConfig};
use l15_testkit::cli::Parsed;

use crate::{env_usize, scaled, Outcome};

/// Two small shapes with `data` dependent bytes per node.
pub fn workloads(data: u64) -> Vec<(&'static str, DagTask)> {
    let p = UniformPayload { wcet: 1.0, data_bytes: data, edge_cost: 1.0, alpha: 0.6 };
    vec![
        ("fork_join(3)", DagTask::new(fork_join(3, p).expect("valid"), 1e9, 1e9).expect("valid")),
        (
            "mesh(2x3)",
            DagTask::new(layered_mesh(2, 3, p).expect("valid"), 1e9, 1e9).expect("valid"),
        ),
    ]
}

pub fn run(p: &Parsed) -> Outcome {
    let compute = env_usize("L15_COMPUTE_ITERS", scaled(p, 32, 4)) as u32;
    let etm = ExecutionTimeModel::new(2048).expect("valid way size");
    println!("Full-stack cycle counts (compute_iters = {compute}):");
    println!(
        "{:>14} {:>8} {:>14} {:>14} {:>9} {:>10}",
        "workload", "data", "proposed", "legacy(L2)", "speedup", "L1.5 hits"
    );
    let data_points: &[u64] = if p.quick { &[4096] } else { &[4096, 8192, 16384] };
    for &data in data_points {
        for (name, task) in workloads(data) {
            let scale = WorkScale { compute_iters: compute };

            let plan = schedule_with_l15(&task, 16, &etm);
            let mut soc_p = Soc::new(SocConfig::proposed_8core(), 0);
            let cfg_p = KernelConfig { scale, ..Default::default() };
            let rep_p = run_task(&mut soc_p, &task, &plan, &cfg_p).expect("proposed run");

            let plan_b = baseline_priorities(&task);
            let mut soc_b = Soc::new(SocConfig::cmp_l2_8core(), 0);
            let cfg_b = KernelConfig { use_l15: false, scale, ..Default::default() };
            let rep_b = run_task(&mut soc_b, &task, &plan_b, &cfg_b).expect("legacy run");

            assert!(rep_p.dataflow_ok && rep_b.dataflow_ok, "data must flow");
            println!(
                "{name:>14} {data:>7}B {:>14} {:>14} {:>8.1}% {:>10}",
                rep_p.makespan_cycles,
                rep_b.makespan_cycles,
                (1.0 - rep_p.makespan_cycles as f64 / rep_b.makespan_cycles as f64) * 100.0,
                rep_p.l15_hits
            );
        }
    }

    // Sec. 3.3: OoO estimate of a memory-heavy kernel, 1 vs 2 ports.
    println!("\nSec. 3.3 superscalar estimate (memory-burst kernel):");
    let mut a = l15_rvcore::asm::Assembler::new();
    a.li(1, 0x8000);
    for i in 0..48 {
        a.lw((2 + (i % 6)) as u8, 1, i * 4);
    }
    a.ebreak();
    let words = a.finish().expect("assembles");
    let mut bus = l15_rvcore::bus::FlatBus::new(64 * 1024, 2);
    bus.load_program(0, &words);
    let mut core = l15_rvcore::core::Core::new(0, 0);
    let trace = capture_trace(&mut core, &mut bus, 10_000);
    for ports in [1usize, 2, 4] {
        let est =
            estimate_cycles(&trace, SuperscalarConfig { mem_ports: ports, ..Default::default() });
        println!("  {ports} memory port(s): {:>6} cycles, IPC {:.2}", est.cycles, est.ipc());
    }
    Ok(true)
}
