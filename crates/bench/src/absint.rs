//! `l15 absint`: bound-vs-observed sweep for the `l15-check`
//! abstract-interpretation certifier. Every (preset, workload) pair is
//! certified statically, then executed cycle-accurately on the simulated
//! SoC, and the per-node observed cycles are compared against the static
//! bounds.
//!
//! The artifact is a precision table — `bound / observed` per node,
//! reported as the worst and mean ratio of each sweep item — plus a hard
//! soundness gate: any node whose observed cycles exceed its certified
//! bound is reported and fails the run (exit status 1). `scripts/ci.sh`
//! diffs the full output between `L15_JOBS=1` and `L15_JOBS=4`; items are
//! evaluated on the deterministic pool and printed in index order, so the
//! bytes must match at any worker count.

use l15_check::certify_task;
use l15_dag::topology::{fork_join, layered_mesh, UniformPayload};
use l15_dag::DagTask;
use l15_runtime::kernel::{preset_plan, run_task, KernelConfig};
use l15_runtime::WorkScale;
use l15_soc::{Soc, SocConfig};
use l15_testkit::cli::Parsed;
use l15_testkit::pool;

use crate::{env_usize, fullstack, scaled, Outcome};

/// The full-stack workloads at 2 KiB per node, plus two wider shapes at
/// 4 KiB outside `--quick`.
fn workloads(quick: bool) -> Vec<(&'static str, DagTask)> {
    let mut out = fullstack::workloads(2048);
    if !quick {
        let p = UniformPayload { wcet: 1.0, data_bytes: 4096, edge_cost: 1.0, alpha: 0.6 };
        let task = |g| DagTask::new(g, 1e9, 1e9).expect("valid task");
        out.push(("fork_join(5)", task(fork_join(5, p).expect("valid"))));
        out.push(("mesh(3x3)", task(layered_mesh(3, 3, p).expect("valid"))));
    }
    out
}

/// One sweep item, fully evaluated: certification and concrete run.
struct Row {
    certified: bool,
    findings: usize,
    nodes: usize,
    /// Worst and mean `bound / observed` over the nodes (1.0 = exact).
    worst_ratio: f64,
    mean_ratio: f64,
    /// Nodes whose observed cycles exceeded the static bound (must be 0).
    violations: Vec<String>,
}

fn evaluate(preset: &str, task: &DagTask, compute: u32) -> Row {
    let cfg = SocConfig::preset(preset).expect("known preset");
    let scale = WorkScale { compute_iters: compute };
    let (plan, kcfg) = preset_plan(task, &cfg, scale, KernelConfig::default().max_cycles);
    let report = certify_task(task, &plan, &cfg, scale);

    let mut soc = Soc::new(cfg, 0);
    let run = run_task(&mut soc, task, &plan, &kcfg).expect("workload runs to completion");
    assert!(run.dataflow_ok, "{preset}: data must flow");

    let mut worst: f64 = 0.0;
    let mut sum = 0.0;
    let mut violations = Vec::new();
    for nb in &report.node_bounds {
        let observed = run.node_finish[nb.node].saturating_sub(run.node_start[nb.node]).max(1);
        if nb.bound_cycles != u64::MAX && observed > nb.bound_cycles {
            violations.push(format!(
                "node {}: observed {observed} cycles > certified bound {}",
                nb.node, nb.bound_cycles
            ));
        }
        let ratio = nb.bound_cycles as f64 / observed as f64;
        worst = worst.max(ratio);
        sum += ratio;
    }
    Row {
        certified: report.certified(),
        findings: report.findings.len(),
        nodes: report.node_bounds.len(),
        worst_ratio: worst,
        mean_ratio: sum / report.node_bounds.len().max(1) as f64,
        violations,
    }
}

pub fn run(p: &Parsed) -> Outcome {
    let compute = env_usize("L15_COMPUTE_ITERS", scaled(p, 16, 4)) as u32;
    let presets: &[&str] = if p.quick {
        &["proposed_8core", "cmp_l2_8core"]
    } else {
        &[
            "proposed_8core",
            "proposed_16core",
            "cmp_l1_8core",
            "cmp_l2_8core",
            "cmp_l1_16core",
            "cmp_l2_16core",
        ]
    };
    let tasks = workloads(p.quick);
    let items: Vec<(&str, &str, &DagTask)> =
        presets.iter().flat_map(|&p| tasks.iter().map(move |(name, t)| (p, *name, t))).collect();

    println!("Static bound vs observed cycles (compute_iters = {compute}):");
    println!(
        "{:>16} {:>14} {:>6} {:>10} {:>11} {:>11}",
        "preset", "workload", "nodes", "certified", "worst b/o", "mean b/o"
    );
    let rows = pool::run(items.len(), |i| {
        let (preset, name, task) = items[i];
        (preset, name, evaluate(preset, task, compute))
    });
    Ok(report(&rows))
}

/// Prints the table rows and the soundness verdict; true when no node
/// exceeded its certified bound.
fn report(rows: &[(&str, &str, Row)]) -> bool {
    let mut broken = 0usize;
    for (preset, name, row) in rows {
        let cert = if row.certified { "yes".to_string() } else { format!("no ({})", row.findings) };
        println!(
            "{preset:>16} {name:>14} {:>6} {cert:>10} {:>11.3} {:>11.3}",
            row.nodes, row.worst_ratio, row.mean_ratio
        );
        for v in &row.violations {
            eprintln!("SOUNDNESS VIOLATION {preset}/{name}: {v}");
            broken += 1;
        }
    }
    println!("l15-absint: {} item(s), {broken} soundness violation(s)", rows.len());
    broken == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(violations: &[&str]) -> Row {
        Row {
            certified: true,
            findings: 0,
            nodes: 4,
            worst_ratio: 1.5,
            mean_ratio: 1.2,
            violations: violations.iter().map(|v| v.to_string()).collect(),
        }
    }

    #[test]
    fn a_violation_fails_the_run_instead_of_panicking() {
        assert!(report(&[("proposed_8core", "mesh(2x3)", row(&[]))]));
        let rows = [
            ("proposed_8core", "mesh(2x3)", row(&[])),
            ("cmp_l2_8core", "mesh(2x3)", row(&["node 2: observed 9 cycles > certified bound 8"])),
        ];
        assert!(!report(&rows));
    }
}
