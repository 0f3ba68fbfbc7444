//! The metric tables: every end-to-end and per-layer metric by name, with
//! unit, direction and bound. `BENCHMARK.json` is generated from them
//! (`l15-benchmark manifest`), `compare` applies the bounds, and the
//! driver-facing result line is filled from them.

use l15_serve::json::{number, string, Obj};

use crate::workloads::WORKLOADS;

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 10;

/// An end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen; 0 for
    /// an exact metric, which may not differ at all for a seed.
    pub bound: f64,
    /// Whether every workload reports it, never as 0, so that it can be a
    /// gated `end_to_end` entry of `BENCHMARK.json`. The others apply to
    /// some workloads only and are gated by `compare`.
    pub every_workload: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    every_workload: bool,
) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better, bound, every_workload }
}

/// The 15 end-to-end metrics.
pub const END_TO_END: [EndToEnd; 15] = [
    e2e("setup_s", "s", false, 0.25, true),
    e2e("ops_per_s", "1/s", true, 0.25, true),
    e2e("op_ms_p50", "ms", false, 0.25, true),
    e2e("op_ms_p90", "ms", false, 0.25, true),
    e2e("peak_rss_mb", "MiB", false, 0.25, true),
    e2e("sim_mips", "Minstr/s", true, 0.25, false),
    e2e("fail_ratio", "ratio", false, 0.0, false),
    e2e("sim_cycles", "cycles", false, 0.0, false),
    e2e("sim_ipc", "instr/cycle", true, 0.0, false),
    e2e("l15_hit_ratio", "ratio", true, 0.0, false),
    e2e("l15_speedup_pct", "%", true, 0.0, false),
    e2e("gain_vs_cmp_l1_pct", "%", true, 0.0, false),
    e2e("gain_vs_cmp_l2_pct", "%", true, 0.0, false),
    e2e("success_gap_l1_pp", "pp", true, 0.0, false),
    e2e("admit_ratio", "ratio", true, 0.0, false),
];

/// Functions timed by spans: each reports `.calls`, `.busy_ms`, `.p50_us`.
pub const TIMED: [&str; 30] = [
    "dag.generate",
    "dag.parse_task",
    "dag.write_task",
    "core.alg1",
    "core.evaluate",
    "core.simulate_taskset",
    "core.generate_case_study",
    "core.federated_partition",
    "core.rta_bound",
    "soc.new_8core",
    "soc.new_32core",
    "runtime.node_program",
    "runtime.run_task_l15",
    "runtime.run_task_legacy",
    "runtime.run_cluster_plan",
    "runtime.run_task_traced",
    "check.certify_task",
    "serve.read_request",
    "serve.handle_schedule",
    "serve.handle_schedule_federated",
    "serve.handle_analyze",
    "serve.handle_simulate",
    "serve.handle_certify",
    "serve.handle_trace",
    "serve.roundtrip_schedule",
    "serve.roundtrip_schedule_federated",
    "serve.roundtrip_analyze",
    "serve.roundtrip_simulate",
    "serve.roundtrip_certify",
    "serve.roundtrip_trace",
];

/// Per-layer metrics that are not span aggregates: `(name, unit, higher
/// is better)`. Counters are exact per corpus pass and must not move
/// under a host-speed change; their direction is nominal.
pub const LAYER_VALUES: [(&str, &str, bool); 54] = [
    ("cache.sa_access.ns_per_op", "ns", false),
    ("cache.l15_read.ns_per_op", "ns", false),
    ("cache.l15_write.ns_per_op", "ns", false),
    ("cache.l15_reconfigure.ns_per_op", "ns", false),
    ("cache.l1_hit_ratio", "ratio", true),
    ("cache.l15_hit_ratio", "ratio", true),
    ("cache.l2_hit_ratio", "ratio", true),
    ("rvcore.step_alu.ns_per_op", "ns", false),
    ("rvcore.step_mem.ns_per_op", "ns", false),
    ("soc.step_core_alu.ns_per_op", "ns", false),
    ("soc.step_core_mem.ns_per_op", "ns", false),
    ("soc.step_32core.ns_per_op", "ns", false),
    ("soc.instructions", "count", false),
    ("soc.cycles", "cycles", false),
    ("soc.hazard_stall_cycles", "cycles", false),
    ("soc.flush_cycles", "cycles", false),
    ("soc.loads_l1", "count", true),
    ("soc.loads_l15", "count", true),
    ("soc.loads_l2", "count", false),
    ("soc.loads_mem", "count", false),
    ("soc.fetches_l1", "count", true),
    ("soc.fetches_l2", "count", false),
    ("soc.fetches_mem", "count", false),
    ("soc.stores_via_l15", "count", true),
    ("soc.stores_conventional", "count", false),
    ("soc.ctrl_ops", "count", false),
    ("soc.way_grants", "count", false),
    ("soc.way_revokes", "count", false),
    ("soc.gv_updates", "count", false),
    ("soc.mem_lines", "count", false),
    ("runtime.node_program.ns_per_instr", "ns", false),
    ("runtime.run_task_l15.ns_per_instr", "ns", false),
    ("runtime.run_task_legacy.ns_per_instr", "ns", false),
    ("runtime.run_cluster_plan.ns_per_instr", "ns", false),
    ("runtime.run_task_traced.ns_per_instr", "ns", false),
    ("runtime.phi_mean", "ratio", false),
    ("runtime.l15_utilisation", "ratio", true),
    ("check.bound_over_observed_max", "ratio", false),
    ("trace.recorder_overhead_pct", "%", false),
    ("trace.chrome_export.ns_per_op", "ns", false),
    ("online.submit_us_r16", "us", false),
    ("online.submit_us_r64", "us", false),
    ("online.submit_us_r128", "us", false),
    ("online.submit_us_r192", "us", false),
    ("online.partition_share", "ratio", false),
    ("online.switch_mode_ms", "ms", false),
    ("online.submit_exec_ms", "ms", false),
    ("serve.overhead_us", "us", false),
    ("serve.queue_wait_us", "us", false),
    ("serve.handle_us", "us", false),
    ("serve.responses_503", "count", false),
    ("serve.batches", "count", false),
    ("serve.batch_jobs", "count", true),
    ("testkit.pool_speedup_2", "ratio", true),
];

/// The per-layer metrics `BENCHMARK.json` lists and every `--trace 1`
/// result line carries (0 where a workload leaves the layer idle): the
/// `.busy_ms` and `.p50_us` of each timed function plus
/// [`LAYER_VALUES`]. `.calls` stay out of the file — the benchmark's own
/// loop fixes them, so no optimisation moves them — but are printed and
/// written to `out/` with the rest.
pub fn driver_layers() -> Vec<(String, &'static str, bool)> {
    let mut v = Vec::new();
    for f in TIMED {
        v.push((format!("{f}.busy_ms"), "ms", false));
        v.push((format!("{f}.p50_us"), "us", false));
    }
    v.extend(LAYER_VALUES.iter().map(|&(n, u, h)| (n.to_owned(), u, h)));
    v
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The content of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| {
            let mut o = Obj::new();
            o.str("name", name).str("why", why);
            o.finish()
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .filter(|m| m.every_workload)
        .map(|m| {
            let mut o = Obj::new();
            o.str("name", m.name).str("unit", m.unit).str("better", better(m.higher_is_better));
            o.num("bound", m.bound);
            o.finish()
        })
        .collect();
    let per_layer = driver_layers()
        .iter()
        .map(|(name, unit, higher)| {
            let mut o = Obj::new();
            o.str("name", name).str("unit", unit).str("better", better(*higher));
            o.finish()
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}, {}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        string("bash"),
        string("benchmark/run.sh"),
        string("benchmark"),
        number(RUN_SECONDS as f64),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_trace::json::parse;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn manifest_stays_within_the_contract_limits() {
        let text = benchmark_json();
        assert!(text.len() <= 64 * 1024);
        let v = parse(&text).expect("manifest is valid JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let mut names = std::collections::BTreeSet::new();
        for (section, max) in [("workloads", 8), ("end_to_end", 16), ("per_layer", 128)] {
            let items = v.get(section).unwrap().as_arr().unwrap();
            assert!((1..=max).contains(&items.len()), "{section}: {}", items.len());
            for it in items {
                let name = it.get("name").unwrap().as_str().unwrap();
                assert!(valid_name(name), "{name}");
                assert!(names.insert(name.to_owned()), "{name} used twice");
                if let Some(unit) = it.get("unit") {
                    let unit = unit.as_str().unwrap();
                    assert!(unit.len() <= 16, "{unit}");
                    assert!(
                        unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                        "{unit}"
                    );
                }
                if let Some(why) = it.get("why") {
                    let why = why.as_str().unwrap();
                    assert!(why.len() <= 200 && !why.contains('\n'), "{} chars", why.len());
                }
            }
        }
        let setup = v.get("end_to_end").unwrap().as_arr().unwrap()[0].clone();
        assert_eq!(setup.get("name").unwrap().as_str(), Some("setup_s"));
        assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
        for m in END_TO_END {
            assert!((0.0..=0.25).contains(&m.bound));
        }
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `l15-benchmark manifest`");
    }
}
