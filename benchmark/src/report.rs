//! One workload's result: what is printed, written to `out/` and handed
//! to the driver.

use std::fmt::Write as _;

use l15_serve::json::{string, Obj};

use crate::harness::{Check, Metric};
use crate::manifest::{driver_layers, END_TO_END};
use crate::span::Span;

/// Where the numbers were taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Pool workers the in-process server fans onto (`L15_JOBS`).
    pub l15_jobs: usize,
    /// `rustc --version`, when `run.sh` passed it on.
    pub rustc: String,
}

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub env: Env,
    /// End-to-end metrics this workload reports.
    pub end_to_end: Vec<Metric>,
    /// Printed, never gated: `op_ms_p99`, `trace_overhead_pct`, sample
    /// counts, paper references.
    pub info: Vec<Metric>,
    /// Per-layer metrics of the traced run.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Messages of the first failed ops.
    pub failures: Vec<String>,
    pub digest: u64,
}

fn metric_obj(m: &Metric) -> String {
    let mut o = Obj::new();
    o.num("value", m.value).str("unit", m.unit);
    if let Some((median, worst)) = m.windows {
        o.num("median", median).num("worst", worst);
    }
    o.finish()
}

fn metrics_obj(metrics: &[Metric]) -> String {
    let mut o = Obj::new();
    for m in metrics {
        o.raw(&m.name, &metric_obj(m));
    }
    o.finish()
}

impl Report {
    /// No op failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The `out/<workload>.json` document.
    pub fn to_json(&self) -> String {
        let mut checks = Obj::new();
        for c in &self.checks {
            checks.bool(&c.name, c.ok);
        }
        let failures: Vec<String> = self.failures.iter().map(|f| string(f)).collect();
        let mut o = Obj::new();
        o.str("schema", "l15-benchmark-v1")
            .str("workload", &self.workload)
            .int("seed", self.seed)
            .bool("quick", self.quick)
            .int("nproc", self.env.nproc as u64)
            .int("l15_jobs", self.env.l15_jobs as u64)
            .str("rustc", &self.env.rustc)
            .bool("correct", self.correct())
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .str("result_digest", &format!("{:016x}", self.digest))
            .raw("end_to_end", &metrics_obj(&self.end_to_end))
            .raw("info", &metrics_obj(&self.info))
            .raw("per_layer", &metrics_obj(&self.per_layer))
            .raw("checks", &checks.finish())
            .raw("failures", &format!("[{}]", failures.join(",")));
        o.finish()
    }

    /// Every metric by name with its unit, for a person.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}{}) — nproc {}, L15_JOBS {}",
            self.workload,
            self.seed,
            if self.quick { ", quick" } else { "" },
            self.env.nproc,
            self.env.l15_jobs
        );
        let line = |out: &mut String, m: &Metric| {
            let windows = m.windows.map_or(String::new(), |(median, worst)| {
                format!("  [median {}, worst {}]", fmt(median), fmt(worst))
            });
            let _ = writeln!(out, "  {:<44} {:>14} {}{}", m.name, fmt(m.value), m.unit, windows);
        };
        let _ = writeln!(out, " end to end (best window [median, worst window]):");
        self.end_to_end.iter().for_each(|m| line(&mut out, m));
        self.info.iter().for_each(|m| line(&mut out, m));
        let _ = writeln!(out, "  {:<44} {:>14}", "result_digest", format!("{:016x}", self.digest));
        if !self.per_layer.is_empty() {
            let _ = writeln!(out, " per layer (traced run):");
            self.per_layer.iter().for_each(|m| line(&mut out, m));
        }
        let _ = writeln!(out, " checks:");
        for c in &self.checks {
            let _ = writeln!(out, "  {:<44} {}", c.name, if c.ok { "ok" } else { "FAILED" });
        }
        let _ = writeln!(out, "  {:<44} {} of {} ops failed", "ops", self.failed, self.attempted);
        for f in &self.failures {
            let _ = writeln!(out, "    {f}");
        }
        out
    }

    /// The result line the driver reads: every `end_to_end` metric of
    /// `BENCHMARK.json` (`trace` off) or every `per_layer` one (on).
    pub fn driver_line(&self, trace: bool) -> String {
        let mut metrics = Obj::new();
        let mut put = |name: &str, unit: &str, value: f64| {
            let mut m = Obj::new();
            m.num("value", value).str("unit", unit);
            metrics.raw(name, &m.finish());
        };
        if trace {
            for (name, unit, _) in driver_layers() {
                let v = self.per_layer.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
                put(&name, unit, v);
            }
        } else {
            for def in END_TO_END.iter().filter(|d| d.every_workload) {
                let v = self.end_to_end.iter().find(|m| m.name == def.name);
                put(def.name, def.unit, v.map_or(0.0, |m| m.value));
            }
        }
        let mut o = Obj::new();
        o.bool("correct", self.correct())
            .int("attempted", self.attempted.max(1))
            .int("failed", self.failed)
            .raw("metrics", &metrics.finish());
        o.finish()
    }
}

/// Shortest faithful rendering for the human table.
fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// The `out/trace-<workload>.json` document: every span of the traced run
/// (`[name index, start ns, end ns, parent or -1, op id]` per thread).
pub fn trace_json(workload: &str, recordings: &[Vec<Span>]) -> String {
    let mut names: Vec<&'static str> = Vec::new();
    let threads: Vec<String> = recordings
        .iter()
        .map(|spans| {
            let rows: Vec<String> = spans
                .iter()
                .map(|s| {
                    let ix = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                        names.push(s.name);
                        names.len() - 1
                    });
                    format!(
                        "[{ix},{},{},{},{}]",
                        s.start_ns,
                        s.end_ns,
                        s.parent.map_or(-1, i64::from),
                        s.op
                    )
                })
                .collect();
            format!("[{}]", rows.join(","))
        })
        .collect();
    let names: Vec<String> = names.iter().map(|n| string(n)).collect();
    let mut o = Obj::new();
    o.str("schema", "l15-benchmark-trace-v1")
        .str("workload", workload)
        .str("columns", "name,start_ns,end_ns,parent,op")
        .raw("names", &format!("[{}]", names.join(",")))
        .raw("threads", &format!("[{}]", threads.join(",")));
    o.finish()
}

/// One JSON document holding the six `out/<workload>.json` texts — the
/// form the committed baselines take.
pub fn merge_json(docs: &[(String, String)]) -> String {
    let mut w = Obj::new();
    for (name, doc) in docs {
        w.raw(name, doc.trim());
    }
    let mut o = Obj::new();
    o.str("schema", "l15-benchmark-set-v1").raw("workloads", &w.finish());
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use l15_trace::json::parse;

    fn report() -> Report {
        Report {
            workload: "w\"1\\\n".to_owned(),
            seed: 7,
            quick: true,
            env: Env { nproc: 2, l15_jobs: 2, rustc: "rustc 1.0 (\"x\")".to_owned() },
            end_to_end: vec![
                Metric {
                    name: "ops_per_s".into(),
                    unit: "1/s",
                    value: 12.5,
                    windows: Some((11.0, 10.0)),
                },
                Metric::new("setup_s", "s", 0.25),
            ],
            info: vec![Metric::new("op_ms_p99", "ms", f64::NAN)],
            per_layer: vec![Metric::new("soc.instructions", "count", 1e6)],
            attempted: 10,
            failed: 1,
            checks: vec![Check::new("tab\there", true)],
            failures: vec!["op 3: body \u{1} differs".to_owned()],
            digest: 0xabc,
        }
    }

    #[test]
    fn json_output_escapes_and_round_trips() {
        let r = report();
        let v = parse(&r.to_json()).expect("valid JSON despite quotes, newlines and control bytes");
        assert_eq!(v.get("workload").unwrap().as_str(), Some("w\"1\\\n"));
        assert_eq!(v.get("rustc").unwrap().as_str(), Some("rustc 1.0 (\"x\")"));
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("result_digest").unwrap().as_str(), Some("0000000000000abc"));
        let ops = v.get("end_to_end").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("median").unwrap().as_i64(), Some(11));
        assert_eq!(ops.get("worst").unwrap().as_i64(), Some(10));
        assert_eq!(v.get("checks").unwrap().get("tab\there").unwrap().as_bool(), Some(true));
        let failure = v.get("failures").unwrap().as_arr().unwrap()[0].as_str().unwrap();
        assert_eq!(failure, "op 3: body \u{1} differs");
        // A non-finite value is written as null, never as bare NaN.
        assert!(r.to_json().contains("\"op_ms_p99\":{\"value\":null"));
    }

    #[test]
    fn driver_line_carries_exactly_the_manifest_metrics() {
        let r = report();
        let v = parse(&r.driver_line(false)).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> =
            v.get("metrics").unwrap().as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"]);
        let traced = parse(&r.driver_line(true)).unwrap();
        let layers = traced.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(layers.len(), driver_layers().len());
        let instr = traced.get("metrics").unwrap().get("soc.instructions").unwrap();
        assert_eq!(instr.get("value").unwrap().as_i64(), Some(1_000_000));
    }

    #[test]
    fn trace_dump_indexes_names_once() {
        let s = |name, parent| Span { name, start_ns: 1, end_ns: 5, parent, op: 9 };
        let doc = trace_json("w", &[vec![s("op", None), s("a", Some(0))], vec![s("a", None)]]);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("names").unwrap().as_arr().unwrap().len(), 2);
        let t0 = v.get("threads").unwrap().as_arr().unwrap()[0].as_arr().unwrap();
        assert_eq!(t0[1].as_arr().unwrap()[3].as_i64(), Some(0));
        assert_eq!(t0[0].as_arr().unwrap()[3].as_i64(), Some(-1));
    }
}
