//! `l15-benchmark compare A B`: applies the bounds to two result sets of
//! the same seed. A is the parent, B the change.

use std::path::Path;

use l15_trace::json::{parse, Value};

use crate::manifest::{EndToEnd, END_TO_END};
use crate::workloads::WORKLOADS;

/// What one (workload, metric) pair came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the runs' own noise is smaller than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A run's median window trails its best by more than the bound, so
    /// the readings cannot tell "unchanged" from "changed".
    Unresolved,
    /// An exact metric (or the digest) that is not identical.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "DIFFERS",
        }
    }

    /// Whether the comparison must exit non-zero.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Worse | Verdict::Differs)
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The reported value: the best window of a timing.
    pub value: f64,
    /// The median window, when the metric has windows.
    pub median: Option<f64>,
}

impl Reading {
    /// How far the median window fell behind the best one, as a share of
    /// the best: how disturbed the run was.
    fn disturbance(&self) -> f64 {
        match self.median {
            Some(m) if self.value != 0.0 => ((m - self.value) / self.value).abs(),
            _ => 0.0,
        }
    }
}

/// Applies `def`'s bound to parent reading `a` and change reading `b`.
pub fn judge(def: &EndToEnd, a: Reading, b: Reading) -> Verdict {
    if def.bound == 0.0 {
        return if a.value == b.value { Verdict::Ok } else { Verdict::Differs };
    }
    // Positive = B worse, as a share of A.
    let worse_by = |a: f64, b: f64| {
        let sign = if def.higher_is_better { -1.0 } else { 1.0 };
        sign * (b - a) / a.abs().max(f64::MIN_POSITIVE)
    };
    let worsening = worse_by(a.value, b.value);
    // A run whose median window trails its best by more than the bound was
    // disturbed for most of its length: its best window may be too.
    if a.disturbance().max(b.disturbance()) <= def.bound {
        return if worsening > def.bound { Verdict::Worse } else { Verdict::Ok };
    }
    // Disturbed. Still resolved when one side's typical window is on the
    // far side of the other's best one.
    let b_clearly_better = worse_by(a.value, b.median.unwrap_or(b.value)) < 0.0;
    let b_clearly_worse = worse_by(a.median.unwrap_or(a.value), b.value) > def.bound;
    if b_clearly_better {
        Verdict::Ok
    } else if b_clearly_worse {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

/// The six workload documents of one result set: a `benchmark/out`
/// directory or a merged baseline file.
fn load(path: &Path) -> Result<Vec<(String, Value)>, String> {
    let read = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        parse(&text).map_err(|e| format!("{}: {e:?}", p.display()))
    };
    if path.is_dir() {
        WORKLOADS
            .iter()
            .map(|(name, _)| Ok(((*name).to_owned(), read(&path.join(format!("{name}.json")))?)))
            .collect()
    } else {
        let set = read(path)?;
        let docs = set
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}: not a merged result set", path.display()))?;
        Ok(docs.to_vec())
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

fn reading(doc: &Value, metric: &str) -> Option<Reading> {
    let m = doc.get("end_to_end")?.get(metric)?;
    Some(Reading { value: as_f64(m.get("value")?)?, median: m.get("median").and_then(as_f64) })
}

/// Compares the sets at `a` and `b`; prints one row per (workload,
/// end-to-end metric) and returns whether any row fails.
///
/// # Errors
///
/// Unreadable or mismatched inputs (different seeds, a missing workload).
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load(a)?, load(b)?);
    let mut any_fail = false;
    println!("{:<18}{:<22}{:>16}{:>16}{:>9}  verdict", "workload", "metric", "A", "B", "change");
    for (name, doc_a) in &set_a {
        let doc_b = &set_b
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("{}: no result for {name}", b.display()))?
            .1;
        let field = |d: &Value, k: &str| d.get(k).cloned().unwrap_or(Value::Null);
        if field(doc_a, "seed") != field(doc_b, "seed")
            || field(doc_a, "quick") != field(doc_b, "quick")
        {
            return Err(format!("{name}: the two sets were not run with the same seed and mode"));
        }
        for def in &END_TO_END {
            let (Some(ra), Some(rb)) = (reading(doc_a, def.name), reading(doc_b, def.name)) else {
                continue;
            };
            let v = judge(def, ra, rb);
            any_fail |= v.fails();
            println!(
                "{:<18}{:<22}{:>16.6}{:>16.6}{:>+8.1}%  {}",
                name,
                def.name,
                ra.value,
                rb.value,
                (rb.value - ra.value) / ra.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                v.label()
            );
        }
        let same_digest = field(doc_a, "result_digest") == field(doc_b, "result_digest");
        any_fail |= !same_digest;
        println!(
            "{:<18}{:<22}{:>58}",
            name,
            "result_digest",
            if same_digest { Verdict::Ok.label() } else { Verdict::Differs.label() }
        );
    }
    Ok(any_fail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    /// A rate: best window and median window.
    fn r(best: f64, median: f64) -> Reading {
        Reading { value: best, median: Some(median) }
    }

    #[test]
    fn quiet_runs_are_judged_by_their_best_windows() {
        let ops = def("ops_per_s"); // higher is better
        assert!(ops.bound >= 0.1 && ops.bound <= 0.25);
        let worse = 100.0 * (1.0 - ops.bound) - 1.0;
        assert_eq!(judge(ops, r(100.0, 99.0), r(99.0, 98.0)), Verdict::Ok);
        assert_eq!(judge(ops, r(100.0, 99.0), r(worse, worse - 1.0)), Verdict::Worse);
        assert_eq!(judge(ops, r(100.0, 99.0), r(150.0, 149.0)), Verdict::Ok);
        let p50 = def("op_ms_p50"); // lower is better
        let worse = 10.0 * (1.0 + p50.bound) + 0.1;
        assert_eq!(judge(p50, r(10.0, 10.1), r(worse, worse + 0.1)), Verdict::Worse);
        assert_eq!(judge(p50, r(10.0, 10.1), r(10.2, 10.3)), Verdict::Ok);
    }

    #[test]
    fn disturbed_runs_are_unresolved_unless_the_windows_are_far_apart() {
        let ops = def("ops_per_s");
        // A's median window is 40 % behind its best: a disturbed run.
        let a = r(100.0, 60.0);
        assert_eq!(judge(ops, a, r(98.0, 95.0)), Verdict::Unresolved);
        assert_eq!(judge(ops, a, r(80.0, 78.0)), Verdict::Unresolved);
        // B's typical window beats A's best: resolved as ok.
        assert_eq!(judge(ops, a, r(140.0, 120.0)), Verdict::Ok);
        // B's best is worse than A's typical window by more than the
        // bound: resolved as worse.
        assert_eq!(judge(ops, a, r(40.0, 39.0)), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_may_not_differ_at_all() {
        let cyc = def("sim_cycles");
        let one = |v| Reading { value: v, median: None };
        assert_eq!(judge(cyc, one(1e6), one(1e6)), Verdict::Ok);
        assert_eq!(judge(cyc, one(1e6), one(1e6 - 1.0)), Verdict::Differs);
        assert!(Verdict::Differs.fails() && Verdict::Worse.fails());
        assert!(!Verdict::Unresolved.fails() && !Verdict::Ok.fails());
    }

    #[test]
    fn a_metric_without_windows_compares_as_a_point() {
        let rss = def("peak_rss_mb");
        let one = |v| Reading { value: v, median: None };
        assert_eq!(judge(rss, one(100.0), one(100.0 * (1.0 + rss.bound) - 1.0)), Verdict::Ok);
        assert_eq!(judge(rss, one(100.0), one(100.0 * (1.0 + rss.bound) + 1.0)), Verdict::Worse);
    }

    #[test]
    fn sets_load_from_a_directory_and_from_a_merged_file() {
        let dir = std::env::temp_dir().join(format!("l15-bench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut merged = Vec::new();
        for (name, _) in WORKLOADS {
            let doc = format!(
                "{{\"workload\":\"{name}\",\"seed\":1,\"quick\":false,\"result_digest\":\"ab\",\
                 \"end_to_end\":{{\"ops_per_s\":{{\"value\":10.5,\"unit\":\"1/s\",\"median\":10.4,\"worst\":10}},\
                 \"fail_ratio\":{{\"value\":0,\"unit\":\"ratio\"}}}}}}"
            );
            std::fs::write(dir.join(format!("{name}.json")), &doc).unwrap();
            merged.push((name.to_owned(), doc));
        }
        let file = dir.join("set.json");
        std::fs::write(&file, crate::report::merge_json(&merged)).unwrap();
        assert_eq!(compare(&dir, &file), Ok(false), "a set agrees with its own merged copy");

        let changed = merged[0].1.replace("\"ab\"", "\"cd\"");
        std::fs::write(dir.join(format!("{}.json", WORKLOADS[0].0)), changed).unwrap();
        assert_eq!(compare(&file, &dir), Ok(true), "a digest difference fails the comparison");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
