//! Canonical rendering of checker diagnostics.
//!
//! Every surface that prints a protocol finding — `l15 check`,
//! the `POST /check` endpoint of `l15-serve`, the seeded-mutation tests —
//! formats it through [`format_diagnostic`], so the same finding is
//! byte-identical everywhere. That is what lets CI diff checker output
//! across `L15_JOBS` worker counts and lets a test assert the exact line
//! a service response carries.
//!
//! The format is one line per finding:
//!
//! ```text
//! R3_GV_STALENESS nodes=[0,2] line=0x01020000 witness: producer v0 ...
//! ```
//!
//! `line=-` marks findings with no line address (e.g. FSM liveness).

use std::fmt::Write as _;

/// A machine-readable finding, decoupled from any checker crate so the
/// formatter can live in the dependency-free testkit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `R1_IPSET_BEFORE_GRANT`.
    pub rule: String,
    /// Nodes involved, in rule-defined order (producer before consumer).
    pub nodes: Vec<usize>,
    /// The line address the finding is about, if line-granular.
    pub line: Option<u64>,
    /// Human-readable witness ordering (the “why”).
    pub witness: String,
}

/// Renders one finding as its canonical single line (no trailing newline).
pub fn format_diagnostic(d: &Diagnostic) -> String {
    let mut out = String::with_capacity(64 + d.witness.len());
    out.push_str(&d.rule);
    out.push_str(" nodes=[");
    for (i, v) in d.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push_str("] line=");
    match d.line {
        Some(line) => {
            let _ = write!(out, "{line:#010x}");
        }
        None => out.push('-'),
    }
    out.push_str(" witness: ");
    // A witness must stay a single line for the diff-based determinism
    // checks; fold any embedded newline.
    for c in d.witness.chars() {
        out.push(if c == '\n' { ' ' } else { c });
    }
    out
}

/// Renders a named report: a header line with the finding count, then one
/// canonical line per finding. The caller is responsible for ordering the
/// findings deterministically.
pub fn format_report(subject: &str, findings: &[Diagnostic]) -> String {
    let mut out = String::new();
    if findings.is_empty() {
        let _ = writeln!(out, "{subject}: clean");
    } else {
        let _ = writeln!(out, "{subject}: {} finding(s)", findings.len());
        for d in findings {
            let _ = writeln!(out, "  {}", format_diagnostic(d));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Diagnostic {
        Diagnostic {
            rule: "R3_GV_STALENESS".to_owned(),
            nodes: vec![0, 2],
            line: Some(0x0102_0000),
            witness: "producer v0 never publishes the line v2 reads".to_owned(),
        }
    }

    #[test]
    fn canonical_line_shape() {
        assert_eq!(
            format_diagnostic(&sample()),
            "R3_GV_STALENESS nodes=[0,2] line=0x01020000 witness: \
             producer v0 never publishes the line v2 reads"
        );
    }

    #[test]
    fn missing_line_renders_dash_and_newlines_fold() {
        let d = Diagnostic {
            rule: "R6_WALLOC_LIVENESS".to_owned(),
            nodes: vec![],
            line: None,
            witness: "stall\nat cycle 9".to_owned(),
        };
        assert_eq!(
            format_diagnostic(&d),
            "R6_WALLOC_LIVENESS nodes=[] line=- witness: stall at cycle 9"
        );
    }

    #[test]
    fn report_clean_and_findings() {
        assert_eq!(format_report("task_0000", &[]), "task_0000: clean\n");
        let r = format_report("task_0001", &[sample()]);
        assert!(r.starts_with("task_0001: 1 finding(s)\n  R3_GV_STALENESS "), "{r}");
        assert!(r.ends_with('\n'));
    }
}
