//! Text Gantt charts of simulated schedules — quick visual inspection of
//! what the list scheduler produced (core occupancy, idle gaps, the
//! critical chain), à la the timelines real-time papers print.

use l15_dag::DagTask;

use crate::makespan::SimResult;

/// Renders `result` as an ASCII Gantt chart with one row per core.
///
/// `width` is the number of character cells the makespan is scaled to.
/// Nodes are labelled by index modulo 36 (`0-9a-z`); idle time is `.`.
///
/// # Panics
///
/// Panics if `width == 0` or the result covers no cores.
pub fn render(task: &DagTask, result: &SimResult, cores: usize, width: usize) -> String {
    assert!(width > 0, "need at least one column");
    assert!(cores > 0, "need at least one core");
    let span = result.makespan.max(1e-12);
    let scale = width as f64 / span;
    let glyph = |v: usize| -> char {
        let g = v % 36;
        if g < 10 {
            (b'0' + g as u8) as char
        } else {
            (b'a' + (g - 10) as u8) as char
        }
    };

    let mut rows = vec![vec!['.'; width]; cores];
    for v in task.graph().node_ids() {
        let c = result.core[v.0];
        if c >= cores {
            continue;
        }
        let s = (result.start[v.0] * scale) as usize;
        let f = ((result.finish[v.0] * scale) as usize).min(width);
        let s = s.min(width.saturating_sub(1));
        let f = f.max(s + 1).min(width);
        for cell in &mut rows[c][s..f] {
            *cell = glyph(v.0);
        }
    }

    let mut out = String::new();
    out.push_str(&format!("makespan = {:.2}\n", result.makespan));
    for (c, row) in rows.iter().enumerate() {
        out.push_str(&format!("core {c:>2} |"));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "         0{:>width$}\n",
        format!("{:.1}", result.makespan),
        width = width.saturating_sub(1)
    ));
    out
}

/// Converts a simulated schedule into cycle-stamped [`Planned`] entries
/// for the `l15-trace` Gantt diff (`l15_trace::gantt::diff`).
///
/// The makespan simulator works in the DAG's abstract time units;
/// `cycles_per_unit` scales them to the observed run's cycle clock. A
/// natural choice is `observed_makespan / result.makespan`, which
/// normalises the plan to the run so the diff reports per-node *shape*
/// deviations rather than the global clock-rate mismatch.
///
/// Entries are ordered by node index; timestamps are rounded to the
/// nearest cycle with finish clamped to at least `start + 1`.
///
/// # Panics
///
/// Panics if `cycles_per_unit` is not finite and positive.
pub fn planned_nodes(
    task: &DagTask,
    result: &SimResult,
    cycles_per_unit: f64,
) -> Vec<l15_trace::gantt::Planned> {
    assert!(
        cycles_per_unit.is_finite() && cycles_per_unit > 0.0,
        "cycles_per_unit must be finite and positive, got {cycles_per_unit}"
    );
    let to_cycles = |t: f64| -> u64 { (t.max(0.0) * cycles_per_unit).round() as u64 };
    task.graph()
        .node_ids()
        .map(|v| {
            let start = to_cycles(result.start[v.0]);
            let finish = to_cycles(result.finish[v.0]).max(start + 1);
            l15_trace::gantt::Planned {
                node: v.0 as u32,
                core: result.core[v.0] as u32,
                start,
                finish,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_priorities;
    use crate::makespan::simulate;
    use l15_dag::topology::{fork_join, UniformPayload};

    fn schedule() -> (DagTask, SimResult) {
        let dag = fork_join(3, UniformPayload::default()).unwrap();
        let task = DagTask::new(dag, 1e6, 1e6).unwrap();
        let plan = baseline_priorities(&task);
        let g = task.graph();
        let r = simulate(&task, 3, &plan.priorities, |v| g.node(v).wcet, |_, _| 0.0);
        (task, r)
    }

    #[test]
    fn renders_all_cores_and_boundaries() {
        let (task, r) = schedule();
        let text = render(&task, &r, 3, 40);
        assert!(text.contains("core  0 |"));
        assert!(text.contains("core  2 |"));
        assert!(text.starts_with("makespan = "));
        // Every line between pipes is exactly `width` cells.
        for line in text.lines().filter(|l| l.starts_with("core")) {
            let inner = line.split('|').nth(1).unwrap();
            assert_eq!(inner.chars().count(), 40);
        }
    }

    #[test]
    fn every_node_appears() {
        let (task, r) = schedule();
        let text = render(&task, &r, 3, 60);
        for v in 0..task.graph().node_count() {
            let g = if v < 10 { (b'0' + v as u8) as char } else { (b'a' + (v - 10) as u8) as char };
            assert!(text.contains(g), "node {v} (glyph {g}) missing:\n{text}");
        }
    }

    #[test]
    fn planned_nodes_scale_and_order() {
        let (task, r) = schedule();
        let planned = planned_nodes(&task, &r, 100.0);
        assert_eq!(planned.len(), task.graph().node_count());
        for (i, p) in planned.iter().enumerate() {
            assert_eq!(p.node, i as u32);
            assert!(p.finish > p.start, "{p:?}");
            assert_eq!(p.core, r.core[i] as u32);
            assert_eq!(p.start, (r.start[i] * 100.0).round() as u64);
        }
        let span = planned.iter().map(|p| p.finish).max().unwrap();
        assert_eq!(span, (r.makespan * 100.0).round() as u64);
    }
}
