//! SVG rendering of schedules: the paper's window diagrams (Figs. 1,
//! 3, 4, 6–9) as standalone vector images, generated from simulation
//! traces.
//!
//! Layout follows the paper's visual convention: one row per subtask,
//! a hollow rectangle for the window `[r, d)`, a filled cell for the
//! slot PD² scheduled it in, a cross for a halt, a heavy left edge on
//! era-opening windows, and a slot ruler along the top. No external
//! dependencies — the SVG is assembled textually.

#![expect(
    clippy::as_conversions,
    clippy::disallowed_methods,
    reason = "a display emitter: its casts place pixels and it may panic on malformed plot geometry; it decides nothing in a schedule"
)]

use crate::trace::{SimResult, SubtaskRecord};
use pfair_core::time::Slot;
use std::fmt::Write as _;

/// Pixel size of one slot cell.
const CELL: i64 = 14;
/// Row height per subtask.
const ROW: i64 = 18;
/// Left margin for task labels.
const MARGIN: i64 = 64;
/// Top margin for the ruler.
const TOP: i64 = 28;

/// Renders every task of a history-enabled result into one SVG
/// document covering slots `[0, horizon)`.
///
/// # Panics
/// Panics if the result lacks histories.
pub fn render_svg(result: &SimResult, horizon: Slot) -> String {
    let horizon = horizon.min(result.horizon);
    let mut rows: Vec<(String, SubtaskRecord)> = Vec::new();
    for task in &result.tasks {
        let hist = task
            .history
            .as_ref()
            .expect("render_svg requires record_history");
        for sub in &hist.subtasks {
            if sub.window.release < horizon {
                rows.push((task.id.to_string(), *sub));
            }
        }
    }
    let width = MARGIN + horizon * CELL + 16;
    let height = TOP + rows.len() as i64 * ROW + 16;
    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" font-family="monospace" font-size="10">"#
    );
    ruler(&mut out, horizon);
    for (i, (label, sub)) in rows.iter().enumerate() {
        let y = TOP + i as i64 * ROW;
        subtask_row(&mut out, label, sub, y, horizon);
    }
    out.push_str("</svg>\n");
    out
}

fn ruler(out: &mut String, horizon: Slot) {
    for t in (0..=horizon).step_by(5) {
        let x = MARGIN + t * CELL;
        let _ = writeln!(out, r##"<text x="{x}" y="14" fill="#555">{t}</text>"##);
        let _ = writeln!(
            out,
            r##"<line x1="{x}" y1="18" x2="{x}" y2="22" stroke="#999"/>"##
        );
    }
}

fn subtask_row(out: &mut String, label: &str, sub: &SubtaskRecord, y: i64, horizon: Slot) {
    let _ = writeln!(
        out,
        r##"<text x="4" y="{}" fill="#000">{}_{}</text>"##,
        y + 12,
        label,
        sub.index
    );
    let x0 = MARGIN + sub.window.release * CELL;
    let x1 = MARGIN + sub.window.deadline.min(horizon) * CELL;
    // The window outline.
    let _ = writeln!(
        out,
        r##"<rect x="{}" y="{}" width="{}" height="{}" fill="none" stroke="{}" stroke-width="{}"/>"##,
        x0,
        y + 2,
        (x1 - x0).max(2),
        ROW - 6,
        if sub.halted_at.is_some() {
            "#b55"
        } else {
            "#333"
        },
        if sub.era_first { 2 } else { 1 }
    );
    // Scheduled slot fill.
    if let Some(s) = sub.scheduled_at {
        if s < horizon {
            let _ = writeln!(
                out,
                r##"<rect x="{}" y="{}" width="{}" height="{}" fill="#4a7" opacity="0.8"/>"##,
                MARGIN + s * CELL + 1,
                y + 3,
                CELL - 2,
                ROW - 8
            );
        }
    }
    // Halt cross.
    if let Some(h) = sub.halted_at {
        if h < horizon {
            let hx = MARGIN + h * CELL;
            let _ = writeln!(
                out,
                r##"<path d="M{} {} l{} {} m0 -{} l-{} {}" stroke="#b00" stroke-width="2" fill="none"/>"##,
                hx + 2,
                y + 4,
                CELL - 4,
                ROW - 10,
                ROW - 10,
                CELL - 4,
                ROW - 10
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::event::Workload;

    fn demo_result() -> SimResult {
        let mut w = Workload::new();
        w.join(0, 0, 3, 20);
        w.join(1, 0, 2, 5);
        w.reweight(0, 9, 1, 2);
        simulate(SimConfig::oi(2, 40).with_history(), &w)
    }

    #[test]
    fn produces_well_formed_svg() {
        let svg = render_svg(&demo_result(), 40);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // Balanced: one opening svg, one closing.
        assert_eq!(svg.matches("<svg").count(), 1);
        assert_eq!(svg.matches("</svg>").count(), 1);
    }

    #[test]
    fn draws_windows_schedules_and_labels() {
        let svg = render_svg(&demo_result(), 40);
        assert!(svg.contains("T0_1"));
        assert!(svg.contains("T1_1"));
        assert!(svg.contains(r##"fill="#4a7""##), "scheduled slots drawn");
        assert!(svg.matches("<rect").count() > 10);
    }

    #[test]
    fn halted_subtasks_are_marked() {
        // Force a rule-O halt: unscheduled subtask reweighted.
        let mut w = crate::workloads::fig6_base((3, 20));
        w.reweight(0, 10, 1, 2);
        let r = simulate(
            SimConfig::oi(4, 24)
                .with_tie_break(crate::priority::TieBreak::TaskIdDesc)
                .with_history(),
            &w,
        );
        let had_halt = r.tasks[0]
            .history
            .as_ref()
            .unwrap()
            .subtasks
            .iter()
            .any(|s| s.halted_at.is_some());
        let svg = render_svg(&r, 24);
        if had_halt {
            assert!(svg.contains(r##"stroke="#b00""##), "halt cross drawn");
        }
    }

    #[test]
    fn horizon_clips_rows() {
        let svg_short = render_svg(&demo_result(), 10);
        let svg_long = render_svg(&demo_result(), 40);
        assert!(svg_short.len() < svg_long.len());
    }
}
