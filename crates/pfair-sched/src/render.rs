//! ASCII rendering of subtask windows and schedules.
//!
//! The paper communicates its examples as window diagrams (Figs. 1, 3,
//! 4, 6–9). This module renders the same diagrams from simulation
//! traces, which the figure-validation tests and the
//! `pfair-experiments` binaries use to make runs inspectable:
//!
//! ```text
//! T0   [== X =====)          subtask 1, scheduled in slot 2
//! T0        [=== X ==)       subtask 2, scheduled in slot 6
//! ```
//!
//! Legend: `[` release, `)` one past the deadline, `X` the slot PD²
//! scheduled the subtask in, `#` a halted subtask's halt slot.

#![expect(
    clippy::as_conversions,
    clippy::disallowed_methods,
    reason = "a display emitter: its casts place characters on a ruler and it may panic on malformed plot geometry; it decides nothing in a schedule"
)]

use crate::trace::{SubtaskRecord, TaskHistory};
use pfair_core::time::Slot;

/// Renders one subtask's window on a `[0, horizon)` ruler.
pub fn render_window(rec: &SubtaskRecord, horizon: Slot) -> String {
    let mut row = vec![b' '; horizon.max(0) as usize];
    let lo = rec.window.release.clamp(0, horizon);
    let hi = rec.window.deadline.clamp(0, horizon);
    for t in lo..hi {
        row[t as usize] = b'=';
    }
    if rec.window.release >= 0 && rec.window.release < horizon {
        row[rec.window.release as usize] = b'[';
    }
    if hi > lo && hi <= horizon && rec.window.deadline <= horizon {
        row[(rec.window.deadline - 1) as usize] = b')';
    }
    if let Some(s) = rec.scheduled_at {
        if s >= 0 && s < horizon {
            row[s as usize] = b'X';
        }
    }
    if let Some(h) = rec.halted_at {
        if h >= 0 && h < horizon {
            row[h as usize] = b'#';
        }
    }
    String::from_utf8(row).expect("ASCII only")
}

/// Renders a task's full subtask history, one line per subtask.
pub fn render_task(label: &str, history: &TaskHistory, horizon: Slot) -> String {
    let mut out = String::new();
    for rec in &history.subtasks {
        out.push_str(&format!(
            "{:<6} {} (T_{}{})\n",
            label,
            render_window(rec, horizon),
            rec.index,
            if rec.era_first { ", era" } else { "" }
        ));
    }
    out
}

/// A slot ruler to print above rendered rows (tens digits, then units).
pub fn ruler(horizon: Slot) -> String {
    let n = horizon.max(0) as usize;
    let units: String = (0..n).map(|t| char::from(b'0' + (t % 10) as u8)).collect();
    let tens: String = (0..n)
        .map(|t| {
            if t % 10 == 0 && t >= 10 {
                char::from(b'0' + ((t / 10) % 10) as u8)
            } else {
                ' '
            }
        })
        .collect();
    format!("       {tens}\n       {units}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::window::SubtaskWindow;

    fn rec(
        release: Slot,
        deadline: Slot,
        scheduled: Option<Slot>,
        halted: Option<Slot>,
    ) -> SubtaskRecord {
        SubtaskRecord {
            index: 1,
            window: SubtaskWindow {
                release,
                deadline,
                b: true,
            },
            scheduled_at: scheduled,
            halted_at: halted,
            isw_completion: None,
            era_first: true,
        }
    }

    #[test]
    fn window_with_schedule_mark() {
        let s = render_window(&rec(2, 6, Some(4), None), 8);
        assert_eq!(s, "  [=X)  ");
    }

    #[test]
    fn halted_subtask_mark() {
        let s = render_window(&rec(0, 5, None, Some(3)), 6);
        assert_eq!(s, "[==#) ");
    }

    #[test]
    fn clamps_to_horizon() {
        let s = render_window(&rec(4, 12, None, None), 8);
        assert_eq!(s, "    [===");
    }

    #[test]
    fn ruler_lines_up() {
        let r = ruler(12);
        assert!(r.contains("012345678901"));
    }
}
