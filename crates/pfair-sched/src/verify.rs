//! Independent verification of recorded schedules.
//!
//! The engine is trusted nowhere else in this crate's test suite: this
//! module re-validates a history-enabled [`SimResult`] from first
//! principles, checking every invariant the paper's model imposes,
//! *without* reusing the engine's own bookkeeping:
//!
//! * **Window structure** (Eqns (2)–(4)): every subtask's deadline and
//!   b-bit match its within-era rank and the era weight implied by the
//!   trace; era-opening releases restart the rank at 1.
//! * **Schedule sanity**: a subtask runs at most once, within its
//!   window, in index order, never in the same slot as a sibling, and
//!   never after a halt.
//! * **Processor capacity**: at most `M` subtasks run per slot.
//! * **Miss reporting**: the recorded misses are exactly the released,
//!   unhalted subtasks that were not scheduled before their deadlines.
//! * **Pfair lag window**: `−1 < lag < 1` against the per-slot `I_CSW`
//!   series reconstructed from the history.
//!
//! [`verify`] returns every violation found (empty = certified). The
//! property-test suites run it over randomized systems, so an engine
//! regression breaks loudly even where a metric-level assertion might
//! not notice.

use crate::trace::{SimResult, SubtaskRecord, TaskHistory};
use pfair_core::rational::{rat, Rational};
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use std::collections::BTreeMap;
use std::fmt;

/// One invariant violation found by the verifier.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The offending task (if the violation is task-scoped).
    pub task: Option<TaskId>,
    /// Human-readable description of what failed.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.task {
            Some(t) => write!(f, "{}: {}", t, self.what),
            None => write!(f, "{}", self.what),
        }
    }
}

fn v(task: Option<TaskId>, what: impl Into<String>) -> Violation {
    Violation {
        task,
        what: what.into(),
    }
}

/// What [`verify`] reports for a task whose result carries no history.
pub const NO_HISTORY: &str = "no history recorded (run with `record_history`)";

/// Verifies a history-enabled result. Returns all violations found. A
/// result without histories cannot be checked: each task that lacks one
/// is reported as one violation ([`NO_HISTORY`]), and nothing else is.
pub fn verify(result: &SimResult) -> Vec<Violation> {
    let missing: Vec<Violation> = (result.tasks.iter())
        .filter(|task| task.history.is_none())
        .map(|task| v(Some(task.id), NO_HISTORY))
        .collect();
    if !missing.is_empty() {
        return missing;
    }
    let mut out = Vec::new();
    for task in &result.tasks {
        let Some(hist) = &task.history else { continue };
        verify_windows(task.id, hist, &mut out);
        verify_schedule_sanity(task.id, hist, &mut out);
        verify_lag_window(task.id, hist, result.horizon, &mut out);
    }
    verify_capacity(result, &mut out);
    verify_misses(result, &mut out);
    out
}

/// Asserts the result verifies cleanly; panics with a readable report
/// otherwise. Test-suite convenience.
pub fn assert_verified(result: &SimResult) {
    let violations = verify(result);
    assert!(
        violations.is_empty(),
        "schedule verification failed:\n{}",
        violations
            .iter()
            .map(|x| format!("  - {x}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Windows follow Eqns (2)–(4) for the era weights implied by the
/// trace. The era weight is reconstructed from the era-opening
/// subtask's own window (deadline − release determines the window
/// length of rank 1, which pins ⌈1/w⌉; the chain then cross-checks
/// every later rank, so a wrong reconstruction surfaces immediately).
fn verify_windows(id: TaskId, hist: &TaskHistory, out: &mut Vec<Violation>) {
    let mut era: Vec<&SubtaskRecord> = Vec::new();
    let mut eras: Vec<Vec<&SubtaskRecord>> = Vec::new();
    for sub in &hist.subtasks {
        if sub.era_first {
            if !era.is_empty() {
                eras.push(std::mem::take(&mut era));
            }
        } else if era.is_empty() && !eras.is_empty() {
            out.push(v(
                Some(id),
                format!("subtask {} continues a closed era", sub.index),
            ));
        }
        era.push(sub);
    }
    if !era.is_empty() {
        eras.push(era);
    }

    for era in eras {
        let first = era[0];
        if !first.era_first {
            out.push(v(
                Some(id),
                format!(
                    "era starting at subtask {} not marked era_first",
                    first.index
                ),
            ));
            continue;
        }
        if let Err(what) = check_era_chain(&era) {
            out.push(v(
                Some(id),
                format!("era starting at subtask {}: {}", first.index, what),
            ));
        }
    }
}

/// Checks one era's window chain exactly. Releases give the observable
/// IS offsets (`θ` increments are `r_{k+1} − (d_k − b_k) ≥ 0`, Eqn (4));
/// normalizing them away leaves `D_k = d_k − r_1 − θ_k = ⌈k/w⌉`. Each
/// `b_k = 0` *pins* the weight to exactly `k / D_k`; each `b_k = 1`
/// constrains it to the open interval `(k/D_k, k/(D_k − 1))`. The chain
/// is valid iff all pins agree and the interval intersection admits the
/// pin (or is non-empty when nothing pins) — an exact reconstruction
/// that handles any rational weight, including admission-policed grants
/// with large denominators.
fn check_era_chain(era: &[&SubtaskRecord]) -> Result<(), String> {
    let r1 = era[0].window.release;
    let mut offset: Slot = 0;
    let mut pin: Option<Rational> = None;
    let mut lo = Rational::ZERO; // strict lower bound
    let mut hi = rat(2, 1); // strict upper bound (weights ≤ 1 < 2)
    for (k0, sub) in era.iter().enumerate() {
        #[expect(clippy::disallowed_methods, reason = "era lengths are horizon-bounded")]
        let k = i128::try_from(k0).expect("era index exceeds i128") + 1;
        if k0 > 0 {
            let prev = era[k0 - 1];
            let sep = sub.window.release - prev.window.next_release();
            if sep < 0 && prev.halted_at.is_none() {
                return Err(format!(
                    "subtask {} released {} slots before d − b of its predecessor",
                    sub.index, -sep
                ));
            }
            offset += sep.max(0);
        }
        let dk = i128::from(sub.window.deadline - r1 - offset);
        if dk <= 0 {
            return Err(format!(
                "subtask {} has non-positive normalized deadline",
                sub.index
            ));
        }
        if sub.window.b {
            // k/dk < w < k/(dk − 1)
            lo = lo.max(rat(k, dk));
            if dk > 1 {
                hi = hi.min(rat(k, dk - 1));
            } else {
                return Err(format!(
                    "subtask {} has b = 1 with unit deadline",
                    sub.index
                ));
            }
        } else {
            let w = rat(k, dk);
            match pin {
                None => pin = Some(w),
                Some(p) if p != w => {
                    return Err(format!("b = 0 pins disagree: {p} vs {w}"));
                }
                _ => {}
            }
        }
    }
    match pin {
        Some(w) => {
            if !(w > lo && w < hi) {
                return Err(format!("pinned weight {w} violates interval ({lo}, {hi})"));
            }
            if !(w.is_positive() && w <= Rational::ONE) {
                return Err(format!("pinned weight {w} outside (0, 1]"));
            }
        }
        None => {
            if lo >= hi {
                return Err(format!("empty weight interval ({lo}, {hi})"));
            }
        }
    }
    Ok(())
}

/// Per-task schedule sanity.
fn verify_schedule_sanity(id: TaskId, hist: &TaskHistory, out: &mut Vec<Violation>) {
    let mut last_sched: Option<(u64, Slot)> = None;
    let mut seen_slots: BTreeMap<Slot, u64> = BTreeMap::new();
    for sub in &hist.subtasks {
        if let Some(s) = sub.scheduled_at {
            if let Some(h) = sub.halted_at {
                if s >= h {
                    out.push(v(
                        Some(id),
                        format!(
                            "subtask {} scheduled at {} after halt at {}",
                            sub.index, s, h
                        ),
                    ));
                }
            }
            if s < sub.window.release {
                out.push(v(
                    Some(id),
                    format!(
                        "subtask {} scheduled at {} before release {}",
                        sub.index, s, sub.window.release
                    ),
                ));
            }
            if let Some(prev) = seen_slots.insert(s, sub.index) {
                out.push(v(
                    Some(id),
                    format!("subtasks {} and {} share slot {}", prev, sub.index, s),
                ));
            }
            if let Some((pi, ps)) = last_sched {
                if ps >= s {
                    out.push(v(
                        Some(id),
                        format!(
                            "subtask {} (slot {}) ran no later than predecessor {} (slot {})",
                            sub.index, s, pi, ps
                        ),
                    ));
                }
            }
            last_sched = Some((sub.index, s));
        }
    }
    // The scheduled-slot list agrees with the subtask records.
    let mut from_subs: Vec<Slot> = hist
        .subtasks
        .iter()
        .filter_map(|s| s.scheduled_at)
        .collect();
    from_subs.sort();
    let mut listed = hist.scheduled_slots.clone();
    listed.sort();
    if from_subs != listed {
        out.push(v(
            Some(id),
            "scheduled_slots disagrees with subtask records",
        ));
    }
}

/// At most `M` quanta per slot across all tasks.
fn verify_capacity(result: &SimResult, out: &mut Vec<Violation>) {
    let mut per_slot: BTreeMap<Slot, u32> = BTreeMap::new();
    for hist in result.tasks.iter().filter_map(|task| task.history.as_ref()) {
        for s in &hist.scheduled_slots {
            *per_slot.entry(*s).or_insert(0) += 1;
        }
    }
    for (slot, count) in per_slot {
        if count > result.processors {
            out.push(v(
                None,
                format!(
                    "slot {} schedules {} > M = {}",
                    slot, count, result.processors
                ),
            ));
        }
    }
}

/// The recorded misses are exactly the subtasks that deserved one.
fn verify_misses(result: &SimResult, out: &mut Vec<Violation>) {
    let mut expected = Vec::new();
    for task in &result.tasks {
        let Some(hist) = &task.history else { continue };
        for sub in &hist.subtasks {
            let scheduled_in_time = sub.scheduled_at.is_some_and(|s| s < sub.window.deadline);
            let within_horizon = sub.window.deadline <= result.horizon;
            if within_horizon && !scheduled_in_time && sub.halted_at.is_none() {
                expected.push((task.id, sub.index));
            }
        }
    }
    expected.sort();
    let mut recorded: Vec<(TaskId, u64)> =
        result.misses.iter().map(|m| (m.task, m.index)).collect();
    recorded.sort();
    if expected != recorded {
        out.push(v(
            None,
            format!("miss list mismatch: expected {expected:?}, recorded {recorded:?}"),
        ));
    }
}

/// The Pfair lag window against the reconstructed per-slot `I_CSW`.
fn verify_lag_window(id: TaskId, hist: &TaskHistory, horizon: Slot, out: &mut Vec<Violation>) {
    let lags = hist.lag_vs_icsw(horizon);
    for (t, lag) in lags.iter().enumerate() {
        if !(rat(-1, 1) < *lag && *lag < Rational::ONE) {
            out.push(v(Some(id), format!("lag {lag} at t = {t} outside (−1, 1)")));
            break; // one report per task suffices
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::event::Workload;

    fn history_run(weights: &[(i128, i128)], m: u32, horizon: Slot) -> SimResult {
        let mut w = Workload::new();
        for (i, (n, d)) in weights.iter().enumerate() {
            w.join(i as u32, 0, *n, *d);
        }
        simulate(SimConfig::oi(m, horizon).with_history(), &w)
    }

    #[test]
    fn clean_run_verifies() {
        let r = history_run(&[(1, 2), (1, 3), (1, 6)], 1, 60);
        assert_verified(&r);
    }

    #[test]
    fn reweighted_run_verifies() {
        let mut w = Workload::new();
        w.join(0, 0, 3, 20);
        w.join(1, 0, 2, 5);
        w.reweight(0, 9, 1, 2);
        w.reweight(1, 17, 1, 5);
        let r = simulate(SimConfig::oi(2, 80).with_history(), &w);
        assert_verified(&r);
    }

    #[test]
    fn tampered_schedule_is_caught() {
        let mut r = history_run(&[(1, 2)], 1, 20);
        // Claim a quantum the engine never scheduled.
        let hist = r.tasks[0].history.as_mut().unwrap();
        hist.subtasks[1].scheduled_at = hist.subtasks[0].scheduled_at;
        let violations = verify(&r);
        assert!(!violations.is_empty());
    }

    #[test]
    fn tampered_window_is_caught() {
        let mut r = history_run(&[(2, 5)], 1, 20);
        let hist = r.tasks[0].history.as_mut().unwrap();
        hist.subtasks[1].window.deadline += 2; // break Eqn (2)
        let violations = verify(&r);
        assert!(
            violations
                .iter()
                .any(|x| x.what.contains("era starting at")),
            "got: {violations:?}"
        );
    }

    #[test]
    fn hidden_miss_is_caught() {
        let mut r = history_run(&[(1, 2)], 1, 20);
        r.misses.clear();
        let hist = r.tasks[0].history.as_mut().unwrap();
        hist.subtasks[3].scheduled_at = None; // pretend it never ran …
                                              // … without recording a miss: the verifier must object (either
                                              // as a miss-list mismatch or a scheduled_slots inconsistency).
        let violations = verify(&r);
        assert!(!violations.is_empty());
    }

    /// A result without histories is answered, not panicked on: one
    /// violation per task, naming it.
    #[test]
    fn historyless_result_is_reported() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 2).join(1, 0, 1, 3);
        let r = simulate(SimConfig::oi(1, 10), &w);
        let expected: Vec<Violation> = [TaskId(0), TaskId(1)]
            .into_iter()
            .map(|id| v(Some(id), NO_HISTORY))
            .collect();
        assert_eq!(verify(&r), expected);
    }
}
