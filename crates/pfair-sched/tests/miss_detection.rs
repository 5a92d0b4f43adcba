//! Deadline-miss detection, pinned on runs that miss.
//!
//! The engine decides in O(1) that a slot cannot miss (the ready
//! queue's front deadline lies beyond it) and otherwise walks the
//! queue's due entries. This suite holds that against a reference that
//! shares none of it: every subtask record of a `with_history()` run,
//! judged by the definition — released, not scheduled and not halted
//! before its deadline, deadline inside the simulated range. Each
//! scenario must report exactly that list, in `(deadline, task, index)`
//! order, in `SimResult::misses` and as `ObsEvent::Miss`es, under
//! the per-slot oracle, the quiet-span driver and the busy-span driver;
//! the totals are pinned to the figures the heap-based detector this
//! replaced reported on the same inputs.

use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_obs::{ObsEvent, Probe};
use pfair_sched::admission::AdmissionPolicy;
use pfair_sched::engine::{simulate, simulate_with, Engine, SimConfig};
use pfair_sched::event::Workload;
use pfair_sched::trace::Miss;
use proptest::prelude::*;

/// Collects the `ObsEvent::Miss` stream (no miss can fall inside a
/// verified busy-span jump).
#[derive(Default)]
struct MissLog(Vec<(TaskId, u64, Slot, Slot)>);

impl Probe for MissLog {
    fn on_event(&mut self, ev: ObsEvent) {
        if let ObsEvent::Miss {
            task,
            index,
            t,
            deadline,
        } = ev
        {
            self.0.push((task, index, t, deadline));
        }
    }
}

/// The misses of `w` under `cfg` by definition, from the history
/// records alone.
fn misses_by_definition(cfg: &SimConfig, w: &Workload) -> Vec<Miss> {
    let run = simulate(cfg.clone().with_history(), w);
    let mut expected = Vec::new();
    for task in &run.tasks {
        let history = task.history.as_ref().expect("history run");
        for s in &history.subtasks {
            let d = s.window.deadline;
            let pending_at_deadline =
                s.scheduled_at.is_none_or(|at| at >= d) && s.halted_at.is_none_or(|at| at >= d);
            if pending_at_deadline && d <= cfg.horizon {
                expected.push(Miss {
                    task: task.id,
                    index: s.index,
                    deadline: d,
                });
            }
        }
    }
    expected.sort_by_key(|m| (m.deadline, m.task.0, m.index));
    expected
}

/// Runs `w` under the three drivers and checks each against the
/// definition; returns the miss list.
fn assert_all_drivers_agree(cfg: &SimConfig, w: &Workload) -> Vec<Miss> {
    let expected = misses_by_definition(cfg, w);
    let drivers = [
        ("per-slot", cfg.clone().per_slot()),
        ("quiet-span", cfg.clone().without_busy_span()),
        ("busy-span", cfg.clone()),
    ];
    for (name, driver) in drivers {
        let (run, log) = simulate_with(driver, w, MissLog::default());
        assert_eq!(run.misses, expected, "{name}: SimResult::misses");
        let stream: Vec<_> = expected
            .iter()
            .map(|m| (m.task, m.index, m.deadline - 1, m.deadline))
            .collect();
        assert_eq!(log.0, stream, "{name}: miss event stream");
    }
    // Stepping by hand reports the same list as `run`.
    let mut engine = Engine::new(cfg.clone(), w);
    while engine.now() < cfg.horizon {
        engine.step();
    }
    assert_eq!(engine.finish().misses, expected, "manual stepping");
    expected
}

/// The overloaded leg of `span_observability.rs`: five weight-1/2 tasks
/// granted on one processor.
#[test]
fn overloaded_uniform_system() {
    let mut w = Workload::new();
    for i in 0..5u32 {
        w.join(i, 0, 1, 2);
    }
    let cfg = SimConfig::oi(1, 64).with_admission(AdmissionPolicy::Trusting);
    let misses = assert_all_drivers_agree(&cfg, &w);
    assert_eq!(misses.len(), 158);
    assert_eq!(
        misses.first(),
        Some(&Miss {
            task: TaskId(2),
            index: 1,
            deadline: 2
        })
    );
}

/// The Fig. 9 counterexample system of `paper_figures.rs` (leaves,
/// late joins, reweights on two processors): EPDF projection misses at
/// time 9, PD²-OI must not — under any driver, by the definition too.
#[test]
fn fig9_system_stays_miss_free() {
    let mut w = Workload::new();
    let mut id = 0u32;
    for _ in 0..10 {
        w.join(id, 0, 1, 7);
        w.leave(id, 7);
        id += 1;
    }
    for _ in 0..2 {
        w.join(id, 0, 1, 6);
        w.leave(id, 6);
        id += 1;
    }
    for _ in 0..2 {
        w.join(id, 6, 1, 14);
        id += 1;
    }
    for _ in 0..5 {
        w.join(id, 0, 1, 21);
        w.reweight(id, 7, 1, 3);
        id += 1;
    }
    let cfg = SimConfig::oi(2, 420).with_admission(AdmissionPolicy::Trusting);
    assert_eq!(assert_all_drivers_agree(&cfg, &w), Vec::new());
}

/// Admission off, three weight-1/2 tasks and a light one on one
/// processor: tardy heads sit at the queue front for many slots while
/// the subtasks released behind them come due. A reweight halts the
/// light task's unscheduled head (a stale entry that reaches the queue
/// front later), another lands on a tardy task, one task leaves with
/// work pending, a late join renews the overload and an IS delay moves
/// a release of a tardy task. (Reweights and leaves are placed where
/// the subtasks they halt are still incomplete in `I_SW`: the paper's
/// rules assume no tardiness, and halting an ideal-complete subtask is
/// outside them.)
#[test]
fn tardy_heads_hold_the_queue_front() {
    let mut w = Workload::new();
    for i in 0..3u32 {
        w.join(i, 0, 1, 2);
    }
    w.join(3, 0, 1, 20);
    w.join(5, 0, 1, 2);
    w.leave(5, 1);
    w.reweight(3, 4, 1, 16);
    w.reweight(1, 9, 1, 3);
    w.join(4, 26, 1, 4);
    w.delay(0, 30, 3);
    let cfg = SimConfig::oi(1, 96).with_admission(AdmissionPolicy::Trusting);
    let misses = assert_all_drivers_agree(&cfg, &w);
    assert_eq!(misses.len(), 146);
    // Some head stayed pending at least four slots past its deadline.
    let history = simulate(cfg.with_history(), &w);
    assert!(history.tasks.iter().any(|t| {
        t.history
            .as_ref()
            .expect("history run")
            .subtasks
            .iter()
            .any(|s| s.scheduled_at.is_some_and(|at| at >= s.window.deadline + 3))
    }));
}

/// A tardy run through the LJ rules, which withdraw every unscheduled
/// subtask at a reweight (stale entries at and behind the queue front).
#[test]
fn tardy_heads_under_leave_join() {
    let mut w = Workload::new();
    for i in 0..3u32 {
        w.join(i, 0, 1, 2);
    }
    w.join(3, 0, 1, 20);
    w.reweight(1, 1, 1, 3);
    w.reweight(3, 4, 1, 16);
    let cfg = SimConfig::leave_join(1, 80).with_admission(AdmissionPolicy::Trusting);
    let misses = assert_all_drivers_agree(&cfg, &w);
    assert_eq!(misses.len(), 105);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random overloaded systems (joins at scattered times, IS delays,
    /// no halting events): every driver reports the definition's list.
    #[test]
    fn random_overloads_match_the_definition(
        tasks in prop::collection::vec((0i64..24, 1i128..=3, 2i128..=9, 0i64..60, 0u32..5), 3..9),
        processors in 1u32..=2,
    ) {
        let mut w = Workload::new();
        for (id, (join_at, num, den, delay_at, delay_by)) in tasks.into_iter().enumerate() {
            let id = u32::try_from(id).expect("few tasks");
            w.join(id, join_at, num.min(den), den);
            if delay_at > join_at {
                w.delay(id, delay_at, delay_by);
            }
        }
        let cfg = SimConfig::oi(processors, 120).with_admission(AdmissionPolicy::Trusting);
        assert_all_drivers_agree(&cfg, &w);
    }
}
