//! The selection path against a PD² that shares none of its code.
//!
//! `naive_pd2_schedule` keeps a plain `Vec` of tasks. Each slot it takes
//! every task's next unscheduled subtask that has been released,
//! computes its window from Eqns 2–4 in `Rational` and a heavy task's
//! group deadline by walking the successors (the definition, not the
//! engine's closed form), fully sorts the contenders by (deadline,
//! b-bit, group deadline, tie rank) and runs the first `m`. It shares
//! only `Rational` and the task-model types with the engine: no slab,
//! no ready queue, no calendar, no packed key, no `rank_window`.
//!
//! The engine's subtask schedule (`with_history()`) must equal it on
//! every rung of the driver ladder, and so must each task's quanta in a
//! run without history — the runs in which the span drivers engage.
//! Systems are reweight-free (rules O / I / L / J are not modelled
//! here), with `m ≤ 4`, joins at arbitrary slots and leaves, and a total
//! weight of at most `m`, so no join is clamped.

use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_sched::engine::{simulate, SimConfig};
use pfair_sched::event::Workload;
use proptest::prelude::*;
use std::cmp::Reverse;

/// One task: weight `num/den`, joining at `join`, leaving at `leave`.
#[derive(Clone, Copy, Debug)]
struct Spec {
    num: i128,
    den: i128,
    join: i64,
    leave: Option<i64>,
}

/// A scheduled subtask: index, release, deadline, b-bit, slot.
type Ran = (u64, i64, i64, bool, i64);

/// Eqns 2–4 for subtask `T_k` of a task of weight `w` that joined at
/// `join` with no separations: `r = join + ⌊(k−1)/w⌋`, `d = join +
/// ⌈k/w⌉`, `b = ⌈k/w⌉ − ⌊k/w⌋`.
fn oracle_window(w: Rational, join: i64, k: u64) -> (i64, i64, bool) {
    let over_w = |k: u64| Rational::new(i128::from(k), 1) / w;
    let at = |x: i128| join + i64::try_from(x).expect("slot in range");
    let (up, down) = (over_w(k).ceil(), over_w(k).floor());
    (at(over_w(k - 1).floor()), at(up), up != down)
}

/// PD²'s group deadline by its definition: the earliest `t ≥ d(T_k)`
/// such that, for some `j ≥ k`, `t = d(T_j) − 1` and `T_j`'s window has
/// length 3, or `t = d(T_j)` and `b(T_j) = 0`. Light tasks have none
/// (the paper's `D = 0`).
fn oracle_group_deadline(w: Rational, join: i64, k: u64) -> i64 {
    if w <= Rational::new(1, 2) {
        return 0;
    }
    let d_k = oracle_window(w, join, k).1;
    let found = (k..).find_map(|j| {
        let (r, d, b) = oracle_window(w, join, j);
        if d - r == 3 && d > d_k {
            Some(d - 1)
        } else {
            (!b).then_some(d)
        }
    });
    found.expect("a period ends in b = 0")
}

/// The schedule by brute force (module docs), per task in index order.
fn naive_pd2_schedule(m: u32, horizon: i64, specs: &[Spec]) -> Vec<Vec<Ran>> {
    let mut ran: Vec<Vec<Ran>> = vec![Vec::new(); specs.len()];
    for t in 0..horizon {
        let mut contenders = Vec::new();
        for (id, s) in specs.iter().enumerate() {
            if t < s.join || s.leave.is_some_and(|at| t >= at) {
                continue;
            }
            let w = Rational::new(s.num, s.den);
            let k = u64::try_from(ran[id].len()).expect("count") + 1;
            let (r, d, b) = oracle_window(w, s.join, k);
            if r > t {
                continue;
            }
            assert!(
                t < d,
                "task {id} missed d(T_{k}) = {d}: the system is feasible"
            );
            let gd = if b {
                oracle_group_deadline(w, s.join, k)
            } else {
                0
            };
            contenders.push(((d, !b, Reverse(gd), id), (k, r, d, b, t)));
        }
        contenders.sort_unstable();
        let m = usize::try_from(m).expect("processor count");
        for ((.., id), subtask) in contenders.into_iter().take(m) {
            ran[id].push(subtask);
        }
    }
    ran
}

/// Runs `specs` on every rung, with and without history, and holds each
/// run to the naive schedule.
fn check_against_oracle(m: u32, horizon: i64, specs: &[Spec]) {
    let mut workload = Workload::new();
    for (id, s) in (0u32..).zip(specs) {
        workload.join(id, s.join, s.num, s.den);
        if let Some(at) = s.leave.filter(|&at| at < horizon) {
            workload.leave(id, at);
        }
    }
    let expected = naive_pd2_schedule(m, horizon, specs);
    let base = SimConfig::oi(m, horizon);
    for cfg in [
        base.clone().per_slot(),
        base.clone().without_busy_span(),
        base,
    ] {
        let traced = simulate(cfg.clone().with_history(), &workload);
        let fast = simulate(cfg.clone(), &workload);
        assert!(
            traced.misses.is_empty() && fast.misses.is_empty(),
            "{cfg:?}"
        );
        for (id, want) in (0u32..).zip(&expected) {
            let history = traced
                .task(TaskId(id))
                .history
                .as_ref()
                .expect("history run");
            let got: Vec<Ran> = (history.subtasks.iter())
                .filter_map(|s| {
                    let w = s.window;
                    (s.scheduled_at).map(|at| (s.index, w.release, w.deadline, w.b, at))
                })
                .collect();
            assert_eq!(&got, want, "task {id}, {cfg:?}");
            let quanta = fast.task(TaskId(id)).scheduled_count;
            assert_eq!(
                usize::try_from(quanta),
                Ok(want.len()),
                "task {id}, {cfg:?}"
            );
        }
    }
}

/// Up to ten tasks of any weight in `(0, 1]` with a denominator up to
/// 30, kept while their total stays within `m`.
fn arb_system() -> impl Strategy<Value = (u32, Vec<Spec>)> {
    let task = (1i128..=30, 0i128..30, 0i64..60, 0u8..3, 1i64..100).prop_map(
        |(den, num, join, leaves, stay)| Spec {
            num: num % den + 1,
            den,
            join,
            leave: (leaves == 0).then_some(join + stay),
        },
    );
    (1u32..=4, prop::collection::vec(task, 1..=10)).prop_map(|(m, tasks)| {
        let mut total = Rational::ZERO;
        let fits = |s: &Spec| {
            let sum = total + Rational::new(s.num, s.den);
            let fits = sum <= Rational::new(i128::from(m), 1);
            if fits {
                total = sum;
            }
            fits
        };
        (m, tasks.into_iter().filter(fits).collect())
    })
}

proptest! {
    #[test]
    fn engine_schedules_like_the_naive_pd2((m, specs) in arb_system()) {
        check_against_oracle(m, 150, &specs);
    }
}

/// `population`'s shape: 200 equal-period tasks joining at slot 0 make
/// every deadline's ready run 200 entries long, and periods above 512
/// put their runs beyond the ready queue's window. Two heavy tasks, late
/// joins and leaves ride along.
#[test]
fn population_shaped_system_matches() {
    let task = |num, den, join, leave| Spec {
        num,
        den,
        join,
        leave,
    };
    let mut specs = vec![task(1, 100, 0, None); 200];
    specs
        .iter_mut()
        .step_by(9)
        .for_each(|s| s.leave = Some(350));
    specs.extend((0..24).map(|i: i64| task(1 + i128::from(i % 2), 1_200, i, None)));
    specs.extend((0..8).map(|i| task(1, 540, 31 * i, None)));
    specs.extend([task(3, 4, 0, None), task(5, 7, 13, Some(700))]);
    specs.extend([task(1, 7, 250, None), task(2, 9, 401, Some(1_000))]);
    check_against_oracle(4, 1_300, &specs);
}
