//! Random AIS scripts for the equivalence suites: the tickless suite
//! here and the recovery suite in `pfair-persist`, which includes this
//! file with `#[path]`. A [`Plan`] is processors plus per-task joins,
//! reweights, an IS delay and a leave; [`workload_of`] turns it into a
//! [`Workload`].

use pfair_sched::event::Workload;
use proptest::prelude::*;

/// Horizon of the random scripts.
pub const HORIZON: i64 = 160;

/// Light weights with small denominators keep windows short (dense,
/// batching rarely engages); large denominators open long windows
/// (sparse, batching dominates). Mix both.
fn arb_weight() -> impl Strategy<Value = (i128, i128)> {
    (2i128..=60).prop_flat_map(|den| (1i128..=(den / 2).max(1), Just(den)))
}

/// One task's script. Events at or before the join are dropped.
#[derive(Debug, Clone)]
pub struct TaskPlan {
    /// Join weight as `(num, den)`.
    pub join_weight: (i128, i128),
    /// Join slot.
    pub join_at: i64,
    /// Reweights as `(slot, (num, den))`.
    pub reweights: Vec<(i64, (i128, i128))>,
    /// An IS delay as `(slot, slots)`.
    pub delay: Option<(i64, u32)>,
    /// Leave slot.
    pub leave_at: Option<i64>,
}

/// A task system's script.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Processor count.
    pub processors: u32,
    /// Tasks, by id.
    pub tasks: Vec<TaskPlan>,
}

/// One to four processors, one to eight tasks, each with up to three
/// reweights and, one time in three each, a delay and a leave.
pub fn arb_plan() -> impl Strategy<Value = Plan> {
    // Delays up to 600 slots push releases past the 512-slot calendar
    // window: the overflow list, ring rotation, and the snapshot's copy
    // of both.
    let delay = (0u32..=2, 1i64..HORIZON - 20, 1u32..600)
        .prop_map(|(on, at, by)| (on == 0).then_some((at, by)));
    let leave = (0u32..=2, 40i64..HORIZON - 5).prop_map(|(on, at)| (on == 0).then_some(at));
    let task = (
        arb_weight(),
        0i64..=30,
        prop::collection::vec(((1i64..HORIZON - 10), arb_weight()), 0..=3),
        delay,
        leave,
    )
        .prop_map(
            |(join_weight, join_at, reweights, delay, leave_at)| TaskPlan {
                join_weight,
                join_at,
                reweights,
                delay,
                leave_at,
            },
        );
    (1u32..=4, prop::collection::vec(task, 1..=8))
        .prop_map(|(processors, tasks)| Plan { processors, tasks })
}

/// The plan's event stream.
pub fn workload_of(plan: &Plan) -> Workload {
    let mut w = Workload::new();
    for (i, t) in plan.tasks.iter().enumerate() {
        let id = u32::try_from(i).unwrap_or(0);
        w.join(id, t.join_at, t.join_weight.0, t.join_weight.1);
        for (at, wt) in &t.reweights {
            if *at > t.join_at {
                w.reweight(id, *at, wt.0, wt.1);
            }
        }
        if let Some((at, by)) = t.delay {
            if at > t.join_at {
                w.delay(id, at, by);
            }
        }
        if let Some(at) = t.leave_at {
            if at > t.join_at {
                w.leave(id, at);
            }
        }
    }
    w
}
