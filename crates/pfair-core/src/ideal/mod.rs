//! Ideal schedules: `I_IS`, `I_SW`, `I_CSW`, and `I_PS`.
//!
//! Fair-scheduling correctness is defined against *ideal* schedulers
//! that hand each task fractional processor time slot by slot. The paper
//! uses four of them:
//!
//! * **`I_IS`** — the ideal schedule of a (non-adaptive) intra-sporadic
//!   task system: each subtask receives its task's *fixed* weight in the
//!   interior of its window, with release/deadline slots adjusted so
//!   every subtask totals exactly one quantum (Fig. 2). Provided here by
//!   [`is_table::is_ideal_table`] as the constant-weight special case of
//!   the per-slot Fig. 5 reference.
//! * **`I_SW`** — like `I_IS` but for adaptable tasks: allocations track
//!   the *scheduling weight* (the last enacted weight), and a halted
//!   subtask accrues allocations until the moment it halts (Fig. 5).
//!   This is the schedule the reweighting rules consult — the completion
//!   time `D(I_SW, T_j)` decides when a weight change may be enacted and
//!   when the successor subtask is released. Implemented incrementally by
//!   [`isw::IswTracker`].
//! * **`I_CSW`** — the clairvoyant variant of `I_SW` that never allocates
//!   to a subtask that will halt; used for correctness and drift
//!   accounting. Obtained from the tracker by subtracting the recorded
//!   allocations of halted subtasks ([`isw::IswTracker::icsw_total`]).
//!   [`reference::IswReference`] reads both off Fig. 5 slot by slot over
//!   plain rationals, with the per-slot allocations a halt takes back:
//!   the check the tracker is held to, and what history runs record.
//! * **`I_PS`** — ideal processor sharing: each task continuously
//!   receives its *actual* weight `wt(T, t)`, with weight changes taking
//!   effect the instant they are *initiated*. The yardstick for drift.
//!   Implemented by [`ps::PsTracker`].
//!
//! A task that has held one weight since it joined, with no halt, IS
//! delay or departure, gets exactly its weight in every slot under all
//! of them, and so does a task whose current era has settled — nothing
//! of an earlier era retained, no suspension ahead — so the engine
//! keeps no trackers for either: [`Trackers`] is the pair a task holds
//! while its era has not settled, and [`Trackers::closed`] builds the
//! pair the others would hold from the few [`Bases`] they keep.

pub mod is_table;
pub mod isw;
pub mod ps;
pub mod reference;
pub mod trackers;

pub use is_table::is_ideal_table;
pub use isw::{CompletionEvent, IswTracker};
pub use ps::PsTracker;
pub use reference::{IswReference, RefSub};
pub use trackers::{Bases, Trackers};
