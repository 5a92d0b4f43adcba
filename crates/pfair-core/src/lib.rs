//! # pfair-core
//!
//! Foundation types for Pfair multiprocessor scheduling with
//! fine-grained task reweighting, reproducing Block, Anderson & Bishop,
//! *Fine-Grained Task Reweighting on Multiprocessors* (UNC TR06-008; the
//! extended version of the IPPS/WPDRTS 2005 "Task Reweighting on
//! Multiprocessors: Efficiency versus Accuracy" line of work).
//!
//! This crate is deliberately scheduler-free: it provides the *task
//! model* and the *exact arithmetic* the schedulers in `pfair-sched`
//! build on:
//!
//! * [`rational`] — overflow-checked exact rationals (`i128`); every
//!   allocation, lag, and drift value in the workspace is one, and
//!   [`Units`] counts an era's allocations in checked `i64`.
//! * [`time`] — quanta/slots.
//! * [`weight`] — validated task weights in `(0, 1]` with 64-bit
//!   components, light (`≤ 1/2`) vs. heavy classification.
//! * [`task`] — task identities.
//! * [`window`] — subtask releases, deadlines, and b-bits for periodic,
//!   intra-sporadic (IS), and adaptable (AIS) tasks (paper Eqns (2)–(4)).
//! * [`ideal`] — the four ideal schedules (`I_IS`, `I_SW`, `I_CSW`,
//!   `I_PS`) as incremental per-slot trackers.
//! * [`lag`] — lag/LAG series against an ideal schedule.
//! * [`analysis`] — feasibility tests (condition (W)), hyperperiods,
//!   capacity arithmetic.
//! * [`drift`] — the per-reweighting-event allocation error (Eqn (5)).
//! * [`arena`] — dense-id occupancy bitmaps and inline small vectors for
//!   arena/SoA task storage.
//! * [`pool`] — the deterministic scoped-thread worker pool (input-order
//!   results, byte-identical across pool widths).
//!
//! ## Model summary
//!
//! Processor time comes in unit quanta; slot `t` is `[t, t+1)`. A task
//! `T` of weight `wt(T) = e/p ≤ 1/2` is divided into unit-length
//! subtasks `T_i` with windows `[r(T_i), d(T_i))`; the PD² scheduler
//! (in `pfair-sched`) schedules subtasks earliest-pseudo-deadline-first
//! with the b-bit as tie-break, and is optimal. The *adaptable* IS model
//! lets `wt(T, t)` vary with time: each *enacted* weight change opens a
//! new **era**, inside which windows are those of a fresh task with the
//! new weight (the `z = Id(T_j) − 1` shift in Eqns (2)–(4)).

#![cfg_attr(
    not(test),
    warn(
        clippy::as_conversions,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::panic
    )
)]

pub mod analysis;
pub mod arena;
pub mod drift;
pub mod ideal;
pub mod lag;
pub mod pool;
pub mod rational;
pub mod task;
pub mod time;
pub mod weight;
pub mod window;

pub use analysis::{classify, hyperperiod, is_feasible, total_weight, SetClass};
pub use arena::{IdBitmap, InlineVec};
pub use drift::{DriftSample, DriftTrack};
pub use ideal::{is_ideal_table, CompletionEvent, IswTracker, PsTracker, Trackers};
pub use rational::{rat, Accumulator, Rational, Units};
pub use task::TaskId;
pub use time::{Slot, NEVER};
pub use weight::{Weight, WeightRangeError};
pub use window::{
    b_bit, periodic_window, periodic_windows, window_in_era, window_len, SubtaskWindow,
};
