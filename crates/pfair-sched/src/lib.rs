//! # pfair-sched
//!
//! PD² Pfair multiprocessor scheduling with adaptive task reweighting:
//! the fine-grained PD²-OI rules (constant drift per weight change,
//! no deadline misses), the coarse-grained PD²-LJ leave/join rules, and
//! hybrid schemes trading the two — plus the baseline schedulers the
//! paper's lower-bound arguments use and EDF baselines from the
//! companion papers.
//!
//! The center of the crate is [`engine::Engine`]/[`engine::simulate`]:
//! a slot-by-slot simulation of an adaptable IS task system on `M`
//! processors, driven by a [`event::Workload`] of joins, leaves,
//! reweighting requests, and IS separations, producing a
//! [`trace::SimResult`] with exact (rational) drift, ideal-allocation,
//! and lag accounting. Everything a recorded run claims can be
//! re-checked from first principles by [`verify`], analyzed at the
//! system level by [`lag_analysis`], and rendered by [`render`] (ASCII)
//! or [`svg`]. [`workloads`] provides the synthetic generators the
//! benchmarks and stress tests share.
//!
//! ```
//! use pfair_sched::prelude::*;
//!
//! // Four processors: twenty weight-3/20 tasks, one of which jumps to
//! // weight 1/2 at time 10 under fine-grained PD²-OI reweighting.
//! let mut w = Workload::new();
//! for t in 0..20 {
//!     w.join(t, 0, 3, 20);
//! }
//! w.reweight(0, 10, 1, 2);
//! let result = simulate(SimConfig::oi(4, 100), &w);
//! assert!(result.is_miss_free());
//! assert!(result.max_abs_drift_delta() <= rat(2, 1));
//! ```

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

pub mod admission;
pub mod calendar;
pub mod edf;
pub mod engine;
pub mod epdf_ps;
pub mod event;
pub mod history;
pub mod lag_analysis;
mod occupancy;
pub mod overhead;
pub mod priority;
pub mod queue;
pub mod render;
pub mod reweight;
pub mod shard;
pub mod svg;
pub mod trace;
pub mod verify;
pub mod workloads;

/// The types most users need.
pub mod prelude {
    pub use crate::admission::AdmissionPolicy;
    pub use crate::engine::{simulate, simulate_with, Engine, SimConfig};
    pub use crate::event::{Event, EventKind, Workload};
    pub use crate::overhead::Counters;
    pub use crate::priority::TieBreak;
    pub use crate::reweight::{HybridPolicy, Scheme};
    pub use crate::shard::{ShardReport, ShardSet, ShardSpec};
    pub use crate::trace::{Miss, SimResult, TaskResult};
    pub use pfair_core::rational::{rat, Rational};
    pub use pfair_core::task::TaskId;
    pub use pfair_core::weight::Weight;
    pub use pfair_obs::{Fanout, MetricsProbe, NoopProbe, Probe, TraceRecorder};
}
