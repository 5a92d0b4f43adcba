//! # pfair-obs
//!
//! Structured tracing and exact-integer metrics for the PD² engine —
//! the observability layer behind the paper's efficiency-versus-
//! accuracy question. The aggregate `Counters` in `pfair-sched` can
//! say *how many* queue operations and halts a run cost; this crate
//! says *which reweighting event* caused each of them.
//!
//! Three pieces:
//!
//! * [`Probe`] — a statically dispatched event tap the engine and
//!   executor are generic over. The default [`NoopProbe`] compiles
//!   every hook to nothing (`benchmark/`'s `obs.metrics_probe_ratio`
//!   and `obs.trace_probe_ratio` price the real probes against it).
//! * [`Registry`]/[`MetricsProbe`] — exact-integer counters and
//!   power-of-two-bucket histograms with deterministic text/JSON
//!   snapshots; no floats anywhere, so the crate sits inside
//!   `pfair-audit`'s strict lint scope.
//! * [`TraceRecorder`] — records the typed event stream, attributes
//!   direct *and deferred* cost to each reweighting event
//!   ([`ReweightSpan`]), and exports Chrome trace-event JSON
//!   ([`TraceRecorder::chrome_trace`]) viewable in `chrome://tracing`
//!   or Perfetto.
//!
//! Combine probes with [`Fanout`] to record a trace and aggregate
//! metrics in the same run.

#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod chrome;
pub mod flight;
pub mod metrics;
pub mod probe;
pub mod slo;

pub use chrome::{ObsEvent, ReweightSpan, TraceRecorder};
pub use flight::{FlightConfig, FlightIncident, FlightRecorder, FlightTrigger};
pub use metrics::{Histogram, MetricsProbe, Registry};
pub use probe::{
    Fanout, NoopProbe, Probe, ReleaseRec, ReweightCost, Rule, SpanDigest, TaskSpanDelta,
};
pub use slo::{SloBreach, SloConfig, SloKind, SloMonitor};
