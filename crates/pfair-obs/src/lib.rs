//! # pfair-obs
//!
//! Structured tracing and exact-integer metrics for the PD² engine —
//! the observability layer behind the paper's efficiency-versus-
//! accuracy question. The aggregate `Counters` in `pfair-sched` can
//! say *how many* queue operations and halts a run cost; this crate
//! says *which reweighting event* caused each of them.
//!
//! One vocabulary, one tap, four readers:
//!
//! * [`event`] — [`ObsEvent`], the typed observation every probe
//!   reads, and its JSON codecs. A new kind of observation is a new
//!   variant plus an arm in whichever probe reads it.
//! * [`probe`] — [`Probe`], a statically dispatched tap the engine and
//!   executor are generic over: `on_event(ObsEvent)` plus the clock
//!   tick and the hook that lends a slot's release batch whole. The
//!   default [`NoopProbe`]
//!   compiles every hook to nothing (`benchmark/`'s
//!   `obs.metrics_probe_ratio` and `obs.trace_probe_ratio` price the
//!   real probes against it); [`Fanout`] runs two probes on one run.
//! * [`metrics`] — [`Registry`]/[`MetricsProbe`]: exact-integer
//!   counters and power-of-two-bucket histograms with deterministic
//!   text/JSON snapshots; no floats anywhere, so the crate sits inside
//!   `pfair-audit`'s strict lint scope.
//! * [`chrome`] — [`TraceRecorder`] keeps the event stream, attributes
//!   direct *and deferred* cost to each reweighting event
//!   ([`ReweightSpan`]), and exports Chrome trace-event JSON
//!   ([`TraceRecorder::chrome_trace`]) viewable in `chrome://tracing`
//!   or Perfetto.
//! * [`flight`] / [`slo`] — [`FlightRecorder`], a bounded ring of the
//!   latest events frozen into an incident on a miss or drift breach,
//!   and [`SloMonitor`], windowed miss / drift / reweight-latency
//!   watermarks with exact breach records.

pub mod chrome;
pub mod event;
pub mod flight;
pub mod metrics;
pub mod probe;
pub mod slo;

pub use chrome::{ReweightSpan, TraceRecorder};
pub use event::ObsEvent;
pub use flight::{FlightConfig, FlightIncident, FlightRecorder, FlightTrigger};
pub use metrics::{Histogram, MetricsProbe, Registry};
pub use probe::{Fanout, NoopProbe, Probe, ReleaseRec, ReweightCost, Rule};
pub use slo::{SloBreach, SloConfig, SloKind, SloMonitor};
