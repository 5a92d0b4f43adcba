//! The [`Probe`] trait: the engine's structured-event tap.
//!
//! The engine is generic over a probe (`Engine<P: Probe = NoopProbe>`),
//! so every hook below is resolved by **static dispatch**. With the
//! default [`NoopProbe`] each call monomorphizes to an empty inlined
//! body and the compiled hot path is that of a probe-free engine: it is
//! the baseline `benchmark/`'s `obs.metrics_probe_ratio` and
//! `obs.trace_probe_ratio` divide the probed runs by.
//!
//! Observations are [`ObsEvent`] values through one hook,
//! [`Probe::on_event`], emitted at the slot-pipeline boundaries the
//! paper's rules are stated at: subtask releases/schedules/preemptions,
//! rule-O halts, reweight initiation/enactment, and the closed-form
//! `advance_to` tracker jumps of the event-driven bookkeeping. Stale
//! queue-entry discards ([`ObsEvent::StalePop`],
//! [`ObsEvent::StaleDrop`]) are reported individually so a recorder
//! can attribute the *deferred* queue cost of a reweighting event (the
//! entries its halts stranded) back to that event — the per-operation
//! cost accounting the aggregate [`Counters`]
//! (`pfair_sched::overhead::Counters`) cannot express.

use crate::event::ObsEvent;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_json::{obj, Json, ToJson};

/// Which reweighting rule resolved an initiation (the paper's rules O
/// and I, the leave/join pair L+J, or the trivial immediate enactment
/// when no subtask of the task has been released yet).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Rule O (omission-changeable): the last-released subtask was not
    /// yet scheduled; it is halted and the change waits on the
    /// predecessor's `I_SW` completion.
    O,
    /// Rule I (ideal-changeable): the last-released subtask was already
    /// scheduled; the change waits on its `I_SW` completion (increases
    /// switch the scheduling weight immediately).
    I,
    /// Leave/join (rules L+J): unscheduled subtasks are withdrawn and
    /// the task rejoins after rule L's exit delay.
    Lj,
    /// No subtask released yet: the new weight takes effect at once.
    Immediate,
}

impl Rule {
    /// Canonical short label (`"O"`, `"I"`, `"LJ"`, `"immediate"`).
    pub fn label(self) -> &'static str {
        match self {
            Rule::O => "O",
            Rule::I => "I",
            Rule::Lj => "LJ",
            Rule::Immediate => "immediate",
        }
    }

    /// Inverse of [`Rule::label`].
    pub fn from_label(s: &str) -> Option<Rule> {
        match s {
            "O" => Some(Rule::O),
            "I" => Some(Rule::I),
            "LJ" => Some(Rule::Lj),
            "immediate" => Some(Rule::Immediate),
            _ => None,
        }
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cost measured while a reweighting initiation's rules ran: the
/// *direct* cost, charged at initiation time. Deferred cost (stale
/// queue entries stranded by the halts, the era-opening release push)
/// arrives as [`ObsEvent::StalePop`]/[`ObsEvent::StaleDrop`] and
/// [`ObsEvent::Release`] and is attributed by recorders.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReweightCost {
    /// Ready-queue pushes + pops performed while the rules ran.
    pub queue_ops: u64,
    /// Subtasks halted by the rules (rule O halts one; LJ withdraws
    /// every unscheduled subtask).
    pub halts: u64,
}

/// One subtask release, as carried by [`Probe::on_release_batch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReleaseRec {
    /// Task released.
    pub task: TaskId,
    /// Subtask index.
    pub index: u64,
    /// Subtask deadline.
    pub deadline: Slot,
    /// Whether this release opens an era (where Eqn (5) samples drift).
    pub era_first: bool,
}

/// Per-task slice of a [`SpanDigest`]: what one task did over one
/// verified period of a busy span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskSpanDelta {
    /// The task.
    pub task: TaskId,
    /// Subtask releases per period (= index advance per period).
    pub releases: u64,
    /// Scheduled quanta per period.
    pub schedules: u64,
}

/// The exact-integer aggregate of **one verified period** of a busy
/// span — the per-period deltas `verify_and_apply` computed while
/// proving `F^P(A) = Φ(A)` bit-for-bit against the per-slot oracle.
///
/// A digest is a *proof-carrying summary*: because the verifier
/// compared a full simulated period against the closed-form translation
/// before jumping, every count below is what a per-slot run would have
/// produced over each of the `periods` skipped repetitions — exactly,
/// not sampled. Halts and reweight activity are always zero inside a
/// verified span (any of them voids the periodicity check), so their
/// absence is itself part of what the digest proves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanDigest {
    /// Period length `P` in slots.
    pub period: Slot,
    /// Ready-queue pushes per period.
    pub queue_pushes: u64,
    /// Ready-queue pops per period (stale pops included).
    pub queue_pops: u64,
    /// Stale entries discarded by pops per period.
    pub stale_pops: u64,
    /// Stale entries dropped by compaction per period.
    pub stale_drops: u64,
    /// Preemptions per period.
    pub preemptions: u64,
    /// Halts per period — always 0 in a verified span (a halt voids
    /// the periodicity check); carried so the digest states the proof.
    pub halts: u64,
    /// Scheduled quanta per period.
    pub scheduled_quanta: u64,
    /// Idle processor-slots per period.
    pub holes: u64,
    /// Migrations per period.
    pub migrations: u64,
    /// Per-task release/schedule counts per period (tasks with no
    /// activity in the period are omitted).
    pub per_task: Vec<TaskSpanDelta>,
}

impl SpanDigest {
    /// Total subtask releases per period.
    pub fn releases_total(&self) -> u64 {
        self.per_task
            .iter()
            .fold(0u64, |acc, d| acc.saturating_add(d.releases))
    }

    /// Total scheduled quanta per period (per-task view; equals
    /// [`SpanDigest::scheduled_quanta`]).
    pub fn schedules_total(&self) -> u64 {
        self.per_task
            .iter()
            .fold(0u64, |acc, d| acc.saturating_add(d.schedules))
    }
}

impl ToJson for SpanDigest {
    fn to_json(&self) -> Json {
        let per_task: Vec<Json> = self
            .per_task
            .iter()
            .map(|d| {
                obj([
                    ("task", d.task.to_json()),
                    ("releases", Json::Int(i128::from(d.releases))),
                    ("schedules", Json::Int(i128::from(d.schedules))),
                ])
            })
            .collect();
        obj([
            ("period", Json::Int(i128::from(self.period))),
            ("queue_pushes", Json::Int(i128::from(self.queue_pushes))),
            ("queue_pops", Json::Int(i128::from(self.queue_pops))),
            ("stale_pops", Json::Int(i128::from(self.stale_pops))),
            ("stale_drops", Json::Int(i128::from(self.stale_drops))),
            ("preemptions", Json::Int(i128::from(self.preemptions))),
            ("halts", Json::Int(i128::from(self.halts))),
            (
                "scheduled_quanta",
                Json::Int(i128::from(self.scheduled_quanta)),
            ),
            ("holes", Json::Int(i128::from(self.holes))),
            ("migrations", Json::Int(i128::from(self.migrations))),
            ("per_task", Json::Array(per_task)),
        ])
    }
}

/// Structured-event tap for the engine and executor. Every method has
/// a default body, so an implementation overrides only what it
/// observes and the rest compiles away.
///
/// [`Probe::on_event`] carries everything that is one fact about one
/// task (and the quiet-span summary) as an [`ObsEvent`] by value. The
/// other four hooks are the clock tick and the calls that lend the
/// probe an aggregate it may want whole: a slot's release batch, and
/// the arm / jump pair of a verified busy span.
///
/// # Spans
///
/// The engine advances whole *spans* in closed form, whatever probe is
/// attached. A quiet span `[from, to)` (empty ready queue) arrives as
/// one [`ObsEvent::QuietSpan`] in place of `to − from` slot starts, so
/// a probe that counts slots adds the width. A verified busy span
/// arrives as [`Probe::on_span_armed`] at `t0`, the per-slot stream of
/// exactly one period, then [`Probe::on_busy_span_jump`] standing for
/// `periods` further repetitions of that stream shifted in time: a
/// probe whose output must equal a per-slot run's snapshots its state
/// at the arming and scales what it accumulated since by `periods` at
/// the jump (what [`MetricsProbe`] does); a recorder keeps the one
/// summary event the default pushes.
///
/// [`MetricsProbe`]: crate::metrics::MetricsProbe
pub trait Probe {
    /// `true` only for probes statically known to observe nothing
    /// ([`NoopProbe`], and a [`Fanout`] of two such): the engine then
    /// skips building aggregates only a probe would read.
    const IS_NOOP: bool = false;

    /// One observation (see [`ObsEvent`] for what each variant states
    /// and when it fires). Releases reach this hook through
    /// [`Probe::on_release_batch`]'s default, busy-span summaries
    /// through [`Probe::on_busy_span_jump`]'s.
    fn on_event(&mut self, ev: ObsEvent) {
        let _ = ev;
    }

    /// Slot `t` is about to be simulated. Slots inside a quiet span or
    /// a busy-span jump are covered by those events instead.
    fn on_slot_start(&mut self, t: Slot) {
        let _ = t;
    }

    /// All subtask releases of slot `t`, in task order. The default
    /// hands each to [`Probe::on_event`] as an [`ObsEvent::Release`].
    fn on_release_batch(&mut self, t: Slot, releases: &[ReleaseRec]) {
        for r in releases {
            self.on_event(ObsEvent::Release {
                task: r.task,
                index: r.index,
                t,
                deadline: r.deadline,
                era_first: r.era_first,
            });
        }
    }

    /// The busy-span batcher armed a verification window at `t0`: the
    /// next `on_busy_span_jump` carrying this `t0` (if verification
    /// succeeds; a later arming replaces this one otherwise) stands for
    /// repetitions of everything observed since this instant.
    fn on_span_armed(&mut self, t0: Slot) {
        let _ = t0;
    }

    /// The busy-span batcher verified one period starting at `t0`
    /// against the per-slot oracle and jumped `periods` further
    /// repetitions in closed form, skipping slots `[t1, t1 +
    /// periods·digest.period)`. `digest` is the exact per-period
    /// aggregate computed during verification; the default hands its
    /// summary to [`Probe::on_event`] as an [`ObsEvent::BusySpanJump`].
    /// Verified spans hold no miss, halt, reweight or era opening.
    fn on_busy_span_jump(&mut self, t0: Slot, t1: Slot, periods: u64, digest: &SpanDigest) {
        self.on_event(ObsEvent::BusySpanJump {
            t0,
            t1,
            periods,
            period: digest.period,
            releases: digest.releases_total(),
            schedules: digest.scheduled_quanta,
            queue_ops: digest.queue_pushes.saturating_add(digest.queue_pops),
        });
    }
}

/// The default probe: observes nothing, costs nothing. Every hook
/// inlines to an empty body under static dispatch, so
/// `Engine<NoopProbe>` compiles to the same hot path as an engine with
/// no probe parameter at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const IS_NOOP: bool = true;

    // Empty bodies in place of the event-building defaults, so a batch
    // or a jump is O(1) here whatever the optimizer makes of a loop
    // around an empty `on_event`.
    fn on_release_batch(&mut self, _t: Slot, _releases: &[ReleaseRec]) {}
    fn on_busy_span_jump(&mut self, _t0: Slot, _t1: Slot, _periods: u64, _digest: &SpanDigest) {}
}

/// Fans every hook out to two probes (e.g. a [`TraceRecorder`] and a
/// [`MetricsProbe`] on the same run). Compose freely:
/// `Fanout(a, Fanout(b, c))`.
///
/// [`TraceRecorder`]: crate::chrome::TraceRecorder
/// [`MetricsProbe`]: crate::metrics::MetricsProbe
#[derive(Clone, Copy, Debug, Default)]
pub struct Fanout<A, B>(pub A, pub B);

impl<A: Probe, B: Probe> Probe for Fanout<A, B> {
    const IS_NOOP: bool = A::IS_NOOP && B::IS_NOOP;

    fn on_event(&mut self, ev: ObsEvent) {
        self.0.on_event(ev);
        self.1.on_event(ev);
    }

    fn on_slot_start(&mut self, t: Slot) {
        self.0.on_slot_start(t);
        self.1.on_slot_start(t);
    }

    fn on_release_batch(&mut self, t: Slot, releases: &[ReleaseRec]) {
        self.0.on_release_batch(t, releases);
        self.1.on_release_batch(t, releases);
    }

    fn on_span_armed(&mut self, t0: Slot) {
        self.0.on_span_armed(t0);
        self.1.on_span_armed(t0);
    }

    fn on_busy_span_jump(&mut self, t0: Slot, t1: Slot, periods: u64, digest: &SpanDigest) {
        self.0.on_busy_span_jump(t0, t1, periods, digest);
        self.1.on_busy_span_jump(t0, t1, periods, digest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_labels_round_trip() {
        for r in [Rule::O, Rule::I, Rule::Lj, Rule::Immediate] {
            assert_eq!(Rule::from_label(r.label()), Some(r));
        }
        assert_eq!(Rule::from_label("nonsense"), None);
    }

    #[test]
    fn span_digest_totals_and_json_shape() {
        let digest = SpanDigest {
            period: 12,
            queue_pushes: 7,
            queue_pops: 7,
            scheduled_quanta: 9,
            per_task: vec![
                TaskSpanDelta {
                    task: TaskId(0),
                    releases: 3,
                    schedules: 4,
                },
                TaskSpanDelta {
                    task: TaskId(1),
                    releases: 2,
                    schedules: 5,
                },
            ],
            ..SpanDigest::default()
        };
        assert_eq!(digest.releases_total(), 5);
        assert_eq!(digest.schedules_total(), 9);
        let json = digest.to_json();
        assert_eq!(json.get("period").and_then(Json::as_int), Some(12));
        let Some(Json::Array(per_task)) = json.get("per_task") else {
            panic!("per_task missing");
        };
        assert_eq!(per_task.len(), 2);
        assert_eq!(per_task[0].get("releases").and_then(Json::as_int), Some(3));
    }

    /// `Fanout` hands both sides the same stream (the `NoopProbe` in
    /// the middle takes every hook), and the two event-building
    /// defaults hold: a batch is one `Release` per record, a jump is
    /// the digest's summary.
    #[test]
    fn fanout_forwards_to_both() {
        #[derive(Debug, Default, PartialEq)]
        struct Log {
            events: Vec<ObsEvent>,
            slots: Vec<Slot>,
        }
        impl Probe for Log {
            fn on_event(&mut self, ev: ObsEvent) {
                self.events.push(ev);
            }
            fn on_slot_start(&mut self, t: Slot) {
                self.slots.push(t);
            }
        }
        const {
            assert!(NoopProbe::IS_NOOP && <Fanout<NoopProbe, NoopProbe>>::IS_NOOP);
            assert!(!Log::IS_NOOP && !<Fanout<Log, NoopProbe>>::IS_NOOP);
        }
        let mut f = Fanout(Log::default(), Fanout(NoopProbe, Log::default()));
        f.on_slot_start(7);
        f.on_release_batch(
            7,
            &[ReleaseRec {
                task: TaskId(1),
                index: 4,
                deadline: 11,
                era_first: true,
            }],
        );
        f.on_event(ObsEvent::Halt {
            task: TaskId(1),
            index: 4,
            t: 8,
        });
        f.on_span_armed(9);
        let digest = SpanDigest {
            period: 3,
            queue_pushes: 2,
            queue_pops: 2,
            scheduled_quanta: 5,
            ..SpanDigest::default()
        };
        f.on_busy_span_jump(9, 12, 6, &digest);
        assert_eq!(f.0.slots, vec![7]);
        assert_eq!(
            f.0.events,
            vec![
                ObsEvent::Release {
                    task: TaskId(1),
                    index: 4,
                    t: 7,
                    deadline: 11,
                    era_first: true,
                },
                ObsEvent::Halt {
                    task: TaskId(1),
                    index: 4,
                    t: 8,
                },
                ObsEvent::BusySpanJump {
                    t0: 9,
                    t1: 12,
                    periods: 6,
                    period: 3,
                    releases: 0,
                    schedules: 5,
                    queue_ops: 4,
                },
            ]
        );
        assert_eq!(f.0, f.1 .1);
    }
}
