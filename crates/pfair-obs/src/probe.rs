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
//! cost accounting the aggregate `pfair_sched::overhead::Counters`
//! cannot express.

use crate::event::ObsEvent;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;

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

/// Structured-event tap for the engine and executor. Every method has
/// a default body, so an implementation overrides only what it
/// observes and the rest compiles away.
///
/// [`Probe::on_event`] carries every observation as an [`ObsEvent`] by
/// value. The other two hooks are the clock tick and the one call that
/// lends the probe a borrowed aggregate it may want whole: a slot's
/// release batch.
///
/// # Spans
///
/// The engine advances whole *spans* in closed form, whatever probe is
/// attached. A quiet span `[from, to)` (empty ready queue) arrives as
/// one [`ObsEvent::QuietSpan`] in place of `to − from` slot starts, so
/// a probe that counts slots adds the width. A verified busy span
/// arrives as [`ObsEvent::SpanArmed`] at `t0`, the per-slot stream of
/// exactly one period, then [`ObsEvent::BusySpanJump`] standing for
/// `periods` further repetitions of that stream shifted in time: a
/// probe whose output must equal a per-slot run's snapshots its state
/// at the arming and scales what it accumulated since by `periods` at
/// the jump (what [`MetricsProbe`] does); a recorder keeps both events
/// like any other.
///
/// [`MetricsProbe`]: crate::metrics::MetricsProbe
pub trait Probe {
    /// `true` only for probes statically known to observe nothing
    /// ([`NoopProbe`], and a [`Fanout`] of two such): the engine then
    /// skips building aggregates only a probe would read.
    const IS_NOOP: bool = false;

    /// One observation (see [`ObsEvent`] for what each variant states
    /// and when it fires). Releases reach this hook through
    /// [`Probe::on_release_batch`]'s default.
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
}

/// The default probe: observes nothing, costs nothing. Every hook
/// inlines to an empty body under static dispatch, so
/// `Engine<NoopProbe>` compiles to the same hot path as an engine with
/// no probe parameter at all.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    const IS_NOOP: bool = true;

    // An empty body in place of the event-building default, so a batch
    // is O(1) here whatever the optimizer makes of a loop around an
    // empty `on_event`.
    fn on_release_batch(&mut self, _t: Slot, _releases: &[ReleaseRec]) {}
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

    /// `Fanout` hands both sides the same stream (the `NoopProbe` in
    /// the middle takes every hook), and the event-building default
    /// holds: a batch is one `Release` per record.
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
            ]
        );
        assert_eq!(f.0, f.1 .1);
    }
}
