//! The [`Probe`] trait: the engine's structured-event tap.
//!
//! The engine is generic over a probe (`Engine<P: Probe = NoopProbe>`),
//! so every hook below is resolved by **static dispatch**. With the
//! default [`NoopProbe`] each call monomorphizes to an empty inlined
//! body and the compiled hot path is that of a probe-free engine: it is
//! the baseline `benchmark/`'s `obs.metrics_probe_ratio` and
//! `obs.trace_probe_ratio` divide the probed runs by.
//!
//! Hooks fire at the same slot-pipeline boundaries the paper's rules
//! are stated at: slot starts, subtask releases/schedules/preemptions,
//! rule-O halts, reweight initiation/enactment, and the closed-form
//! `advance_to` tracker jumps of the event-driven bookkeeping. Stale
//! queue-entry discards ([`Probe::on_stale_pop`],
//! [`Probe::on_stale_drop`]) are reported individually so a recorder
//! can attribute the *deferred* queue cost of a reweighting event (the
//! entries its halts stranded) back to that event — the per-operation
//! cost accounting the aggregate [`Counters`]
//! (`pfair_sched::overhead::Counters`) cannot express.

use pfair_core::rational::Rational;
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
/// arrives through [`Probe::on_stale_pop`]/[`Probe::on_stale_drop`]
/// and [`Probe::on_release`] and is attributed by recorders.
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
/// an empty default body, so an implementation overrides only what it
/// observes and the rest compiles away.
///
/// # Span events
///
/// The tickless engine advances whole *spans* in closed form: quiet
/// spans (empty ready queue) and verified busy spans (periodic steady
/// state, PR 8). A probe that sets [`Probe::SPAN_AWARE`] receives those
/// spans as single aggregate events ([`Probe::on_quiet_span`],
/// [`Probe::on_release_batch`], [`Probe::on_busy_span_jump`]) and the
/// engine keeps its closed-form speedups; a legacy probe (the default,
/// `SPAN_AWARE = false`) forces the engine back to per-slot stepping
/// through busy regions and receives a per-slot replay for quiet
/// spans, so its observed event stream stays bit-identical.
pub trait Probe {
    /// `true` only for probes that are statically known to observe
    /// nothing (the [`NoopProbe`]). Diagnostic only — the busy-span
    /// batching predicate is [`Probe::SPAN_AWARE`], which the noop
    /// probe also sets. Any probe that records events must leave this
    /// `false` (the default).
    const IS_NOOP: bool = false;

    /// `true` for probes that consume span-level aggregate events
    /// ([`Probe::on_quiet_span`], [`Probe::on_release_batch`],
    /// [`Probe::on_busy_span_jump`], [`Probe::on_span_armed`]) instead
    /// of requiring a per-slot hook stream. The engine's busy-span
    /// batcher engages only when this is `true`: a closed-form jump
    /// emits one digest-carrying hook instead of O(period·k) per-slot
    /// calls, so the probe must be able to reconstruct (or aggregate)
    /// its state from the digest. Setting this `true` is a promise
    /// that the probe's externally observable output is identical
    /// whether the engine stepped per-slot or jumped — [`MetricsProbe`]
    /// keeps it exact by snapshotting at [`Probe::on_span_armed`] and
    /// scaling its own verified-period delta.
    ///
    /// [`MetricsProbe`]: crate::metrics::MetricsProbe
    const SPAN_AWARE: bool = false;

    /// Slot `t` is about to be simulated.
    fn on_slot_start(&mut self, t: Slot) {
        let _ = t;
    }

    /// Subtask `index` of `task` was released at `t` with the given
    /// deadline; `era_first` marks an era-opening release (a join,
    /// enactment, or rejoin — where Eqn (5) samples drift).
    fn on_release(&mut self, task: TaskId, index: u64, t: Slot, deadline: Slot, era_first: bool) {
        let _ = (task, index, t, deadline, era_first);
    }

    /// Subtask `index` of `task` was scheduled in slot `t`.
    fn on_schedule(&mut self, task: TaskId, index: u64, t: Slot) {
        let _ = (task, index, t);
    }

    /// `task` ran in slot `t − 1`, still has released unscheduled work,
    /// and was not selected in slot `t`.
    fn on_preempt(&mut self, task: TaskId, t: Slot) {
        let _ = (task, t);
    }

    /// Subtask `index` of `task` was halted at `t` (rule O, or a
    /// leave/LJ withdrawal).
    fn on_halt(&mut self, task: TaskId, index: u64, t: Slot) {
        let _ = (task, index, t);
    }

    /// A stale (halted/withdrawn) queue entry for subtask `index` of
    /// `task` was discarded by a pop in slot `t` — deferred queue cost
    /// of whatever halted it.
    fn on_stale_pop(&mut self, task: TaskId, index: u64, t: Slot) {
        let _ = (task, index, t);
    }

    /// A stale queue entry was dropped by a compaction sweep in slot
    /// `t` (it never reached a pop).
    fn on_stale_drop(&mut self, task: TaskId, index: u64, t: Slot) {
        let _ = (task, index, t);
    }

    /// A reweighting request for `task` was granted at `t` and resolved
    /// by `rule` at direct cost `cost`; the change is projected to be
    /// enacted at `enact_at` (`== t` when it fired immediately — an
    /// [`Probe::on_reweight_enacted`] call follows in that case).
    fn on_reweight_initiated(
        &mut self,
        task: TaskId,
        t: Slot,
        rule: Rule,
        cost: ReweightCost,
        enact_at: Slot,
    ) {
        let _ = (task, t, rule, cost, enact_at);
    }

    /// The change initiated at `initiated_at` for `task` was enacted at
    /// `t`: the scheduling weight switched (or, for a rule-I increase,
    /// the era-opening release was finally scheduled) and the
    /// reweighting event is complete.
    fn on_reweight_enacted(&mut self, task: TaskId, t: Slot, initiated_at: Slot) {
        let _ = (task, t, initiated_at);
    }

    /// The event-driven bookkeeping jumped `task`'s ideal trackers from
    /// boundary `from` to `to` in closed form (interval width
    /// `to − from`). Never fires in history mode, where the per-slot
    /// oracle keeps the trackers current.
    fn on_tracker_advance(&mut self, task: TaskId, from: Slot, to: Slot) {
        let _ = (task, from, to);
    }

    /// The tickless engine skipped the quiet span `[from, to)` in
    /// closed form (empty ready queue; `holes` idle processor-slots).
    /// The default replays [`Probe::on_slot_start`] once per skipped
    /// slot, so legacy probes observe a bit-identical stream;
    /// span-aware probes override this with an O(1) aggregate.
    fn on_quiet_span(&mut self, from: Slot, to: Slot, holes: u64) {
        let _ = holes;
        for s in from..to {
            self.on_slot_start(s);
        }
    }

    /// All subtask releases of one slot `t`, as a single batch. Only
    /// emitted to span-aware probes (legacy probes keep receiving
    /// per-release [`Probe::on_release`] calls); the default replays
    /// `on_release` per record, preserving the legacy stream.
    fn on_release_batch(&mut self, t: Slot, releases: &[ReleaseRec]) {
        for r in releases {
            self.on_release(r.task, r.index, t, r.deadline, r.era_first);
        }
    }

    /// The busy-span batcher armed a verification window at `t0`: the
    /// next `on_busy_span_jump` (if verification succeeds) covers
    /// everything observed since this instant. A span-aware probe
    /// snapshots whatever state it needs here so it can later scale
    /// its own verified-period delta exactly.
    fn on_span_armed(&mut self, t0: Slot) {
        let _ = t0;
    }

    /// The busy-span batcher verified one period starting at `t0`
    /// against the per-slot oracle and jumped `periods` further
    /// repetitions in closed form, skipping slots `[t1, t1 +
    /// periods·digest.period)`. `digest` is the exact per-period
    /// aggregate computed during verification. The default replays
    /// [`Probe::on_slot_start`] over the skipped slots — per-task
    /// events cannot be replayed from an aggregate, so probes that
    /// need them must either stay `SPAN_AWARE = false` or aggregate
    /// from the digest.
    fn on_busy_span_jump(&mut self, t0: Slot, t1: Slot, periods: u64, digest: &SpanDigest) {
        let _ = t0;
        let width = i64::try_from(periods)
            .ok()
            .and_then(|k| k.checked_mul(digest.period));
        let end = width.and_then(|w| t1.checked_add(w)).unwrap_or(t1);
        for s in t1..end {
            self.on_slot_start(s);
        }
    }

    /// Subtask `index` of `task` missed its `deadline`, detected at
    /// the end of slot `t`. Verified busy spans are miss-free by
    /// construction, so this hook never fires inside a jump.
    fn on_miss(&mut self, task: TaskId, index: u64, t: Slot, deadline: Slot) {
        let _ = (task, index, t, deadline);
    }

    /// Eqn (5) sampled `task`'s drift (`ps_total − icsw_total`) at an
    /// era-opening release in slot `t`. Era openings void busy-span
    /// verification, so this hook never fires inside a jump either.
    fn on_drift_sample(&mut self, task: TaskId, t: Slot, drift: Rational) {
        let _ = (task, t, drift);
    }

    /// Executor only: `task`'s tick ran past its quantum budget.
    fn on_exec_overrun(&mut self, task: TaskId, t: Slot) {
        let _ = (task, t);
    }

    /// Executor only: a scheduled quantum of `task` was lost because
    /// its previous tick was still running.
    fn on_exec_skip(&mut self, task: TaskId, t: Slot) {
        let _ = (task, t);
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
    /// Trivially span-aware: a probe that observes nothing observes
    /// nothing over a span too, so every closed-form fast path stays
    /// engaged.
    const SPAN_AWARE: bool = true;

    // Override the replay defaults with empty bodies so a span is
    // guaranteed O(1) under the noop probe, independent of how well
    // the optimizer eliminates an empty-bodied replay loop.
    fn on_quiet_span(&mut self, _from: Slot, _to: Slot, _holes: u64) {}
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
    /// Span-aware only when both sides are: one legacy member forces
    /// per-slot stepping for the whole fanout, keeping every member's
    /// stream bit-identical.
    const SPAN_AWARE: bool = A::SPAN_AWARE && B::SPAN_AWARE;

    fn on_slot_start(&mut self, t: Slot) {
        self.0.on_slot_start(t);
        self.1.on_slot_start(t);
    }

    fn on_release(&mut self, task: TaskId, index: u64, t: Slot, deadline: Slot, era_first: bool) {
        self.0.on_release(task, index, t, deadline, era_first);
        self.1.on_release(task, index, t, deadline, era_first);
    }

    fn on_schedule(&mut self, task: TaskId, index: u64, t: Slot) {
        self.0.on_schedule(task, index, t);
        self.1.on_schedule(task, index, t);
    }

    fn on_preempt(&mut self, task: TaskId, t: Slot) {
        self.0.on_preempt(task, t);
        self.1.on_preempt(task, t);
    }

    fn on_halt(&mut self, task: TaskId, index: u64, t: Slot) {
        self.0.on_halt(task, index, t);
        self.1.on_halt(task, index, t);
    }

    fn on_stale_pop(&mut self, task: TaskId, index: u64, t: Slot) {
        self.0.on_stale_pop(task, index, t);
        self.1.on_stale_pop(task, index, t);
    }

    fn on_stale_drop(&mut self, task: TaskId, index: u64, t: Slot) {
        self.0.on_stale_drop(task, index, t);
        self.1.on_stale_drop(task, index, t);
    }

    fn on_reweight_initiated(
        &mut self,
        task: TaskId,
        t: Slot,
        rule: Rule,
        cost: ReweightCost,
        enact_at: Slot,
    ) {
        self.0.on_reweight_initiated(task, t, rule, cost, enact_at);
        self.1.on_reweight_initiated(task, t, rule, cost, enact_at);
    }

    fn on_reweight_enacted(&mut self, task: TaskId, t: Slot, initiated_at: Slot) {
        self.0.on_reweight_enacted(task, t, initiated_at);
        self.1.on_reweight_enacted(task, t, initiated_at);
    }

    fn on_tracker_advance(&mut self, task: TaskId, from: Slot, to: Slot) {
        self.0.on_tracker_advance(task, from, to);
        self.1.on_tracker_advance(task, from, to);
    }

    fn on_quiet_span(&mut self, from: Slot, to: Slot, holes: u64) {
        self.0.on_quiet_span(from, to, holes);
        self.1.on_quiet_span(from, to, holes);
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

    fn on_miss(&mut self, task: TaskId, index: u64, t: Slot, deadline: Slot) {
        self.0.on_miss(task, index, t, deadline);
        self.1.on_miss(task, index, t, deadline);
    }

    fn on_drift_sample(&mut self, task: TaskId, t: Slot, drift: Rational) {
        self.0.on_drift_sample(task, t, drift);
        self.1.on_drift_sample(task, t, drift);
    }

    fn on_exec_overrun(&mut self, task: TaskId, t: Slot) {
        self.0.on_exec_overrun(task, t);
        self.1.on_exec_overrun(task, t);
    }

    fn on_exec_skip(&mut self, task: TaskId, t: Slot) {
        self.0.on_exec_skip(task, t);
        self.1.on_exec_skip(task, t);
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
    fn noop_probe_accepts_every_hook() {
        let mut p = NoopProbe;
        p.on_slot_start(0);
        p.on_release(TaskId(0), 1, 0, 4, true);
        p.on_schedule(TaskId(0), 1, 0);
        p.on_preempt(TaskId(0), 1);
        p.on_halt(TaskId(0), 1, 2);
        p.on_stale_pop(TaskId(0), 1, 3);
        p.on_stale_drop(TaskId(0), 1, 3);
        p.on_reweight_initiated(TaskId(0), 2, Rule::O, ReweightCost::default(), 5);
        p.on_reweight_enacted(TaskId(0), 5, 2);
        p.on_tracker_advance(TaskId(0), 2, 5);
        p.on_quiet_span(3, 9, 12);
        p.on_release_batch(
            4,
            &[ReleaseRec {
                task: TaskId(0),
                index: 2,
                deadline: 8,
                era_first: false,
            }],
        );
        p.on_span_armed(10);
        p.on_busy_span_jump(10, 14, 6, &SpanDigest::default());
        p.on_miss(TaskId(0), 3, 9, 9);
        p.on_drift_sample(TaskId(0), 4, Rational::ZERO);
        p.on_exec_overrun(TaskId(0), 7);
        p.on_exec_skip(TaskId(0), 8);
    }

    /// A legacy probe (default hook bodies, `SPAN_AWARE = false`)
    /// receiving the span hooks sees exactly the per-slot stream a
    /// per-slot run would have produced.
    #[test]
    fn span_hook_defaults_replay_per_slot() {
        #[derive(Default)]
        struct SlotLog {
            starts: Vec<Slot>,
            releases: Vec<(TaskId, u64, Slot, Slot, bool)>,
        }
        impl Probe for SlotLog {
            fn on_slot_start(&mut self, t: Slot) {
                self.starts.push(t);
            }
            fn on_release(
                &mut self,
                task: TaskId,
                index: u64,
                t: Slot,
                deadline: Slot,
                era_first: bool,
            ) {
                self.releases.push((task, index, t, deadline, era_first));
            }
        }
        const { assert!(!SlotLog::SPAN_AWARE, "default must stay legacy") };

        let mut p = SlotLog::default();
        p.on_quiet_span(5, 9, 2);
        assert_eq!(p.starts, vec![5, 6, 7, 8]);

        let mut p = SlotLog::default();
        let digest = SpanDigest {
            period: 3,
            ..SpanDigest::default()
        };
        p.on_busy_span_jump(0, 3, 2, &digest);
        assert_eq!(p.starts, vec![3, 4, 5, 6, 7, 8]);

        let mut p = SlotLog::default();
        p.on_release_batch(
            7,
            &[
                ReleaseRec {
                    task: TaskId(1),
                    index: 4,
                    deadline: 11,
                    era_first: true,
                },
                ReleaseRec {
                    task: TaskId(2),
                    index: 1,
                    deadline: 9,
                    era_first: false,
                },
            ],
        );
        assert_eq!(
            p.releases,
            vec![(TaskId(1), 4, 7, 11, true), (TaskId(2), 1, 7, 9, false)]
        );
    }

    #[test]
    fn fanout_span_awareness_is_the_conjunction() {
        struct Legacy;
        impl Probe for Legacy {}
        struct Aware;
        impl Probe for Aware {
            const SPAN_AWARE: bool = true;
        }
        const {
            assert!(NoopProbe::SPAN_AWARE);
            assert!(<Fanout<Aware, NoopProbe>>::SPAN_AWARE);
            assert!(!<Fanout<Aware, Legacy>>::SPAN_AWARE);
            assert!(!<Fanout<Legacy, NoopProbe>>::SPAN_AWARE);
        }
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

    #[test]
    fn fanout_forwards_to_both() {
        #[derive(Default)]
        struct CountProbe {
            calls: u64,
        }
        impl Probe for CountProbe {
            fn on_slot_start(&mut self, _t: Slot) {
                self.calls += 1;
            }
            fn on_halt(&mut self, _task: TaskId, _index: u64, _t: Slot) {
                self.calls += 1;
            }
        }
        let mut f = Fanout(CountProbe::default(), CountProbe::default());
        f.on_slot_start(0);
        f.on_halt(TaskId(1), 2, 3);
        f.on_schedule(TaskId(1), 2, 3); // not counted by either
        assert_eq!(f.0.calls, 2);
        assert_eq!(f.1.calls, 2);
    }
}
