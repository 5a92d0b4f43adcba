//! Exact-integer metrics: counters and fixed-bucket histograms.
//!
//! Everything here stays in the integer domain — the registry holds
//! `u64` counters and power-of-two-bucket histograms with `u128` sums,
//! and its snapshots (text and JSON) render integers only — so the
//! observability layer obeys the same exact-arithmetic invariant
//! `pfair-audit` enforces on the scheduling crates (this crate is in
//! the audit's lint scope). Histogram buckets are *fixed* at
//! construction: bucket 0 holds the value 0 and bucket `i ≥ 1` holds
//! values in `[2^(i−1), 2^i)`, so recording is a `checked_ilog2`, no
//! allocation, no data-dependent layout — snapshots of identical runs
//! are byte-identical regardless of arrival order.

use crate::event::ObsEvent;
use crate::probe::{Probe, ReleaseRec, Rule};
use pfair_core::time::Slot;
use pfair_json::{FromJson, Json, JsonError, JsonWriter, ToJson};

/// Number of histogram buckets: bucket 0 for the value 0, buckets
/// 1..=64 for the 64 possible bit lengths of a `u64`.
const BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram over `u64` samples.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index of a sample: 0 for 0, else bit length (`ilog2 + 1`).
fn bucket_of(value: u64) -> usize {
    value
        .checked_ilog2()
        .and_then(|b| usize::try_from(b).ok())
        .map_or(0, |b| b.saturating_add(1))
}

/// Inclusive `[lo, hi]` range of values a bucket covers.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = bucket_of(value);
        if let Some(slot) = self.counts.get_mut(b) {
            *slot = slot.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(u128::from(value));
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The histogram of samples recorded since `base` (which must be
    /// an earlier snapshot of `self`): bucket-wise, count, and sum
    /// subtraction. The delta's `max` is inherited from `self` — a
    /// delta is only ever scaled back *into* the histogram it came
    /// from, where every delta sample is already ≤ `self.max`, so the
    /// merged max stays exact.
    pub fn delta_since(&self, base: &Histogram) -> Histogram {
        let counts = self
            .counts
            .iter()
            .zip(base.counts.iter().chain(std::iter::repeat(&0)))
            .map(|(cur, old)| cur.saturating_sub(*old))
            .collect();
        Histogram {
            counts,
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
            max: self.max,
        }
    }

    /// Adds `k` copies of `delta` (a [`Histogram::delta_since`]
    /// result) — exact integers throughout: bucket counts and the
    /// sample count scale by `k`, the sum by `k` exactly, and the max
    /// is the pairwise max (repeating samples introduces no new
    /// maximum).
    pub fn add_scaled(&mut self, delta: &Histogram, k: u64) {
        for (slot, d) in self.counts.iter_mut().zip(delta.counts.iter()) {
            *slot = slot.saturating_add(d.saturating_mul(k));
        }
        self.count = self.count.saturating_add(delta.count.saturating_mul(k));
        self.sum = self
            .sum
            .saturating_add(delta.sum.saturating_mul(u128::from(k)));
        self.max = self.max.max(delta.max);
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, low to high.
    pub fn buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect()
    }
}

impl ToJson for Histogram {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("count", &self.count)
            .field("sum", &i128::try_from(self.sum).unwrap_or(i128::MAX))
            .field("max", &self.max)
            .key("buckets");
        w.begin_array();
        for (lo, hi, c) in self.buckets() {
            w.begin_array();
            w.int(i128::from(lo));
            w.int(i128::from(hi));
            w.int(i128::from(c));
            w.end_array();
        }
        w.end_array();
        w.end_object();
    }
}

fn u64_field(value: &Json, key: &str) -> Result<u64, JsonError> {
    let raw: i128 = value.field(key)?;
    u64::try_from(raw).map_err(|_| JsonError::new(format!("{key}: out of u64 range")))
}

impl FromJson for Histogram {
    fn from_json(value: &Json) -> Result<Histogram, JsonError> {
        let mut h = Histogram::new();
        h.count = u64_field(value, "count")?;
        let sum: i128 = value.field("sum")?;
        h.sum = u128::try_from(sum).map_err(|_| JsonError::new("sum: negative"))?;
        h.max = u64_field(value, "max")?;
        let Some(Json::Array(buckets)) = value.get("buckets") else {
            return Err(JsonError::new("buckets: missing or not an array"));
        };
        for b in buckets {
            let Json::Array(triple) = b else {
                return Err(JsonError::new("bucket: not an array"));
            };
            let lo = triple
                .first()
                .and_then(Json::as_int)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| JsonError::new("bucket lo"))?;
            let c = triple
                .get(2)
                .and_then(Json::as_int)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| JsonError::new("bucket count"))?;
            if let Some(slot) = h.counts.get_mut(bucket_of(lo)) {
                *slot = c;
            }
        }
        Ok(h)
    }
}

/// An exact-integer metrics registry: named `u64` counters plus named
/// [`Histogram`]s. Lookup is a linear scan (registries hold tens of
/// names, and the hot path — the engine with
/// [`NoopProbe`](crate::probe::NoopProbe) — never touches one).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `by` to counter `name`, creating it at zero first.
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some((_, v)) = self.counters.iter_mut().find(|(n, _)| n == name) {
            *v = v.saturating_add(by);
            return;
        }
        self.counters.push((name.to_string(), by));
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Records `value` into histogram `name`, creating it first.
    pub fn record(&mut self, name: &str, value: u64) {
        if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| n == name) {
            h.record(value);
            return;
        }
        let mut h = Histogram::new();
        h.record(value);
        self.histograms.push((name.to_string(), h));
    }

    /// Everything recorded since `base` (an earlier clone of `self`):
    /// counter-wise and histogram-wise subtraction. Names present in
    /// `base` but absent here are ignored — a registry only grows.
    pub fn delta_since(&self, base: &Registry) -> Registry {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(base.counter(n))))
            .collect();
        let empty = Histogram::new();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                (
                    n.clone(),
                    h.delta_since(base.histogram(n).unwrap_or(&empty)),
                )
            })
            .collect();
        Registry {
            counters,
            histograms,
        }
    }

    /// Folds another registry into this one: every counter adds, every
    /// histogram merges bucket-wise — exact integer arithmetic, so the
    /// merge of N per-shard registries equals what one registry would
    /// have recorded had it observed all N event streams. Merge order
    /// does not affect the totals; callers that render the result
    /// should still merge in a fixed shard order so *name insertion
    /// order* (and with it [`Registry::snapshot_text`]) is
    /// deterministic too.
    pub fn merge(&mut self, other: &Registry) {
        self.add_scaled(other, 1);
    }

    /// Adds `k` copies of `delta` (a [`Registry::delta_since`]
    /// result): every counter grows by `k·delta`, every histogram by
    /// `k` bucket-wise copies — exact integers, no sampling. This is
    /// the busy-span bulk path: one verified period's delta times the
    /// jump count equals, bit for bit, what per-slot replay of the
    /// jumped span would have accumulated.
    pub fn add_scaled(&mut self, delta: &Registry, k: u64) {
        for (name, v) in &delta.counters {
            let by = v.saturating_mul(k);
            if by > 0 {
                self.inc(name, by);
            }
        }
        for (name, dh) in &delta.histograms {
            if dh.count() == 0 {
                continue;
            }
            if let Some((_, h)) = self.histograms.iter_mut().find(|(n, _)| n == name) {
                h.add_scaled(dh, k);
            } else {
                let mut h = Histogram::new();
                h.add_scaled(dh, k);
                self.histograms.push((name.to_string(), h));
            }
        }
    }

    /// Histogram `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The canonical text snapshot: counters then histograms, each
    /// sorted by name, one per line, integers only. Identical runs
    /// produce byte-identical snapshots.
    pub fn snapshot_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in by_name(&self.counters) {
            out.push_str(&format!("counter {name} = {v}\n"));
        }
        for (name, h) in by_name(&self.histograms) {
            out.push_str(&format!(
                "hist {name}: count={} sum={} max={}",
                h.count(),
                h.sum(),
                h.max()
            ));
            for (lo, hi, c) in h.buckets() {
                if lo == hi {
                    out.push_str(&format!(" [{lo}]={c}"));
                } else {
                    out.push_str(&format!(" [{lo}..{hi}]={c}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

impl ToJson for Registry {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().key("counters");
        w.begin_object();
        for (name, v) in by_name(&self.counters) {
            w.field(name, v);
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (name, h) in by_name(&self.histograms) {
            w.field(name, h);
        }
        w.end_object();
        w.end_object();
    }
}

impl FromJson for Registry {
    fn from_json(value: &Json) -> Result<Registry, JsonError> {
        let mut reg = Registry::new();
        let Some(Json::Object(counters)) = value.get("counters") else {
            return Err(JsonError::new("counters: missing or not an object"));
        };
        for (name, v) in counters {
            let raw = v
                .as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| JsonError::new(format!("counter {name}: not a u64")))?;
            reg.inc(name, raw);
        }
        let Some(Json::Object(hists)) = value.get("histograms") else {
            return Err(JsonError::new("histograms: missing or not an object"));
        };
        for (name, v) in hists {
            let h = Histogram::from_json(v)?;
            reg.histograms.push((name.clone(), h));
        }
        Ok(reg)
    }
}

/// `entries` sorted by name: the canonical order of both of a
/// registry's renderings.
fn by_name<T>(entries: &[(String, T)]) -> Vec<&(String, T)> {
    let mut sorted: Vec<&(String, T)> = entries.iter().collect();
    sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    sorted
}

/// Width of a slot interval as a `u64` (0 when `to ≤ from`).
fn width(from: Slot, to: Slot) -> u64 {
    to.checked_sub(from)
        .and_then(|d| u64::try_from(d).ok())
        .unwrap_or(0)
}

/// A [`Probe`] that aggregates every hook into a [`Registry`]:
/// counters per event kind (reweights broken down by rule) and
/// histograms of per-event direct cost, initiation→enactment latency,
/// and tracker-jump interval widths.
///
/// **Exact** across busy-span jumps: at an [`ObsEvent::SpanArmed`] the
/// probe clones its registry; at the [`ObsEvent::BusySpanJump`] of `k`
/// verified periods, the registry delta accumulated over the one
/// simulated period is scaled by `k` and merged back
/// ([`Registry::add_scaled`]). Because the verified period's stream is
/// what a per-slot run would emit — shifted in time, which no counter
/// or histogram width depends on — the final registry is bit-identical
/// to a per-slot oracle run's. Neither span event is counted itself:
/// the oracle sees none.
#[derive(Clone, Debug, Default)]
pub struct MetricsProbe {
    reg: Registry,
    /// Registry snapshot taken at the last `SpanArmed`, with the arm
    /// slot its jump must name.
    armed: Option<(Slot, Registry)>,
}

impl MetricsProbe {
    /// An empty metrics probe.
    pub fn new() -> MetricsProbe {
        MetricsProbe::default()
    }

    /// The aggregated registry.
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Consumes the probe, returning the registry.
    pub fn into_registry(self) -> Registry {
        self.reg
    }

    /// A probe resuming from a previously collected registry (snapshot
    /// restore): counters continue from the persisted totals, so a
    /// resumed run's final registry is identical to an uninterrupted
    /// one's.
    pub fn from_registry(reg: Registry) -> MetricsProbe {
        MetricsProbe { reg, armed: None }
    }

    // The two span arms of `on_event`, out of line: that method is
    // inlined into every call site of the slot pipeline, which must not
    // carry a registry clone or a delta merge each.
    #[cold]
    #[inline(never)]
    fn arm_span(&mut self, t0: Slot) {
        self.armed = Some((t0, self.reg.clone()));
    }

    #[cold]
    #[inline(never)]
    fn scale_span(&mut self, t0: Slot, periods: u64) {
        let armed = self.armed.take();
        debug_assert!(
            armed.as_ref().is_some_and(|(at, _)| *at == t0),
            "busy-span jump from {t0} without its own arming"
        );
        if let Some((_, base)) = armed {
            // Everything recorded since arming is exactly one verified
            // period's worth of events; the jump repeats that period
            // `periods` more times.
            let delta = self.reg.delta_since(&base);
            self.reg.add_scaled(&delta, periods);
        }
    }
}

impl Probe for MetricsProbe {
    // Forced inline: out of line, every call site in the slot pipeline
    // materializes the event and pays a call for one counter bump.
    #[inline(always)]
    fn on_event(&mut self, ev: ObsEvent) {
        match ev {
            ObsEvent::Release { era_first, .. } => {
                self.reg.inc("releases", 1);
                if era_first {
                    self.reg.inc("releases.era_first", 1);
                }
            }
            ObsEvent::Schedule { .. } => self.reg.inc("schedules", 1),
            ObsEvent::Preempt { .. } => self.reg.inc("preemptions", 1),
            ObsEvent::Halt { .. } => self.reg.inc("halts", 1),
            ObsEvent::StalePop { .. } => self.reg.inc("queue.stale_pops", 1),
            ObsEvent::StaleDrop { .. } => self.reg.inc("queue.stale_drops", 1),
            ObsEvent::ReweightInitiated {
                t,
                rule,
                cost,
                enact_at,
                ..
            } => {
                self.reg.inc("reweight.initiated", 1);
                match rule {
                    Rule::O => self.reg.inc("reweight.rule.O", 1),
                    Rule::I => self.reg.inc("reweight.rule.I", 1),
                    Rule::Lj => self.reg.inc("reweight.rule.LJ", 1),
                    Rule::Immediate => self.reg.inc("reweight.rule.immediate", 1),
                }
                self.reg.record(
                    "reweight.direct_cost",
                    cost.queue_ops.saturating_add(cost.halts),
                );
                self.reg.record("reweight.latency", width(t, enact_at));
            }
            ObsEvent::ReweightEnacted { .. } => self.reg.inc("reweight.enacted", 1),
            ObsEvent::Refused { .. } => self.reg.inc("refused", 1),
            ObsEvent::TrackerAdvance { from, to, .. } => {
                self.reg.inc("tracker.advances", 1);
                self.reg.record("tracker.jump_width", width(from, to));
            }
            ObsEvent::QuietSpan { from, to, .. } => self.reg.inc("slots", width(from, to)),
            ObsEvent::SpanArmed { t0 } => self.arm_span(t0),
            ObsEvent::BusySpanJump { t0, periods, .. } => self.scale_span(t0, periods),
            ObsEvent::Miss { .. } => self.reg.inc("misses", 1),
            _ => {}
        }
    }

    fn on_slot_start(&mut self, _t: Slot) {
        self.reg.inc("slots", 1);
    }

    fn on_release_batch(&mut self, _t: Slot, releases: &[ReleaseRec]) {
        self.reg.inc(
            "releases",
            u64::try_from(releases.len()).unwrap_or(u64::MAX),
        );
        let era = releases.iter().filter(|r| r.era_first).count();
        if era > 0 {
            self.reg
                .inc("releases.era_first", u64::try_from(era).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ReweightCost;
    use pfair_core::task::TaskId;

    #[test]
    fn bucket_layout_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), i, "lo bound of bucket {i}");
            assert_eq!(bucket_of(hi), i, "hi bound of bucket {i}");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 7, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1009);
        assert_eq!(h.max(), 1000);
        assert_eq!(
            h.buckets(),
            vec![(0, 0, 1), (1, 1, 2), (4, 7, 1), (512, 1023, 1)]
        );
    }

    #[test]
    fn registry_counters_and_snapshot_are_sorted() {
        let mut r = Registry::new();
        r.inc("zeta", 2);
        r.inc("alpha", 1);
        r.inc("zeta", 3);
        r.record("lat", 5);
        let text = r.snapshot_text();
        assert_eq!(r.counter("zeta"), 5);
        assert!(text.starts_with("counter alpha = 1\ncounter zeta = 5\n"));
        assert!(text.contains("hist lat: count=1 sum=5 max=5 [4..7]=1"));
    }

    #[test]
    fn registry_json_round_trips() {
        let mut r = Registry::new();
        r.inc("b", 7);
        r.inc("a", 3);
        r.record("h", 0);
        r.record("h", 9);
        let text = r.to_json_pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = Registry::from_json(&parsed).unwrap();
        assert_eq!(back.counter("a"), 3);
        assert_eq!(back.counter("b"), 7);
        assert_eq!(back.histogram("h").unwrap().count(), 2);
        assert_eq!(back.histogram("h").unwrap().sum(), 9);
        // Canonical form survives the round trip byte-for-byte.
        assert_eq!(back.to_json_pretty(), text);
    }

    #[test]
    fn metrics_probe_aggregates_rules_and_costs() {
        let mut p = MetricsProbe::new();
        p.on_slot_start(0);
        p.on_slot_start(1);
        let task = TaskId(0);
        p.on_event(ObsEvent::ReweightInitiated {
            task,
            t: 1,
            rule: Rule::O,
            cost: ReweightCost {
                queue_ops: 0,
                halts: 1,
            },
            enact_at: 9,
        });
        p.on_event(ObsEvent::ReweightEnacted {
            task,
            t: 9,
            initiated_at: 1,
        });
        p.on_event(ObsEvent::TrackerAdvance {
            task,
            from: 1,
            to: 9,
        });
        p.on_event(ObsEvent::Refused {
            task,
            t: 9,
            reason: crate::probe::Refusal::UnitBudget,
        });
        let reg = p.into_registry();
        assert_eq!(reg.counter("refused"), 1);
        assert_eq!(reg.counter("slots"), 2);
        assert_eq!(reg.counter("reweight.initiated"), 1);
        assert_eq!(reg.counter("reweight.rule.O"), 1);
        assert_eq!(reg.counter("reweight.enacted"), 1);
        assert_eq!(reg.histogram("reweight.latency").unwrap().max(), 8);
        assert_eq!(reg.histogram("tracker.jump_width").unwrap().sum(), 8);
    }

    /// Snapshot → delta → scale-by-k equals replaying the same samples
    /// k more times — the exactness contract the busy-span jump path
    /// relies on, for counters and histograms alike.
    #[test]
    fn delta_scaling_matches_per_slot_replay() {
        let mut fast = Registry::new();
        let mut slow = Registry::new();
        // Shared prefix (the pre-span run).
        for r in [&mut fast, &mut slow] {
            r.inc("slots", 17);
            r.inc("schedules", 11);
            r.record("tracker.jump_width", 9);
            r.record("tracker.jump_width", 200);
        }
        // One verified period, recorded per-slot in both.
        let base = fast.clone();
        let period = |r: &mut Registry| {
            r.inc("slots", 6);
            r.inc("schedules", 4);
            r.inc("releases", 2);
            r.record("tracker.jump_width", 3);
            r.record("tracker.jump_width", 3);
        };
        period(&mut fast);
        period(&mut slow);
        // Jump k = 5 periods: fast scales its delta, slow replays.
        let delta = fast.delta_since(&base);
        fast.add_scaled(&delta, 5);
        for _ in 0..5 {
            period(&mut slow);
        }
        assert_eq!(fast.snapshot_text(), slow.snapshot_text());
    }

    /// The probe-level protocol: arm → per-slot period → jump produces
    /// the same registry as a pure per-slot run of the whole span.
    #[test]
    fn span_jump_is_bit_identical_to_per_slot_oracle() {
        let mut fast = MetricsProbe::new();
        let mut oracle = MetricsProbe::new();
        let one_period = |p: &mut MetricsProbe, t0: Slot| {
            let (task, index) = (TaskId(0), 3);
            p.on_slot_start(t0);
            p.on_event(ObsEvent::Release {
                task,
                index,
                t: t0,
                deadline: t0 + 4,
                era_first: false,
            });
            p.on_event(ObsEvent::Schedule { task, index, t: t0 });
            p.on_slot_start(t0 + 1);
            p.on_event(ObsEvent::Preempt { task, t: t0 + 1 });
            p.on_event(ObsEvent::TrackerAdvance {
                task,
                from: t0,
                to: t0 + 2,
            });
        };
        for p in [&mut fast, &mut oracle] {
            p.on_slot_start(100);
        }
        // Fast path: arm at 102, simulate one period, jump 7 more.
        fast.on_event(ObsEvent::SpanArmed { t0: 102 });
        one_period(&mut fast, 102);
        fast.on_event(ObsEvent::BusySpanJump {
            t0: 102,
            t1: 104,
            periods: 7,
            period: 2,
            releases: 1,
            schedules: 1,
            queue_ops: 2,
        });
        // Oracle: all 8 periods per-slot.
        for k in 0..8 {
            one_period(&mut oracle, 102 + 2 * k);
        }
        assert_eq!(
            fast.registry().snapshot_text(),
            oracle.registry().snapshot_text()
        );
    }

    #[test]
    fn quiet_span_and_release_batch_aggregate_exactly() {
        let mut p = MetricsProbe::new();
        p.on_event(ObsEvent::QuietSpan {
            from: 10,
            to: 25,
            holes: 30,
        });
        p.on_release_batch(
            25,
            &[
                ReleaseRec {
                    task: TaskId(0),
                    index: 1,
                    deadline: 29,
                    era_first: true,
                },
                ReleaseRec {
                    task: TaskId(1),
                    index: 6,
                    deadline: 27,
                    era_first: false,
                },
            ],
        );
        p.on_event(ObsEvent::Miss {
            task: TaskId(1),
            index: 6,
            t: 27,
            deadline: 27,
        });
        let reg = p.registry();
        assert_eq!(reg.counter("slots"), 15);
        assert_eq!(reg.counter("releases"), 2);
        assert_eq!(reg.counter("releases.era_first"), 1);
        assert_eq!(reg.counter("misses"), 1);
    }
}
