//! SLO watermark monitor: sliding-window miss counts, drift budget,
//! and reweight-latency thresholds — with exact breach records.
//!
//! [`SloMonitor`] is a [`Probe`] that watches the three
//! service-level signals the paper's trade-off is about:
//!
//! * **deadline misses** over a sliding window of `window` slots,
//! * **drift** — the exact Eqn (5) samples at era-opening releases,
//!   against a rational budget,
//! * **reweight latency** — initiation → enactment, against a slot
//!   threshold.
//!
//! Every threshold crossing is recorded as a [`SloBreach`] with the
//! exact observed value (integers and [`Rational`]s — no floats, no
//! sampling), and high-watermarks are kept for each signal. The
//! monitor composes with horizon-scale batching for free: verified
//! busy spans contain no misses, no reweights, and no era openings by
//! construction, so a span contributes nothing and costs O(1).
//!
//! Rendered by [`SloMonitor::report`] and the `pfair slo` subcommand;
//! serialized by [`SloMonitor::to_json`].

use crate::event::ObsEvent;
use crate::probe::{Probe, ReleaseRec};
use pfair_core::rational::Rational;
use pfair_core::time::Slot;
use pfair_json::{obj, Json, ToJson};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Breach records kept before further crossings are only counted.
const MAX_BREACH_RECORDS: usize = 64;

/// SLO thresholds.
#[derive(Clone, Copy, Debug)]
pub struct SloConfig {
    /// Sliding-window width in slots for the miss-rate signal.
    pub window: Slot,
    /// Misses tolerated within one window; one more is a breach.
    pub max_misses: u64,
    /// Drift budget: a sample with `|drift| > budget` is a breach.
    /// `None` disables the signal (watermarks are still kept).
    pub drift_budget: Option<Rational>,
    /// Maximum initiation→enactment latency in slots; more is a
    /// breach. `None` disables the signal.
    pub max_reweight_latency: Option<u64>,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            window: 1000,
            max_misses: 0,
            drift_budget: None,
            max_reweight_latency: None,
        }
    }
}

/// Which SLO signal was breached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// Windowed miss count exceeded `max_misses`.
    MissRate,
    /// A drift sample exceeded the budget.
    DriftBudget,
    /// A reweight's latency exceeded the threshold.
    ReweightLatency,
}

impl SloKind {
    /// Canonical label (`"miss_rate"`, `"drift_budget"`,
    /// `"reweight_latency"`).
    pub fn label(self) -> &'static str {
        match self {
            SloKind::MissRate => "miss_rate",
            SloKind::DriftBudget => "drift_budget",
            SloKind::ReweightLatency => "reweight_latency",
        }
    }
}

/// One exact threshold crossing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloBreach {
    /// The breached signal.
    pub kind: SloKind,
    /// Slot the crossing was observed at.
    pub t: Slot,
    /// Exact observed value (windowed miss count, `|drift|`, or
    /// latency in slots — integers embed losslessly).
    pub observed: Rational,
    /// The configured threshold it crossed.
    pub threshold: Rational,
}

impl ToJson for SloBreach {
    fn to_json(&self) -> Json {
        obj([
            ("kind", Json::Str(self.kind.label().into())),
            ("t", Json::Int(i128::from(self.t))),
            ("observed", self.observed.to_json()),
            ("threshold", self.threshold.to_json()),
        ])
    }
}

/// The SLO monitor probe. See the module docs.
#[derive(Clone, Debug)]
pub struct SloMonitor {
    cfg: SloConfig,
    /// Miss instants still inside the sliding window.
    miss_times: VecDeque<Slot>,
    /// Whether the miss window is currently above threshold (so one
    /// excursion records one breach, not one per miss).
    miss_excursion: bool,
    breaches: Vec<SloBreach>,
    /// Crossings beyond [`MAX_BREACH_RECORDS`], counted not stored.
    suppressed: u64,
    misses_total: u64,
    peak_window_misses: u64,
    peak_window_at: Slot,
    max_abs_drift: Rational,
    max_abs_drift_at: Slot,
    drift_samples: u64,
    max_latency: u64,
    max_latency_at: Slot,
}

impl Default for SloMonitor {
    fn default() -> SloMonitor {
        SloMonitor::new(SloConfig::default())
    }
}

impl SloMonitor {
    /// A monitor with the given thresholds.
    pub fn new(cfg: SloConfig) -> SloMonitor {
        SloMonitor {
            cfg,
            miss_times: VecDeque::new(),
            miss_excursion: false,
            breaches: Vec::new(),
            suppressed: 0,
            misses_total: 0,
            peak_window_misses: 0,
            peak_window_at: 0,
            max_abs_drift: Rational::ZERO,
            max_abs_drift_at: 0,
            drift_samples: 0,
            max_latency: 0,
            max_latency_at: 0,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// All recorded breaches, in observation order.
    pub fn breaches(&self) -> &[SloBreach] {
        &self.breaches
    }

    /// Crossings that were counted but not stored (record cap).
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Total deadline misses observed.
    pub fn misses_total(&self) -> u64 {
        self.misses_total
    }

    /// High-watermark of the windowed miss count, with its slot.
    pub fn peak_window_misses(&self) -> (u64, Slot) {
        (self.peak_window_misses, self.peak_window_at)
    }

    /// High-watermark of `|drift|` over all samples, with its slot.
    pub fn max_abs_drift(&self) -> (Rational, Slot) {
        (self.max_abs_drift, self.max_abs_drift_at)
    }

    /// High-watermark of reweight latency in slots, with its
    /// enactment slot.
    pub fn max_reweight_latency(&self) -> (u64, Slot) {
        (self.max_latency, self.max_latency_at)
    }

    /// `true` when no signal ever crossed its threshold.
    pub fn is_clean(&self) -> bool {
        self.breaches.is_empty() && self.suppressed == 0
    }

    fn record_breach(&mut self, kind: SloKind, t: Slot, observed: Rational, threshold: Rational) {
        if self.breaches.len() >= MAX_BREACH_RECORDS {
            self.suppressed = self.suppressed.saturating_add(1);
            return;
        }
        self.breaches.push(SloBreach {
            kind,
            t,
            observed,
            threshold,
        });
    }

    /// The monitor state as JSON: thresholds, watermarks, breaches.
    pub fn to_json(&self) -> Json {
        obj([
            (
                "config",
                obj([
                    ("window", Json::Int(i128::from(self.cfg.window))),
                    ("max_misses", Json::Int(i128::from(self.cfg.max_misses))),
                    ("drift_budget", self.cfg.drift_budget.to_json()),
                    (
                        "max_reweight_latency",
                        self.cfg.max_reweight_latency.map(i128::from).to_json(),
                    ),
                ]),
            ),
            (
                "watermarks",
                obj([
                    ("misses_total", Json::Int(i128::from(self.misses_total))),
                    (
                        "peak_window_misses",
                        Json::Int(i128::from(self.peak_window_misses)),
                    ),
                    ("peak_window_at", Json::Int(i128::from(self.peak_window_at))),
                    ("max_abs_drift", self.max_abs_drift.to_json()),
                    (
                        "max_abs_drift_at",
                        Json::Int(i128::from(self.max_abs_drift_at)),
                    ),
                    ("drift_samples", Json::Int(i128::from(self.drift_samples))),
                    (
                        "max_reweight_latency",
                        Json::Int(i128::from(self.max_latency)),
                    ),
                    (
                        "max_reweight_latency_at",
                        Json::Int(i128::from(self.max_latency_at)),
                    ),
                ]),
            ),
            (
                "breaches",
                Json::Array(self.breaches.iter().map(ToJson::to_json).collect()),
            ),
            ("suppressed", Json::Int(i128::from(self.suppressed))),
        ])
    }

    /// A human-readable report of thresholds, watermarks, and
    /// breaches.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "SLO report (window {} slots)", self.cfg.window);
        let _ = writeln!(
            out,
            "  misses     total {:>6}  peak {}/window at slot {}  threshold {}",
            self.misses_total, self.peak_window_misses, self.peak_window_at, self.cfg.max_misses
        );
        let budget = self
            .cfg
            .drift_budget
            .map_or("none".to_string(), |b| b.to_string());
        let _ = writeln!(
            out,
            "  drift      max |drift| {} at slot {}  over {} samples  budget {}",
            self.max_abs_drift, self.max_abs_drift_at, self.drift_samples, budget
        );
        let thr = self
            .cfg
            .max_reweight_latency
            .map_or("none".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "  reweight   max latency {} slots at slot {}  threshold {}",
            self.max_latency, self.max_latency_at, thr
        );
        if self.is_clean() {
            let _ = writeln!(out, "  status     OK — no SLO breaches");
        } else {
            let _ = writeln!(
                out,
                "  status     {} breach(es){}",
                self.breaches.len(),
                if self.suppressed > 0 {
                    format!(" (+{} suppressed)", self.suppressed)
                } else {
                    String::new()
                }
            );
            for b in &self.breaches {
                let _ = writeln!(
                    out,
                    "    [{}] at slot {}: observed {} > threshold {}",
                    b.kind.label(),
                    b.t,
                    b.observed,
                    b.threshold
                );
            }
        }
        out
    }

    fn prune_window(&mut self, t: Slot) {
        if let Some(cutoff) = t.checked_sub(self.cfg.window) {
            while self.miss_times.front().is_some_and(|&f| f <= cutoff) {
                self.miss_times.pop_front();
            }
        }
    }

    fn observe_miss(&mut self, t: Slot) {
        self.misses_total = self.misses_total.saturating_add(1);
        self.prune_window(t);
        self.miss_times.push_back(t);
        let in_window = u64::try_from(self.miss_times.len()).unwrap_or(u64::MAX);
        if in_window > self.peak_window_misses {
            self.peak_window_misses = in_window;
            self.peak_window_at = t;
        }
        if in_window > self.cfg.max_misses {
            if !self.miss_excursion {
                self.miss_excursion = true;
                self.record_breach(
                    SloKind::MissRate,
                    t,
                    Rational::new(i128::from(in_window), 1),
                    Rational::new(i128::from(self.cfg.max_misses), 1),
                );
            }
        } else {
            self.miss_excursion = false;
        }
    }

    fn observe_drift(&mut self, t: Slot, drift: Rational) {
        self.drift_samples = self.drift_samples.saturating_add(1);
        let abs = drift.abs();
        if abs > self.max_abs_drift {
            self.max_abs_drift = abs;
            self.max_abs_drift_at = t;
        }
        if let Some(budget) = self.cfg.drift_budget {
            if abs > budget {
                self.record_breach(SloKind::DriftBudget, t, abs, budget);
            }
        }
    }

    /// Latency is measured at enactment (actual, not projected).
    fn observe_enactment(&mut self, t: Slot, initiated_at: Slot) {
        let latency = t
            .checked_sub(initiated_at)
            .and_then(|d| u64::try_from(d).ok())
            .unwrap_or(0);
        if latency > self.max_latency {
            self.max_latency = latency;
            self.max_latency_at = t;
        }
        if let Some(thr) = self.cfg.max_reweight_latency {
            if latency > thr {
                self.record_breach(
                    SloKind::ReweightLatency,
                    t,
                    Rational::new(i128::from(latency), 1),
                    Rational::new(i128::from(thr), 1),
                );
            }
        }
    }
}

/// Verified spans contain no misses, reweights, or era openings, so a
/// span contributes nothing to any signal.
impl Probe for SloMonitor {
    fn on_event(&mut self, ev: ObsEvent) {
        match ev {
            ObsEvent::Miss { t, .. } => self.observe_miss(t),
            ObsEvent::DriftSample { t, drift, .. } => self.observe_drift(t, drift),
            ObsEvent::ReweightEnacted {
                t, initiated_at, ..
            } => self.observe_enactment(t, initiated_at),
            _ => {}
        }
    }

    // No signal reads a release: skip building the batch's events.
    fn on_release_batch(&mut self, _t: Slot, _releases: &[ReleaseRec]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;
    use pfair_core::task::TaskId;

    fn miss(index: u64, t: Slot) -> ObsEvent {
        ObsEvent::Miss {
            task: TaskId(0),
            index,
            t,
            deadline: t,
        }
    }

    fn drift_sample(t: Slot, drift: Rational) -> ObsEvent {
        ObsEvent::DriftSample {
            task: TaskId(0),
            t,
            drift,
        }
    }

    fn enacted(t: Slot, initiated_at: Slot) -> ObsEvent {
        ObsEvent::ReweightEnacted {
            task: TaskId(0),
            t,
            initiated_at,
        }
    }

    #[test]
    fn miss_window_slides_and_records_one_breach_per_excursion() {
        let mut m = SloMonitor::new(SloConfig {
            window: 10,
            max_misses: 1,
            ..SloConfig::default()
        });
        m.on_event(miss(1, 5));
        assert!(m.is_clean(), "one miss is within threshold");
        m.on_event(miss(2, 8)); // 2 misses in (−2, 8] → breach
        assert_eq!(m.breaches().len(), 1);
        assert_eq!(m.breaches()[0].kind, SloKind::MissRate);
        assert_eq!(m.breaches()[0].observed, rat(2, 1));
        m.on_event(miss(3, 9)); // still in excursion: no new record
        assert_eq!(m.breaches().len(), 1);
        assert_eq!(m.peak_window_misses(), (3, 9));
        // Far later: window slid, count resets, new excursion records.
        m.on_event(miss(4, 100));
        m.on_event(miss(5, 101));
        assert_eq!(m.breaches().len(), 2);
        assert_eq!(m.misses_total(), 5);
    }

    #[test]
    fn drift_budget_watermarks_and_breaches_exactly() {
        let mut m = SloMonitor::new(SloConfig {
            drift_budget: Some(rat(1, 2)),
            ..SloConfig::default()
        });
        m.on_event(drift_sample(10, rat(1, 3)));
        assert!(m.is_clean());
        m.on_event(drift_sample(20, rat(-3, 4)));
        assert_eq!(m.breaches().len(), 1);
        let b = m.breaches()[0];
        assert_eq!(b.kind, SloKind::DriftBudget);
        assert_eq!(b.observed, rat(3, 4));
        assert_eq!(b.threshold, rat(1, 2));
        assert_eq!(m.max_abs_drift(), (rat(3, 4), 20));
    }

    #[test]
    fn reweight_latency_measured_at_enactment() {
        let mut m = SloMonitor::new(SloConfig {
            max_reweight_latency: Some(4),
            ..SloConfig::default()
        });
        m.on_event(enacted(13, 10)); // latency 3: fine
        assert!(m.is_clean());
        m.on_event(enacted(29, 20)); // latency 9: breach
        assert_eq!(m.breaches().len(), 1);
        assert_eq!(m.breaches()[0].observed, rat(9, 1));
        assert_eq!(m.max_reweight_latency(), (9, 29));
    }

    #[test]
    fn report_and_json_carry_watermarks_and_breaches() {
        let mut m = SloMonitor::new(SloConfig {
            window: 50,
            max_misses: 0,
            drift_budget: Some(rat(2, 1)),
            max_reweight_latency: Some(10),
        });
        m.on_event(miss(1, 40));
        m.on_event(drift_sample(41, rat(5, 2)));
        let report = m.report();
        assert!(report.contains("SLO report (window 50 slots)"));
        assert!(report.contains("2 breach(es)"));
        assert!(report.contains("[miss_rate] at slot 40"));
        assert!(report.contains("[drift_budget] at slot 41: observed 5/2 > threshold 2"));

        let json = m.to_json();
        let text = json.to_string_pretty();
        let parsed = Json::parse(&text).expect("report json parses");
        let Some(Json::Array(breaches)) = parsed.get("breaches") else {
            panic!("breaches missing");
        };
        assert_eq!(breaches.len(), 2);
        assert_eq!(
            parsed
                .get("watermarks")
                .and_then(|w| w.get("misses_total"))
                .and_then(Json::as_int),
            Some(1)
        );
    }

    /// Spans deliver nothing to the monitor — the events it reads
    /// never fire inside a verified span.
    #[test]
    fn spans_contribute_nothing() {
        let mut m = SloMonitor::default();
        m.on_event(ObsEvent::QuietSpan {
            from: 0,
            to: 1_000_000,
            holes: 0,
        });
        m.on_event(ObsEvent::SpanArmed { t0: 0 });
        m.on_event(ObsEvent::BusySpanJump {
            t0: 0,
            t1: 12,
            periods: 100_000,
            period: 12,
            releases: 0,
            schedules: 0,
            queue_ops: 0,
        });
        assert!(m.is_clean());
        assert_eq!(m.misses_total(), 0);
    }
}
