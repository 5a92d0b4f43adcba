//! The benchmark's own span recorder.
//!
//! Spans wrap calls into the library's public functions — nothing inside
//! the library is instrumented (in-program phase tracing is a later
//! change that this benchmark will judge). Every phase is always timed
//! (`exit` returns the wall seconds); spans are *stored* only while
//! recording is on, which is what the traced run pays over the untraced
//! one. Spans hold wall nanoseconds; each repetition also records the
//! calibration factor (`calibrate.rs`) that turns them into calibrated
//! seconds. Per-slot `Engine::step` timings go into a [`StepHistogram`],
//! not into 10⁴ spans.

use crate::json::Json;
use crate::stats;
use std::time::Instant;

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

/// Handle returned by [`Recorder::enter`], consumed by [`Recorder::exit`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

pub struct Recorder {
    recording: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Calibration factor of each finished repetition.
    scales: Vec<(u32, f64)>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            recording: false,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            scales: Vec::new(),
        }
    }

    /// Switches span storage on or off and names the repetition that
    /// the following spans belong to.
    pub fn start_rep(&mut self, rep: u32, recording: bool) {
        debug_assert!(self.stack.is_empty(), "a span is still open");
        self.rep = rep;
        self.recording = recording;
    }

    /// Records the calibration factor of the repetition just run.
    pub fn finish_rep(&mut self, scale: f64) {
        self.scales.push((self.rep, scale));
    }

    fn scale_of(&self, rep: u32) -> f64 {
        self.scales
            .iter()
            .find(|(r, _)| *r == rep)
            .map_or(1.0, |(_, scale)| *scale)
    }

    pub fn enter(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let index = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: ns_between(self.epoch, start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                rep: self.rep,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must nest");
            self.spans[index].end_ns = ns_between(self.epoch, end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Per recorded repetition, the summed calibrated seconds of the
    /// spans named `name` (a name opened several times in a repetition,
    /// such as one span per segment, adds up).
    pub fn per_rep_seconds(&self, name: &str) -> Vec<(u32, f64)> {
        let mut by_rep: Vec<(u32, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let secs = (s.end_ns - s.start_ns) as f64 / 1e9 * self.scale_of(s.rep);
            match by_rep.iter_mut().find(|(rep, _)| *rep == s.rep) {
                Some((_, total)) => *total += secs,
                None => by_rep.push((s.rep, secs)),
            }
        }
        by_rep
    }

    /// Calibrated seconds of the spans named `name` in the fastest
    /// recorded repetition (the one whose `run` span is shortest), so
    /// that the parts of one `run` add up to it. 0 when nothing by that
    /// name was recorded.
    pub fn seconds(&self, name: &str) -> f64 {
        let fastest = self
            .per_rep_seconds("run")
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(rep, _)| rep);
        self.per_rep_seconds(name)
            .into_iter()
            .find(|(rep, _)| Some(*rep) == fastest)
            .map_or(0.0, |(_, secs)| secs)
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Share of the spans named `parent` that their direct children
    /// cover, over all repetitions (1.0 = fully attributed).
    pub fn coverage(&self, parent: &str) -> f64 {
        let own = self.self_ns();
        let (mut total, mut unattributed) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.name == parent {
                total += s.end_ns - s.start_ns;
                unattributed += own;
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - unattributed as f64 / total as f64
    }

    pub fn to_json(&self, workload: &str, steps: &StepHistogram) -> Json {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("rep", Json::Num(f64::from(s.rep))),
                ])
            })
            .collect();
        let reps = self
            .scales
            .iter()
            .map(|&(rep, scale)| {
                Json::obj([
                    ("rep", Json::Num(f64::from(rep))),
                    ("scale", Json::Num(scale)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("reps", Json::Arr(reps)),
            ("spans", Json::Arr(spans)),
            ("engine_step_ns_log2_histogram", steps.to_json()),
        ])
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Timings of individual `Engine::step` calls, in nanoseconds.
#[derive(Default)]
pub struct StepHistogram {
    samples: Vec<f64>,
}

impl StepHistogram {
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns as f64);
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    pub fn percentile(&self, q: f64) -> f64 {
        stats::percentile(&self.samples, q)
    }

    /// Counts per power-of-two bucket: entry `k` counts samples in
    /// `[2^k, 2^(k+1))` ns (entry 0 also holds 0 ns).
    fn to_json(&self) -> Json {
        let mut buckets: Vec<f64> = Vec::new();
        for &s in &self.samples {
            let k = (s.max(1.0) as u64).ilog2() as usize;
            if buckets.len() <= k {
                buckets.resize(k + 1, 0.0);
            }
            buckets[k] += 1.0;
        }
        Json::nums(&buckets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-written spans: `run` [0, 100) with children
    /// `a` [10, 40) and `b` [50, 90), `b` holding `c` [60, 70).
    fn fixture() -> Recorder {
        let mut rec = Recorder::new();
        let span = |name: &str, start_ns, end_ns, parent| Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            rep: 0,
        };
        rec.spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 60, 70, Some(2)),
        ];
        rec
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let rec = fixture();
        assert_eq!(rec.self_ns(), vec![30, 30, 30, 10]);
        assert!((rec.coverage("run") - 0.7).abs() < 1e-12);
        assert_eq!(rec.coverage("missing"), 0.0);
    }

    #[test]
    fn spans_nest_and_are_dropped_when_not_recording() {
        let mut rec = Recorder::new();
        rec.start_rep(0, false);
        let o = rec.enter("quiet");
        assert!(rec.exit(o) >= 0.0);
        assert!(rec.spans.is_empty());

        rec.start_rep(1, true);
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        rec.exit(inner);
        rec.exit(outer);
        let inner = rec.enter("inner");
        rec.exit(inner);
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, None);
        assert!(rec.spans[0].end_ns >= rec.spans[1].end_ns);
        assert_eq!(rec.per_rep_seconds("inner").len(), 1);
    }

    #[test]
    fn per_rep_seconds_sums_within_a_rep_and_applies_its_scale() {
        let mut rec = fixture();
        // A second `a` in repetition 0, and repetition 1 at half speed.
        rec.spans.push(Span {
            start_ns: 40,
            end_ns: 50,
            ..rec.spans[1].clone()
        });
        for i in 0..2 {
            rec.spans.push(Span {
                rep: 1,
                ..rec.spans[i].clone()
            });
        }
        rec.scales = vec![(0, 1.0), (1, 0.5)];
        assert_eq!(rec.per_rep_seconds("a"), vec![(0, 40e-9), (1, 15e-9)]);
        // Repetition 1's `run` is the shorter one once calibrated.
        assert_eq!(rec.seconds("run"), 50e-9);
        assert_eq!(rec.seconds("a"), 15e-9);
        assert_eq!(rec.seconds("c"), 0.0);
    }

    #[test]
    fn step_histogram_buckets_by_power_of_two() {
        let mut h = StepHistogram::default();
        for ns in [0, 1, 2, 3, 1000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile(1.0), 1000.0);
        let buckets = h.to_json();
        assert_eq!(buckets.as_arr()[0], Json::Num(2.0));
        assert_eq!(buckets.as_arr()[1], Json::Num(2.0));
        assert_eq!(buckets.as_arr()[9], Json::Num(1.0));
    }
}
