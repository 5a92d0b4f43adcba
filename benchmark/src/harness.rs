//! The measuring loop the four workloads share: one reduced warm-up,
//! then repetitions on freshly built state until the time budget is
//! spent, each between two samples of the calibration kernel; the fastest
//! calibrated repetitions are reported, correctness checks run outside
//! the timed phases, and the traced run adds the per-layer figures.

use crate::calibrate::{self, Calibrator};
use crate::json::Json;
use crate::spec;
use crate::stats;
use crate::trace::{Recorder, StepHistogram};
use pfair_sched::overhead::Counters;
use std::collections::BTreeMap;
use std::time::Instant;

/// Repetitions are never fewer than this, whatever the time budget.
const MIN_REPS: u32 = 3;
/// Theorem 5: PD²-OI adds at most two quanta of drift per reweight.
const OI_EVENT_DRIFT_BOUND_MILLI: f64 = 2000.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    /// About 1/50 of the work: the warm-up, and `run --smoke`.
    Smoke,
}

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// What one repetition produced, reduced to what the metrics and checks
/// need. Everything here is deterministic given the seed.
#[derive(Default)]
pub struct Outcome {
    /// Scheduled quanta, all legs.
    pub quanta: u64,
    /// Deadline misses, all legs (Theorem 2 says 0 under PD²-OI; PD²-LJ
    /// and the hybrids are miss-free too, at a price in drift).
    pub misses: u64,
    /// Overhead counters summed over legs.
    pub counters: Counters,
    /// Largest per-event drift delta over the PD²-OI legs, in 10⁻³ quanta.
    pub oi_max_event_drift_milli: f64,
    /// Largest `|drift(T, horizon)|` over the PD²-OI legs, in 10⁻³ quanta.
    pub oi_max_drift_milli: f64,
    /// FNV-1a over the rendered outputs; must repeat across repetitions.
    pub digest: u64,
    /// Workload-specific exact per-layer figures.
    pub exact: Vec<(String, f64)>,
    /// Workload-specific output checks: `(what, passed)`.
    pub checks: Vec<(String, bool)>,
}

pub trait Workload {
    const NAME: &'static str;
    /// Built by `setup`, consumed by `run`.
    type State;
    /// Returned by `run`, reduced to an [`Outcome`] outside the timed
    /// phase.
    type Raw;

    fn new(seed: u64, size: Size) -> Self;
    /// FNV-1a over the generated inputs' `sorted_events()`.
    fn input_digest(&self) -> u64;
    /// Input generation plus `Engine::new` / `ShardSet::new`.
    fn setup(&self, rec: &mut Recorder) -> Self::State;
    /// First `run*` call through `finish` (and rendering, where the
    /// workload renders).
    fn run(&self, state: Self::State, rec: &mut Recorder) -> Self::Raw;
    fn outcome(&self, raw: Self::Raw) -> Outcome;
    /// Oracle checks on a reduced twin; untimed.
    fn check(&self, checks: &mut Checks);
    /// Per-layer figures: spans of the fastest recorded repetition, plus
    /// extra legs that only the traced run pays for (bracketed by `cal`).
    fn layers(
        &self,
        spans: &Recorder,
        steps: &mut StepHistogram,
        metrics: &mut Metrics,
        cal: &mut Calibrator,
    );
}

#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, passed: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !passed {
            self.failures.push(what.into());
        }
    }
}

/// Named metric values; every name must be one `spec.rs` lists.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec::find(name).unwrap_or_else(|| panic!("metric `{name}` is not in spec.rs"));
        self.0.insert(spec.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(name, value)| (*name, *value))
    }
}

pub struct Measured {
    pub input_digest: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Per-repetition calibrated values behind the reported ones
    /// (`setup_s`, `quanta_per_s`, `run_s`) and each repetition's
    /// `machine_speed`.
    pub per_rep: BTreeMap<&'static str, Vec<f64>>,
    /// The span dump of the traced run.
    pub trace: Option<Json>,
}

struct Rep {
    /// Calibrated seconds of set-up and run.
    setup_s: f64,
    run_s: f64,
    /// `NOMINAL_S ÷ kernel seconds` around the repetition: 1 at nominal
    /// speed, less when the machine was slow.
    scale: f64,
    traced: bool,
    outcome: Outcome,
}

/// One repetition between two calibration samples; `before` is the
/// sample taken after the previous repetition.
fn one_rep<W: Workload>(w: &W, rec: &mut Recorder, cal: &mut Calibrator, before: &mut f64) -> Rep {
    let root = rec.enter("workload");
    let open = rec.enter("setup");
    let state = w.setup(rec);
    let setup_wall = rec.exit(open);
    let open = rec.enter("run");
    let raw = w.run(state, rec);
    let run_wall = rec.exit(open);
    let open = rec.enter("check");
    let outcome = w.outcome(raw);
    rec.exit(open);
    rec.exit(root);
    let after = cal.sample();
    let scale = calibrate::scale(*before, after);
    *before = after;
    rec.finish_rep(scale);
    Rep {
        setup_s: setup_wall * scale,
        run_s: run_wall * scale,
        scale,
        traced: false,
        outcome,
    }
}

fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

pub fn measure<W: Workload>(opts: &Options) -> Measured {
    let w = W::new(opts.seed, opts.size);
    let mut rec = Recorder::new();
    let mut cal = Calibrator::new();

    // Warm-up: page in the code and the allocator's arenas on a reduced
    // run, so the first timed repetition is not the slowest.
    rec.start_rep(u32::MAX, false);
    let mut before = cal.sample();
    one_rep(
        &W::new(opts.seed, Size::Smoke),
        &mut rec,
        &mut cal,
        &mut before,
    );

    // The traced run alternates recorded and unrecorded repetitions, so
    // `bench.trace_overhead_ratio` compares like with like inside one
    // process.
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let n = reps.len() as u32;
        let traced = opts.trace && n.is_multiple_of(2);
        rec.start_rep(n, traced);
        reps.push(Rep {
            traced,
            ..one_rep(&w, &mut rec, &mut cal, &mut before)
        });
        if n == 0 {
            // What one run of the workload needs. Later repetitions add
            // what the allocator keeps between them (up to 20 % on
            // `population`, depending on how many repetitions fit), and
            // the oracle checks add their history-recording twins.
            peak_rss_mb = read_peak_rss_mb();
        }
        let spent = started.elapsed().as_secs_f64();
        let mean_rep = spent / reps.len() as f64;
        if reps.len() as u32 >= MIN_REPS && spent + mean_rep / 2.0 >= opts.seconds {
            break;
        }
    }

    let last = &reps.last().expect("at least MIN_REPS repetitions").outcome;
    let mut checks = Checks::default();
    checks.expect(
        last.misses == 0,
        format!("{} deadline miss(es)", last.misses),
    );
    checks.expect(
        reps.iter().all(|r| r.outcome.digest == last.digest),
        "output digest differs between repetitions",
    );
    checks.expect(
        last.oi_max_event_drift_milli <= OI_EVENT_DRIFT_BOUND_MILLI,
        format!(
            "PD2-OI per-event drift {} exceeds 2 quanta",
            last.oi_max_event_drift_milli / 1000.0
        ),
    );
    for (what, passed) in &last.checks {
        checks.expect(*passed, what.as_str());
    }
    w.check(&mut checks);

    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let machine_speed: Vec<f64> = reps.iter().map(|r| r.scale).collect();
    let quanta_per_s: Vec<f64> = reps
        .iter()
        .map(|r| r.outcome.quanta as f64 / r.run_s)
        .collect();

    // Throughput is the mean of the fastest quarter of the repetitions,
    // not the median: what is left of the machine's noise after
    // calibration mostly subtracts speed, and averaging a few of the
    // fastest keeps one flattering calibration sample from setting the
    // figure. Set-up is milliseconds or less, where a sample is as likely
    // to be too fast (the allocator handing back warm pages) as too slow,
    // so it is the median over the repetitions.
    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", stats::median(&setup_s));
    metrics.set("quanta_per_s", stats::top_quarter_mean(&quanta_per_s));
    metrics.set("peak_rss_mb", peak_rss_mb);

    let mut trace = None;
    if opts.trace {
        let mut steps = StepHistogram::default();
        let c = &last.counters;
        for (name, value) in [
            ("counters.heap_pushes", c.heap_pushes),
            ("counters.heap_pops", c.heap_pops),
            ("counters.stale_pops", c.stale_pops),
            ("counters.halts", c.halts),
            ("counters.reweight_initiations", c.reweight_initiations),
            ("counters.reweight_enactments", c.reweight_enactments),
            ("counters.preemptions", c.preemptions),
            ("counters.migrations", c.migrations),
            ("counters.slots_with_holes", c.slots_with_holes),
            ("counters.scheduled_quanta", c.scheduled_quanta),
            ("queue.compactions", c.compactions),
            ("sched.deadline_misses", last.misses),
        ] {
            metrics.set(name, value as f64);
        }
        metrics.set(
            "queue.ops_per_quantum",
            ratio(c.heap_ops(), c.scheduled_quanta),
        );
        metrics.set("queue.stale_pop_ratio", ratio(c.stale_pops, c.heap_pops));
        metrics.set(
            "accuracy.oi_max_event_drift_milli",
            last.oi_max_event_drift_milli,
        );
        metrics.set("accuracy.oi_max_drift_milli", last.oi_max_drift_milli);
        for (name, value) in &last.exact {
            metrics.set(name, *value);
        }
        let fastest_run =
            |traced: bool| fastest(reps.iter().filter(|r| r.traced == traced).map(|r| r.run_s));
        metrics.set(
            "bench.trace_overhead_ratio",
            fastest_run(true) / fastest_run(false),
        );
        metrics.set("bench.span_coverage", rec.coverage("run"));
        metrics.set("bench.run_s_spread", stats::range_spread(&run_s));
        metrics.set("bench.reps", reps.len() as f64);
        metrics.set("bench.machine_speed", stats::median(&machine_speed));
        let wall_rate: Vec<f64> = reps
            .iter()
            .map(|r| r.outcome.quanta as f64 * r.scale / r.run_s)
            .collect();
        metrics.set(
            "bench.wall_quanta_per_s",
            stats::top_quarter_mean(&wall_rate),
        );
        w.layers(&rec, &mut steps, &mut metrics, &mut cal);
        crate::micro::layers(&mut metrics, &mut cal);
        trace = Some(rec.to_json(W::NAME, &steps));
    }

    Measured {
        input_digest: w.input_digest(),
        attempted: checks.attempted,
        failures: checks.failures,
        metrics,
        per_rep: BTreeMap::from([
            ("setup_s", setup_s),
            ("quanta_per_s", quanta_per_s),
            ("run_s", run_s),
            ("machine_speed", machine_speed),
        ]),
        trace,
    }
}

/// `a ÷ b`, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// `VmHWM` of this process in MB (the workload runs in a process of its
/// own, so this is the workload's peak).
fn read_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
