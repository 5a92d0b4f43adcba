//! `reweight_storm`: thousands of light tasks reweighting, delaying,
//! leaving and joining on a machine sized to their mean utilization —
//! the paper's core path. Four legs on identical events: PD²-OI, PD²-LJ
//! and a magnitude-threshold hybrid on one `Engine` each, and PD²-OI
//! through an 8-shard `ShardSet` with rebalancing (the shard layer used
//! for routing and migration instead of bulk joins). The per-slot
//! pipeline runs almost every slot; the span drivers idle.

use crate::calibrate::Calibrator;
use crate::gen::{self, Fnv};
use crate::harness::{ratio, Checks, Metrics, Outcome, Size, Workload};
use crate::stats;
use crate::trace::{Recorder, StepHistogram};
use pfair_core::rational::rat;
use pfair_core::time::Slot;
use pfair_obs::{MetricsProbe, NoopProbe, TraceRecorder};
use pfair_sched::engine::{simulate_with, Engine, SimConfig};
use pfair_sched::event::Workload as Events;
use pfair_sched::reweight::{HybridPolicy, Scheme};
use pfair_sched::shard::{ShardReport, ShardSet, ShardSpec};
use pfair_sched::trace::SimResult;
use std::hint::black_box;
use std::time::Instant;

const SHARDS: usize = 8;
const SEGMENT: Slot = 64;
const SCHEMES: [&str; 3] = ["oi", "lj", "hybrid"];
/// Interleaved rounds behind each probe-overhead ratio.
const PROBE_ROUNDS: usize = 3;

pub struct ReweightStorm {
    seed: u64,
    tasks: u32,
    horizon: Slot,
    mean_gap: u64,
}

impl ReweightStorm {
    fn events(&self) -> (Events, u32) {
        gen::reweight_storm(self.seed, self.tasks, self.horizon, self.mean_gap)
    }

    fn config(&self, scheme: &str, processors: u32) -> SimConfig {
        let scheme = match scheme {
            "oi" => Scheme::Oi,
            "lj" => Scheme::LeaveJoin,
            _ => Scheme::Hybrid(HybridPolicy::MagnitudeThreshold(rat(1, 2))),
        };
        SimConfig::oi(processors, self.horizon).with_scheme(scheme)
    }

    fn shard_spec(&self, processors: u32) -> ShardSpec {
        ShardSpec::new(SHARDS, processors.div_ceil(SHARDS as u32) + 1, self.horizon)
            .with_segment(SEGMENT)
            .with_rebalance()
            .with_threads(1)
    }
}

pub struct Built {
    engines: Vec<Engine>,
    sharded: ShardSet,
}

pub struct Finished {
    results: Vec<SimResult>,
    sharded: ShardReport,
}

impl Workload for ReweightStorm {
    const NAME: &'static str = "reweight_storm";
    type State = Built;
    type Raw = Finished;

    fn new(seed: u64, size: Size) -> ReweightStorm {
        let (tasks, horizon) = match size {
            Size::Full => (2048, 2400),
            Size::Smoke => (128, 768),
        };
        ReweightStorm {
            seed,
            tasks,
            horizon,
            mean_gap: 100,
        }
    }

    fn input_digest(&self) -> u64 {
        gen::input_digest(&self.events().0)
    }

    fn setup(&self, rec: &mut Recorder) -> Built {
        let open = rec.enter("generate");
        let (events, m) = self.events();
        rec.exit(open);
        let open = rec.enter("new");
        let engines = SCHEMES
            .iter()
            .map(|s| Engine::new(self.config(s, m), &events))
            .collect();
        let sharded = ShardSet::new(self.shard_spec(m), &events);
        rec.exit(open);
        Built { engines, sharded }
    }

    fn run(&self, built: Built, rec: &mut Recorder) -> Finished {
        let mut results = Vec::new();
        for (scheme, mut engine) in SCHEMES.iter().zip(built.engines) {
            let leg = rec.enter(&format!("leg[{scheme}]"));
            let open = rec.enter(&format!("run[{scheme}]"));
            engine.run();
            rec.exit(open);
            let open = rec.enter(&format!("finish[{scheme}]"));
            results.push(engine.finish());
            rec.exit(open);
            rec.exit(leg);
        }
        let leg = rec.enter("leg[sharded_oi]");
        let mut set = built.sharded;
        set.run();
        let sharded = set.finish();
        rec.exit(leg);
        Finished { results, sharded }
    }

    fn outcome(&self, raw: Finished) -> Outcome {
        let mut h = Fnv::new();
        let mut out = Outcome::default();
        for (scheme, r) in SCHEMES.iter().zip(&raw.results) {
            super::digest_result(&mut h, r);
            out.quanta += r.counters.scheduled_quanta;
            out.misses += r.misses.len() as u64;
            out.counters = super::add_counters(&out.counters, &r.counters);
            let c = &r.counters;
            for (what, value) in [
                (
                    "max_event_drift_milli",
                    super::milli(r.max_abs_drift_delta()),
                ),
                (
                    "max_drift_milli",
                    super::milli(r.max_abs_drift_at(self.horizon)),
                ),
                ("pct_of_ideal", r.mean_pct_of_ideal()),
                (
                    "queue_ops_per_event",
                    ratio(c.heap_ops(), c.reweight_initiations),
                ),
                (
                    "enact_ratio",
                    ratio(c.reweight_enactments, c.reweight_initiations),
                ),
            ] {
                out.exact.push((format!("reweight.{scheme}.{what}"), value));
            }
        }
        let oi = &raw.results[0];
        out.oi_max_event_drift_milli = super::milli(oi.max_abs_drift_delta());
        out.oi_max_drift_milli = super::milli(oi.max_abs_drift_at(self.horizon));

        let s = &raw.sharded;
        out.quanta += s.scheduled_quanta();
        out.misses += s.misses() as u64;
        for shard in &s.per_shard {
            out.counters = super::add_counters(&out.counters, &shard.counters);
        }
        for t in &s.tasks {
            h.u64(t.scheduled_count);
        }
        let max_shard = s.per_shard.iter().map(|p| p.scheduled_quanta).max();
        out.exact.push((
            "shard.max_share".to_string(),
            ratio(max_shard.unwrap_or(0), s.scheduled_quanta()),
        ));
        out.exact
            .push(("shard.migrations".to_string(), s.migrations as f64));
        out.digest = h.finish();
        out
    }

    fn check(&self, checks: &mut Checks) {
        let twin = ReweightStorm::new(self.seed, Size::Smoke);
        let (events, m) = twin.events();
        for scheme in SCHEMES {
            let label = format!("reweight_storm/{scheme} twin");
            let config = twin.config(scheme, m);
            let run = super::check_against_oracle(checks, &label, &config, &events, twin.horizon);
            if scheme == "oi" {
                checks.expect(
                    run.result.max_abs_drift_delta() <= rat(2, 1),
                    format!("{label}: per-event drift above 2 quanta"),
                );
            }
        }
    }

    fn layers(
        &self,
        spans: &Recorder,
        steps: &mut StepHistogram,
        m: &mut Metrics,
        cal: &mut Calibrator,
    ) {
        m.set("workloads.generate_s", spans.seconds("generate"));
        m.set("engine.new_s", spans.seconds("new"));
        for scheme in SCHEMES {
            let leg = spans.seconds(&format!("leg[{scheme}]"));
            m.set(&format!("reweight.{scheme}.run_s"), leg);
        }
        m.set("engine.finish_s", spans.seconds("finish[oi]"));
        let oi_run_s = spans.seconds("run[oi]");
        m.set(
            "shard.route_overhead_ratio",
            spans.seconds("leg[sharded_oi]") / spans.seconds("leg[oi]"),
        );

        let (events, processors) = self.events();
        let oi = self.config("oi", processors);

        // Every `Engine::step` of the OI leg timed on its own. Stepping
        // by hand bypasses the tickless driver and pays two clock reads
        // per slot, hence the ratio beside the percentiles.
        let mut engine = Engine::new(oi.clone(), &events);
        let (stepped_wall, scale) = cal.bracket(|| {
            let started = Instant::now();
            while engine.now() < self.horizon {
                let t = Instant::now();
                black_box(engine.step());
                steps.record(t.elapsed().as_nanos() as u64);
            }
            started.elapsed().as_secs_f64()
        });
        let initiations = engine.finish().counters.reweight_initiations;
        m.set("engine.step_ns_p50", steps.percentile(0.5) * scale);
        m.set("engine.step_ns_p99", steps.percentile(0.99) * scale);
        m.set("engine.step_ns_max", steps.percentile(1.0) * scale);
        m.set("engine.step_samples", steps.count() as f64);
        m.set("engine.step_timing_ratio", stepped_wall * scale / oi_run_s);

        // Same joins, every later event stripped: what the OI leg would
        // cost if nothing ever reweighted.
        let mut engine = Engine::new(oi.clone(), &gen::static_twin(&events));
        let (static_wall, scale) = cal.bracket(|| {
            let started = Instant::now();
            engine.run();
            started.elapsed().as_secs_f64()
        });
        let static_s = static_wall * scale;
        black_box(engine.finish());
        m.set("engine.static_twin_s", static_s);
        m.set(
            "reweight.event_cost_ns",
            (oi_run_s - static_s).max(0.0) * 1e9 / initiations.max(1) as f64,
        );

        // The OI leg under each probe, interleaved so drift in the
        // machine's speed hits all three alike.
        let (mut noop, mut metrics, mut trace) = (Vec::new(), Vec::new(), Vec::new());
        let mut probe_events = 0;
        for _ in 0..PROBE_ROUNDS {
            let t = Instant::now();
            black_box(simulate_with(oi.clone(), &events, NoopProbe));
            noop.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            black_box(simulate_with(oi.clone(), &events, MetricsProbe::new()));
            metrics.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let (_, recorder) = simulate_with(oi.clone(), &events, TraceRecorder::new());
            trace.push(t.elapsed().as_secs_f64());
            probe_events = recorder.events().len();
        }
        m.set(
            "obs.metrics_probe_ratio",
            stats::median(&metrics) / stats::median(&noop),
        );
        m.set(
            "obs.trace_probe_ratio",
            stats::median(&trace) / stats::median(&noop),
        );
        m.set("obs.probe_events", probe_events as f64);
    }
}
