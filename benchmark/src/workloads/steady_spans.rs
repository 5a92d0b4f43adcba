//! `steady_spans`: a long horizon with one reweight every couple of
//! thousand slots. Only the driver ladder works here — leg `saturated`
//! (50 tasks filling 16 processors: busy-span arm, verify, jump) and leg
//! `sparse` (64 long-period tasks on 4 processors: quiet-span skip and
//! quick release). Queue, reweighting rules and shards are nearly idle,
//! so a driver change must move this workload and leave
//! `reweight_storm` flat.

use crate::calibrate::Calibrator;
use crate::gen::{self, Fnv, SATURATED_PROCESSORS, SPARSE_PROCESSORS};
use crate::harness::{Checks, Metrics, Outcome, Size, Workload};
use crate::trace::{Recorder, StepHistogram};
use pfair_core::rational::rat;
use pfair_core::time::Slot;
use pfair_sched::engine::{Engine, SimConfig};
use pfair_sched::event::Workload as Events;
use pfair_sched::trace::SimResult;
use std::hint::black_box;
use std::time::Instant;

const LEGS: [&str; 2] = ["saturated", "sparse"];
/// Slots the slow drivers (`per_slot()`, `without_busy_span()`) get in
/// the traced run; they are reported as rates.
const SLOW_DRIVER_SLOTS: Slot = 100_000;
/// Slots of the oracle twin, and of its history-recording prefix.
const TWIN_SLOTS: Slot = 200_000;
const HISTORY_SLOTS: Slot = 20_000;

pub struct SteadySpans {
    seed: u64,
    horizon: Slot,
    every: Slot,
}

impl SteadySpans {
    fn events(&self, leg: &str, horizon: Slot) -> Events {
        match leg {
            "saturated" => gen::steady_saturated(self.seed, horizon, self.every),
            _ => gen::steady_sparse(self.seed, horizon, self.every),
        }
    }

    fn config(leg: &str, horizon: Slot) -> SimConfig {
        let processors = match leg {
            "saturated" => SATURATED_PROCESSORS,
            _ => SPARSE_PROCESSORS,
        };
        SimConfig::oi(processors, horizon)
    }
}

impl Workload for SteadySpans {
    const NAME: &'static str = "steady_spans";
    type State = Vec<Engine>;
    type Raw = Vec<SimResult>;

    fn new(seed: u64, size: Size) -> SteadySpans {
        let horizon = match size {
            Size::Full => 2_000_000,
            Size::Smoke => 40_000,
        };
        SteadySpans {
            seed,
            horizon,
            every: 2000,
        }
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for leg in LEGS {
            h.u64(gen::input_digest(&self.events(leg, self.horizon)));
        }
        h.finish()
    }

    fn setup(&self, rec: &mut Recorder) -> Vec<Engine> {
        let open = rec.enter("generate");
        let events = LEGS.map(|leg| self.events(leg, self.horizon));
        rec.exit(open);
        let open = rec.enter("new");
        let engines = LEGS
            .iter()
            .zip(&events)
            .map(|(leg, events)| Engine::new(Self::config(leg, self.horizon), events))
            .collect();
        rec.exit(open);
        engines
    }

    fn run(&self, engines: Vec<Engine>, rec: &mut Recorder) -> Vec<SimResult> {
        let mut results = Vec::new();
        for (leg, mut engine) in LEGS.iter().zip(engines) {
            let open = rec.enter(&format!("leg[{leg}]"));
            engine.run();
            results.push(engine.finish());
            rec.exit(open);
        }
        results
    }

    fn outcome(&self, results: Vec<SimResult>) -> Outcome {
        let mut h = Fnv::new();
        let mut out = Outcome::default();
        for r in &results {
            super::digest_result(&mut h, r);
            out.quanta += r.counters.scheduled_quanta;
            out.misses += r.misses.len() as u64;
            out.counters = super::add_counters(&out.counters, &r.counters);
            out.oi_max_event_drift_milli = out
                .oi_max_event_drift_milli
                .max(super::milli(r.max_abs_drift_delta()));
            out.oi_max_drift_milli = out
                .oi_max_drift_milli
                .max(super::milli(r.max_abs_drift_at(self.horizon)));
        }
        out.digest = h.finish();
        out
    }

    fn check(&self, checks: &mut Checks) {
        let slots = TWIN_SLOTS.min(self.horizon);
        for leg in LEGS {
            let label = format!("steady_spans/{leg} twin");
            let events = self.events(leg, slots);
            let config = Self::config(leg, slots);
            let twin = super::check_against_oracle(checks, &label, &config, &events, HISTORY_SLOTS);
            checks.expect(
                twin.result.max_abs_drift_delta() <= rat(2, 1),
                format!("{label}: per-event drift above 2 quanta"),
            );
            if leg == "saturated" {
                checks.expect(
                    twin.busy_span_jumps > 0,
                    format!("{label}: busy-span never jumped"),
                );
            }
        }
    }

    fn layers(
        &self,
        spans: &Recorder,
        _steps: &mut StepHistogram,
        m: &mut Metrics,
        cal: &mut Calibrator,
    ) {
        m.set("workloads.generate_s", spans.seconds("generate"));
        m.set("engine.new_s", spans.seconds("new"));
        for leg in LEGS {
            let leg_s = spans.seconds(&format!("leg[{leg}]"));
            m.set(
                &format!("engine.driver.busy_span_slots_per_s.{leg}"),
                self.horizon as f64 / leg_s,
            );
            if leg == "saturated" {
                let events = (self.horizon - 1) / self.every;
                m.set(
                    "engine.busy_span.rearm_us_per_event",
                    leg_s * 1e6 / events.max(1) as f64,
                );
            }
            // The same leg under the slower drivers, on a truncated
            // horizon.
            let slots = SLOW_DRIVER_SLOTS.min(self.horizon);
            let events = self.events(leg, slots);
            let base = Self::config(leg, slots);
            for (driver, config) in [
                ("per_slot", base.clone().per_slot()),
                ("tickless", base.clone().without_busy_span()),
            ] {
                let mut engine = Engine::new(config, &events);
                let (wall, scale) = cal.bracket(|| {
                    let started = Instant::now();
                    engine.run();
                    started.elapsed().as_secs_f64()
                });
                black_box(engine.finish());
                m.set(
                    &format!("engine.driver.{driver}_slots_per_s.{leg}"),
                    slots as f64 / (wall * scale),
                );
            }
        }
    }
}
