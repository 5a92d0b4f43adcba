//! `whisper_sweep`: the paper's Fig. 11 grid — 7 speeds and 9 radii,
//! PD²-OI and PD²-LJ, occlusion on and off, several seeds — as hundreds
//! of twelve-task, 1000-slot runs on 4 processors. Tiny N, dense in
//! reweights, one engine construction per few-millisecond run: the fixed
//! per-engine cost, rational arithmetic and tracker sync dominate; queue
//! size is irrelevant.

use crate::calibrate::Calibrator;
use crate::gen::{self, Fnv};
use crate::harness::{Checks, Metrics, Outcome, Size, Workload};
use crate::trace::{Recorder, StepHistogram};
use pfair_core::pool::par_map_threads;
use pfair_obs::NoopProbe;
use pfair_sched::engine::{simulate_with, SimConfig};
use pfair_sched::event::Workload as Events;
use pfair_sched::overhead::Counters;
use pfair_sched::reweight::Scheme;
use whisper_sim::{generate_workload, summarize, Scenario, Summary, HORIZON, PROCESSORS};

/// The x-axes of Fig. 11: speeds (m/s) at radius 25 cm, radii (m) at
/// 2.9 m/s.
const SPEEDS: [f64; 7] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
const RADII: [f64; 9] = [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50];
const SPEED_SWEEP_RADIUS: f64 = 0.25;
const RADIUS_SWEEP_SPEED: f64 = 2.9;

pub struct WhisperSweep {
    seed: u64,
    /// Seeded runs per grid point and curve.
    runs_per_point: u64,
}

/// One simulation of the sweep.
pub struct Job {
    /// Curve point the run belongs to: grid point × occlusion × scheme.
    point: usize,
    oi: bool,
    events: Events,
}

pub struct RunStats {
    point: usize,
    oi: bool,
    max_drift_milli: f64,
    max_event_drift_milli: f64,
    pct_of_ideal: f64,
    misses: u64,
    counters: Counters,
}

pub struct Swept {
    runs: Vec<RunStats>,
    curves: Vec<(Summary, Summary)>,
}

impl WhisperSweep {
    /// The grid as `(speed, radius)` pairs.
    fn grid() -> Vec<(f64, f64)> {
        let speeds = SPEEDS.iter().map(|&v| (v, SPEED_SWEEP_RADIUS));
        let radii = RADII.iter().map(|&r| (RADIUS_SWEEP_SPEED, r));
        speeds.chain(radii).collect()
    }

    /// Every scenario's generated events, each used by an OI and an LJ
    /// run.
    fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (g, (speed, radius)) in Self::grid().into_iter().enumerate() {
            for (o, occlusion) in [true, false].into_iter().enumerate() {
                for run in 0..self.runs_per_point {
                    let scenario_seed = self.seed.wrapping_mul(1_000_003).wrapping_add(run);
                    let events =
                        generate_workload(&Scenario::new(speed, radius, occlusion, scenario_seed));
                    for (s, oi) in [true, false].into_iter().enumerate() {
                        jobs.push(Job {
                            point: (g * 2 + o) * 2 + s,
                            oi,
                            events: events.clone(),
                        });
                    }
                }
            }
        }
        jobs
    }
}

impl Workload for WhisperSweep {
    const NAME: &'static str = "whisper_sweep";
    type State = Vec<Job>;
    type Raw = Swept;

    fn new(seed: u64, size: Size) -> WhisperSweep {
        let runs_per_point = match size {
            Size::Full => 5,
            Size::Smoke => 1,
        };
        WhisperSweep {
            seed,
            runs_per_point,
        }
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for job in self.jobs().iter().filter(|j| j.oi) {
            h.u64(gen::input_digest(&job.events));
        }
        h.finish()
    }

    fn setup(&self, rec: &mut Recorder) -> Vec<Job> {
        let open = rec.enter("generate");
        let jobs = self.jobs();
        rec.exit(open);
        jobs
    }

    fn run(&self, jobs: Vec<Job>, rec: &mut Recorder) -> Swept {
        let open = rec.enter("sim");
        let runs = par_map_threads(1, jobs, |job| {
            let scheme = if job.oi {
                Scheme::Oi
            } else {
                Scheme::LeaveJoin
            };
            let config = SimConfig::oi(PROCESSORS, HORIZON).with_scheme(scheme);
            let (r, _) = simulate_with(config, &job.events, NoopProbe);
            RunStats {
                point: job.point,
                oi: job.oi,
                max_drift_milli: super::milli(r.max_abs_drift_at(HORIZON)),
                max_event_drift_milli: super::milli(r.max_abs_drift_delta()),
                pct_of_ideal: r.mean_pct_of_ideal(),
                misses: r.misses.len() as u64,
                counters: r.counters,
            }
        });
        rec.exit(open);
        // Fig. 11's points: mean ± 98 % CI of both metrics per curve point.
        let open = rec.enter("summarize");
        let points = Self::grid().len() * 4;
        let curves = (0..points)
            .map(|p| {
                let of = |f: fn(&RunStats) -> f64| -> Vec<f64> {
                    runs.iter().filter(|r| r.point == p).map(f).collect()
                };
                (
                    summarize(&of(|r| r.max_drift_milli)),
                    summarize(&of(|r| r.pct_of_ideal)),
                )
            })
            .collect();
        rec.exit(open);
        Swept { runs, curves }
    }

    fn outcome(&self, swept: Swept) -> Outcome {
        let mut h = Fnv::new();
        let mut out = Outcome::default();
        for r in &swept.runs {
            out.quanta += r.counters.scheduled_quanta;
            out.misses += r.misses;
            out.counters = super::add_counters(&out.counters, &r.counters);
            if r.oi {
                out.oi_max_event_drift_milli =
                    out.oi_max_event_drift_milli.max(r.max_event_drift_milli);
                out.oi_max_drift_milli = out.oi_max_drift_milli.max(r.max_drift_milli);
            }
            h.u64(r.counters.scheduled_quanta);
            h.u64(r.max_drift_milli.to_bits());
            h.u64(r.pct_of_ideal.to_bits());
        }
        for (drift, pct) in &swept.curves {
            h.u64(drift.mean.to_bits());
            h.u64(pct.mean.to_bits());
        }
        out.digest = h.finish();
        let missed = swept.runs.iter().filter(|r| r.misses > 0).count();
        out.checks.push((
            format!(
                "{missed} of {} Whisper runs missed a deadline",
                swept.runs.len()
            ),
            missed == 0,
        ));
        out
    }

    /// Every run is checked for misses (and the OI runs for Theorem 5's
    /// bound) in `outcome`; here the first scenario goes against the
    /// oracle under both schemes.
    fn check(&self, checks: &mut Checks) {
        let jobs = WhisperSweep::new(self.seed, Size::Smoke).jobs();
        for job in &jobs[..2] {
            let (label, scheme) = if job.oi {
                ("whisper_sweep/oi twin", Scheme::Oi)
            } else {
                ("whisper_sweep/lj twin", Scheme::LeaveJoin)
            };
            let config = SimConfig::oi(PROCESSORS, HORIZON).with_scheme(scheme);
            super::check_against_oracle(checks, label, &config, &job.events, HORIZON);
        }
    }

    fn layers(
        &self,
        spans: &Recorder,
        _steps: &mut StepHistogram,
        m: &mut Metrics,
        _cal: &mut Calibrator,
    ) {
        m.set("whisper.generate_s", spans.seconds("generate"));
        m.set("whisper.sim_s", spans.seconds("sim"));
        m.set("whisper.summarize_s", spans.seconds("summarize"));
    }
}
