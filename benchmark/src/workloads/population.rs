//! `population`: a static synthetic population through an 8-shard
//! `ShardSet`. Huge N, no reweighting: shard placement, merge and
//! rendering, slab scans, the calendar and a ready queue of thousands of
//! entries per shard do the work; the reweighting rules do none.

use crate::calibrate::Calibrator;
use crate::gen::{self, Fnv};
use crate::harness::{Checks, Metrics, Outcome, Size, Workload};
use crate::trace::{Recorder, StepHistogram};
use pfair_core::time::Slot;
use pfair_sched::event::{EventKind, Workload as Events};
use pfair_sched::shard::{ShardReport, ShardSet, ShardSpec};
use pfair_sched::workloads::{synthetic_population, POPULATION_ALIGNMENT};

const SHARDS: usize = 8;
const SEGMENT: Slot = 512;
/// Every weight is `1/L` with `L` dividing the horizon, so each task must
/// be scheduled exactly `HORIZON / L` times.
const HORIZON: Slot = POPULATION_ALIGNMENT;

pub struct Population {
    seed: u64,
    tasks: u32,
}

impl Population {
    fn events(&self) -> Events {
        synthetic_population(self.tasks, self.seed)
    }

    /// Per-shard processors covering the worst-case utilization
    /// (`tasks/512`) split over the shards, plus one of headroom — the
    /// budget `crates/bench`'s `shard_scale` uses.
    fn spec(&self) -> ShardSpec {
        let processors = self.tasks.div_ceil(512).div_ceil(SHARDS as u32) + 1;
        ShardSpec::new(SHARDS, processors, HORIZON)
            .with_segment(SEGMENT)
            .with_threads(1)
    }
}

/// Quanta each task is owed over the horizon, recomputed from the
/// generated events alone.
fn owed(events: &Events) -> Vec<u64> {
    let mut owed = vec![0; events.task_count() as usize];
    for e in events.sorted_events() {
        if let EventKind::Join(w) = e.kind {
            let w = w.value();
            owed[e.task.idx()] = (i128::from(HORIZON) * w.numer() / w.denom()) as u64;
        }
    }
    owed
}

pub struct Rendered {
    report: ShardReport,
    invariant: String,
    events: Events,
}

impl Workload for Population {
    const NAME: &'static str = "population";
    type State = (Events, ShardSet);
    type Raw = Rendered;

    fn new(seed: u64, size: Size) -> Population {
        let tasks = match size {
            Size::Full => 100_000,
            Size::Smoke => 2_000,
        };
        Population { seed, tasks }
    }

    fn input_digest(&self) -> u64 {
        gen::input_digest(&self.events())
    }

    fn setup(&self, rec: &mut Recorder) -> Self::State {
        let open = rec.enter("generate");
        let events = self.events();
        rec.exit(open);
        let open = rec.enter("new");
        let set = ShardSet::new(self.spec(), &events);
        rec.exit(open);
        (events, set)
    }

    fn run(&self, (events, mut set): Self::State, rec: &mut Recorder) -> Rendered {
        // The first segment routes every join (placement) and runs slots
        // 0..SEGMENT; the public API does not separate the two.
        let open = rec.enter("place");
        set.run_segments(1);
        rec.exit(open);
        let open = rec.enter("step");
        while set.now() < HORIZON {
            let segment = rec.enter("segment");
            set.run_segments(1);
            rec.exit(segment);
        }
        rec.exit(open);
        let open = rec.enter("merge");
        let report = set.finish();
        rec.exit(open);
        let open = rec.enter("render");
        let invariant = report.invariant_json();
        rec.exit(open);
        Rendered {
            report,
            invariant,
            events,
        }
    }

    fn outcome(&self, raw: Rendered) -> Outcome {
        let Rendered {
            report,
            invariant,
            events,
        } = raw;
        let owed = owed(&events);
        let mut h = Fnv::new();
        h.bytes(invariant.as_bytes());
        let quanta = report.scheduled_quanta();
        let counters = report.per_shard.iter().fold(Default::default(), |sum, s| {
            super::add_counters(&sum, &s.counters)
        });
        let max_shard = report
            .per_shard
            .iter()
            .map(|s| s.scheduled_quanta)
            .max()
            .unwrap_or(0);
        let short = report
            .tasks
            .iter()
            .zip(&owed)
            .filter(|(t, owed)| t.scheduled_count != **owed)
            .count();
        Outcome {
            quanta,
            misses: report.misses() as u64,
            counters,
            digest: h.finish(),
            exact: vec![
                ("shard.render_bytes".into(), invariant.len() as f64),
                (
                    "shard.max_share".into(),
                    crate::harness::ratio(max_shard, quanta),
                ),
                ("shard.migrations".into(), report.migrations as f64),
            ],
            checks: vec![
                (
                    format!(
                        "total quanta {quanta} differ from the {} owed",
                        owed.iter().sum::<u64>()
                    ),
                    quanta == owed.iter().sum::<u64>(),
                ),
                (
                    format!("{short} task(s) not scheduled exactly horizon/L times"),
                    short == 0 && report.tasks.len() == owed.len(),
                ),
            ],
            ..Outcome::default()
        }
    }

    fn check(&self, _checks: &mut Checks) {
        // Static and reweight-free: the per-task owed-quanta checks in
        // `outcome` are the oracle.
    }

    fn layers(
        &self,
        spans: &Recorder,
        _steps: &mut StepHistogram,
        m: &mut Metrics,
        _cal: &mut Calibrator,
    ) {
        m.set("workloads.generate_s", spans.seconds("generate"));
        m.set("shard.new_s", spans.seconds("new"));
        m.set("shard.place_s", spans.seconds("place"));
        m.set("shard.step_s", spans.seconds("step"));
        m.set("shard.merge_s", spans.seconds("merge"));
        m.set("shard.render_s", spans.seconds("render"));
    }
}
