//! Per-layer microbenchmarks: small loops over one public function of
//! one layer, so a change to that layer has a number of its own. They do
//! not depend on the workload or the seed and run in every traced run.
//! Each figure is the median over [`BATCHES`] timed batches after one
//! untimed batch.

use crate::calibrate::Calibrator;
use crate::harness::Metrics;
use crate::rng::SplitMix64;
use crate::stats;
use pfair_core::ideal::{IswTracker, PsTracker};
use pfair_core::pool::par_map_threads;
use pfair_core::rational::{rat, Rational};
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_core::window::{b_bit, periodic_window, window_in_era};
use pfair_obs::{MetricsProbe, Registry};
use pfair_sched::admission::{AdmissionController, AdmissionPolicy};
use pfair_sched::calendar::CalendarRing;
use pfair_sched::engine::{simulate_with, SimConfig};
use pfair_sched::overhead::Counters;
use pfair_sched::priority::Priority;
use pfair_sched::queue::{HeapQueue, QueueEntry, ReadyQueue};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;
/// Operations per batch of the arithmetic loops.
const OPS: usize = 20_000;
/// Push/pop rounds per batch of the queue loops.
const QUEUE_ROUNDS: u64 = 20_000;
/// Slots per batch of the tracker loops.
const TRACKER_SLOTS: Slot = 10_000;

/// Median nanoseconds per operation of `batch`, which performs `ops`
/// operations per call. `prepare` builds the batch's input untimed.
fn ns_per_op<S>(ops: u64, mut prepare: impl FnMut() -> S, mut batch: impl FnMut(S)) -> f64 {
    batch(prepare());
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let input = prepare();
            let started = Instant::now();
            batch(input);
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&samples)
}

/// Operands with denominators dividing 960, as the workloads' weights
/// have.
fn operands() -> Vec<(Rational, Rational)> {
    let mut rng = SplitMix64::new(0x0b5e_55ed);
    let dens = [8, 12, 15, 20, 32, 48, 96, 160, 240, 960];
    (0..OPS)
        .map(|_| {
            let mut one = || {
                let d = rng.pick(&dens);
                rat(1 + rng.below(d as u64) as i128, d)
            };
            (one(), one())
        })
        .collect()
}

fn rational(m: &mut Metrics) {
    let pairs = operands();
    let over_pairs = |f: fn(Rational, Rational) -> Rational| {
        ns_per_op(
            OPS as u64,
            || (),
            |()| {
                for &(a, b) in &pairs {
                    black_box(f(black_box(a), black_box(b)));
                }
            },
        )
    };
    m.set("core.rational_add_ns", over_pairs(|a, b| a + b));
    m.set("core.rational_mul_ns", over_pairs(|a, b| a * b));
    m.set(
        "core.rational_cmp_ns",
        ns_per_op(
            OPS as u64,
            || (),
            |()| {
                for &(a, b) in &pairs {
                    black_box(black_box(a) < black_box(b));
                }
            },
        ),
    );
}

fn windows_and_trackers(m: &mut Metrics) {
    let w = Weight::new(rat(3, 20));
    m.set(
        "core.window_ns",
        ns_per_op(
            OPS as u64,
            || (),
            |()| {
                for k in 1..=OPS as u64 {
                    black_box(window_in_era(black_box(w), k, k as Slot * 6));
                }
            },
        ),
    );
    // The event-driven path the engine takes: register the era's
    // subtasks, then one closed-form jump per observation point.
    m.set(
        "core.isw_advance_ns_per_slot",
        ns_per_op(
            TRACKER_SLOTS as u64,
            || (),
            |()| {
                let mut tracker = IswTracker::new(w.value(), 0);
                let mut sub = 1u64;
                let mut observed = 0;
                loop {
                    let win = periodic_window(w, sub, 0);
                    if win.release >= TRACKER_SLOTS {
                        break;
                    }
                    tracker.add_subtask(sub, win.release, sub == 1, sub > 1 && b_bit(w, sub - 1));
                    if win.release >= observed + 100 {
                        observed = win.release;
                        black_box(tracker.advance_to(observed));
                    }
                    sub += 1;
                }
                black_box(tracker.advance_to(TRACKER_SLOTS));
            },
        ),
    );
    m.set(
        "core.ps_advance_ns_per_slot",
        ns_per_op(
            TRACKER_SLOTS as u64,
            || (),
            |()| {
                let mut ps = PsTracker::new(rat(841, 2520), 0);
                let mut t = 0;
                while t < TRACKER_SLOTS {
                    ps.set_wt(rat(600 + i128::from(t % 200), 2520));
                    t = (t + 17).min(TRACKER_SLOTS);
                    black_box(ps.advance_to(t));
                }
            },
        ),
    );
}

/// The push/pop surface both queue implementations share.
trait PushPop: Default {
    fn push(&mut self, entry: QueueEntry, counters: &mut Counters);
    fn pop(&mut self, counters: &mut Counters) -> Option<QueueEntry>;
}

impl PushPop for ReadyQueue {
    fn push(&mut self, entry: QueueEntry, counters: &mut Counters) {
        ReadyQueue::push(self, entry, counters);
    }
    fn pop(&mut self, counters: &mut Counters) -> Option<QueueEntry> {
        self.pop_live(counters, |_| true)
    }
}

impl PushPop for HeapQueue {
    fn push(&mut self, entry: QueueEntry, counters: &mut Counters) {
        HeapQueue::push(self, entry, counters);
    }
    fn pop(&mut self, counters: &mut Counters) -> Option<QueueEntry> {
        self.pop_live(counters, |_| true)
    }
}

/// Nanoseconds per pop-then-push at a steady population of `n` entries
/// whose deadlines spread over `spread` slots ahead of a clock that
/// advances once per `n / spread` rounds — the shape `n` tasks of period
/// about `spread` give the engine's queue.
fn queue_ns<Q: PushPop>(n: u64, spread: u64) -> f64 {
    let entry = |now: Slot, rng: &mut SplitMix64, seq: u64| {
        let deadline = now + 1 + rng.below(spread) as Slot;
        let id = rng.below(n) as u32;
        QueueEntry {
            priority: Priority::pack(deadline, seq.is_multiple_of(3), deadline + 2, id),
            task: TaskId(id),
            index: seq,
        }
    };
    ns_per_op(
        QUEUE_ROUNDS,
        || {
            let mut rng = SplitMix64::new(n);
            let (mut q, mut counters) = (Q::default(), Counters::default());
            for seq in 0..n {
                q.push(entry(0, &mut rng, seq), &mut counters);
            }
            (q, rng)
        },
        |(mut q, mut rng)| {
            let mut counters = Counters::default();
            let per_slot = (n / spread).max(1);
            for round in 0..QUEUE_ROUNDS {
                let now = (round / per_slot) as Slot;
                black_box(q.pop(&mut counters));
                q.push(entry(now, &mut rng, n + round), &mut counters);
            }
            black_box(counters.heap_pops);
        },
    )
}

fn queues(m: &mut Metrics) {
    for (label, n, spread) in [("n64", 64, 16), ("n4k", 4096, 480), ("n64k", 65_536, 8192)] {
        m.set(
            &format!("queue.radix_push_pop_ns.{label}"),
            queue_ns::<ReadyQueue>(n, spread),
        );
        m.set(
            &format!("queue.heap_push_pop_ns.{label}"),
            queue_ns::<HeapQueue>(n, spread),
        );
    }
}

fn calendar(m: &mut Metrics) {
    const IDS: u32 = 4096;
    const SLOTS: Slot = 2000;
    // Every id is taken and re-inserted about once per 250 slots.
    let ops = u64::from(IDS) * SLOTS as u64 / 250;
    m.set(
        "calendar.insert_take_ns",
        ns_per_op(
            ops,
            || {
                let mut rng = SplitMix64::new(7);
                let mut ring = CalendarRing::new(0);
                for id in 0..IDS {
                    ring.insert(rng.below(500) as Slot, TaskId(id));
                }
                (ring, rng)
            },
            |(mut ring, mut rng)| {
                for t in 0..SLOTS {
                    for id in ring.take(t) {
                        ring.insert(t + 1 + rng.below(499) as Slot, id);
                    }
                }
                black_box(ring.len());
            },
        ),
    );
}

fn admission(m: &mut Metrics) {
    const TASKS: u32 = 4096;
    m.set(
        "admission.request_ns",
        ns_per_op(
            OPS as u64,
            || AdmissionController::new(AdmissionPolicy::Police, 64, TASKS),
            |mut controller| {
                for i in 0..OPS as u32 {
                    let den = if (i / TASKS).is_multiple_of(2) {
                        96
                    } else {
                        64
                    };
                    black_box(controller.request(TaskId(i % TASKS), Weight::new(rat(1, den))));
                }
            },
        ),
    );
}

fn registry_merge(m: &mut Metrics) {
    let (events, processors) = crate::gen::reweight_storm(1, 64, 400, 50);
    let config = SimConfig::oi(processors, 400);
    let (_, probe) = simulate_with(config, &events, MetricsProbe::new());
    let shard = probe.into_registry();
    m.set(
        "obs.registry_merge_ns",
        ns_per_op(
            8,
            || (),
            |()| {
                let mut merged = Registry::new();
                for _ in 0..8 {
                    merged.merge(black_box(&shard));
                }
                black_box(merged);
            },
        ),
    );
}

fn pool(m: &mut Metrics) {
    m.set(
        "pool.dispatch_ns_per_item",
        ns_per_op(
            OPS as u64,
            || (0..OPS as u64).collect::<Vec<u64>>(),
            |items| {
                black_box(par_map_threads(1, items, |x| black_box(x) + 1));
            },
        ),
    );
}

/// Every microbenchmark, each group between two calibration samples.
pub fn layers(m: &mut Metrics, cal: &mut Calibrator) {
    for group in [
        rational,
        windows_and_trackers,
        queues,
        calendar,
        admission,
        registry_merge,
        pool,
    ] {
        let mut wall = Metrics::default();
        let ((), scale) = cal.bracket(|| group(&mut wall));
        for (name, ns) in wall.iter() {
            m.set(name, ns * scale);
        }
    }
}
