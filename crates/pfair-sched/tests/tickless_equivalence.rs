//! Tickless batching ≡ per-slot stepping at the engine level.
//!
//! The tickless driver (`SimConfig::tickless`, the default) advances
//! quiet spans — empty ready queue, no event due — in closed form and
//! runs every other slot through the oracle's own full pipeline
//! (`Engine::run_to` is the one loop). Skipped spans are reported
//! through the span-level probe hooks (which legacy probes replay
//! per-slot and span-aware probes aggregate exactly), so a batched run
//! must be *bit-identical* to stepping every
//! slot: the rendered `SimResult`, every drift sample, every overhead
//! counter, and a `MetricsProbe`'s
//! full registry snapshot. Randomized AIS scripts across OI, LJ, and
//! hybrid schemes drive both paths through reweights (rules O/I/L/J),
//! IS delays (including past the calendar-ring window), rule-L leaves,
//! admission rejections, and saturated stretches where batching never
//! engages.
//!
//! One more rung holds the ideal trackers' event-driven syncs to
//! per-slot accumulation: a history run (`with_history`) advances every
//! task's trackers slot by slot, where every other run jumps them in
//! closed form at releases, halts, enactments and leaves. Exact
//! rational arithmetic is associative, so the two must report the same
//! totals, drift samples, misses and counters.

use pfair_core::rational::Rational;
use pfair_json::ToJson;
use pfair_obs::{MetricsProbe, NoopProbe};
use pfair_sched::engine::{simulate, simulate_with, Engine, SimConfig};
use pfair_sched::event::Workload;
use pfair_sched::reweight::{HybridPolicy, Scheme};
use proptest::prelude::*;

const HORIZON: i64 = 160;

/// Light weights with small denominators keep windows short (dense,
/// batching rarely engages); large denominators open long windows
/// (sparse, batching dominates). Mix both.
fn arb_weight() -> impl Strategy<Value = (i128, i128)> {
    (2i128..=60).prop_flat_map(|den| (1i128..=(den / 2).max(1), Just(den)))
}

#[derive(Debug, Clone)]
struct TaskPlan {
    join_weight: (i128, i128),
    join_at: i64,
    reweights: Vec<(i64, (i128, i128))>,
    delay: Option<(i64, u32)>,
    leave_at: Option<i64>,
}

#[derive(Debug, Clone)]
struct Plan {
    processors: u32,
    tasks: Vec<TaskPlan>,
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    // Delays up to 600 slots push releases past the 512-slot calendar
    // window, exercising the overflow list and ring rotation.
    let delay = (0u32..=2, 1i64..HORIZON - 20, 1u32..600)
        .prop_map(|(on, at, by)| (on == 0).then_some((at, by)));
    let leave = (0u32..=2, 40i64..HORIZON - 5).prop_map(|(on, at)| (on == 0).then_some(at));
    let task = (
        arb_weight(),
        0i64..=30,
        prop::collection::vec(((1i64..HORIZON - 10), arb_weight()), 0..=3),
        delay,
        leave,
    )
        .prop_map(
            |(join_weight, join_at, reweights, delay, leave_at)| TaskPlan {
                join_weight,
                join_at,
                reweights,
                delay,
                leave_at,
            },
        );
    (1u32..=4, prop::collection::vec(task, 1..=8))
        .prop_map(|(processors, tasks)| Plan { processors, tasks })
}

fn workload_of(plan: &Plan) -> Workload {
    let mut w = Workload::new();
    for (i, t) in plan.tasks.iter().enumerate() {
        let id = u32::try_from(i).unwrap_or(0);
        w.join(id, t.join_at, t.join_weight.0, t.join_weight.1);
        for (at, wt) in &t.reweights {
            if *at > t.join_at {
                w.reweight(id, *at, wt.0, wt.1);
            }
        }
        if let Some((at, by)) = t.delay {
            if at > t.join_at {
                w.delay(id, at, by);
            }
        }
        if let Some(at) = t.leave_at {
            if at > t.join_at {
                w.leave(id, at);
            }
        }
    }
    w
}

/// Asserts a batched run is bit-identical to the per-slot oracle on the
/// same workload: rendered results, drift samples, counters, and the
/// metrics registry a probe accumulates from the replayed hook stream;
/// and that a history run, whose trackers advance slot by slot, reports
/// the same aggregates.
fn assert_tickless_matches_oracle(plan: &Plan, cfg: SimConfig) {
    let w = workload_of(plan);
    let (oracle, oracle_metrics) = simulate_with(cfg.clone().per_slot(), &w, MetricsProbe::new());
    // A history run's rendering carries the per-slot series, so it is
    // compared field by field below.
    let history = simulate(cfg.clone().with_history(), &w);
    // Busy-span driver under the no-op probe: whether or not any jump
    // lands on this script, the result must match.
    let busy = simulate(cfg.clone(), &w);
    assert_eq!(
        oracle.to_json().to_string_pretty(),
        busy.to_json().to_string_pretty(),
        "busy-span driver diverged from the oracle"
    );
    // `MetricsProbe` is span-aware, so this run may take quiet-span and
    // busy-span shortcuts — its registry must still match the per-slot
    // oracle's exactly.
    let (fast, fast_metrics) = simulate_with(cfg, &w, MetricsProbe::new());

    // One canonical rendering covers every field SimResult reports
    // (totals, drift, misses, counters, horizon).
    assert_eq!(
        oracle.to_json().to_string_pretty(),
        fast.to_json().to_string_pretty(),
        "rendered SimResult diverged"
    );
    // Field-level checks keep failures readable.
    for (rung, reference) in [("per-slot", &oracle), ("history", &history)] {
        assert_eq!(&reference.counters, &fast.counters, "{rung} counters");
        assert_eq!(&reference.misses, &fast.misses, "{rung} misses");
        assert_eq!(reference.tasks.len(), fast.tasks.len());
        for (o, f) in reference.tasks.iter().zip(fast.tasks.iter()) {
            assert_eq!(o.id, f.id);
            assert_eq!(
                o.scheduled_count, f.scheduled_count,
                "{rung}: task {}",
                o.id
            );
            assert_eq!(o.ps_total, f.ps_total, "{rung}: I_PS of task {}", o.id);
            assert_eq!(o.isw_total, f.isw_total, "{rung}: I_SW of task {}", o.id);
            assert_eq!(o.icsw_total, f.icsw_total, "{rung}: I_CSW of task {}", o.id);
            assert_eq!(
                o.drift.samples(),
                f.drift.samples(),
                "{rung}: drift samples of task {}",
                o.id
            );
        }
    }
    // The history run's per-slot series, net of halted corrections,
    // must sum to the totals every run reports.
    for t in &history.tasks {
        let h = t.history.as_ref().expect("a history run records history");
        let per_slot_sum = h
            .isw_per_slot
            .iter()
            .fold(Rational::ZERO, |acc, a| acc + *a);
        assert_eq!(per_slot_sum, t.isw_total, "per-slot sum of task {}", t.id);
    }
    // The probe saw the same hook stream, slot replay included.
    assert_eq!(
        oracle_metrics.registry().snapshot_text(),
        fast_metrics.registry().snapshot_text(),
        "metrics snapshots diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PD²-OI: rules O and I park enactments on the calendar ring;
    /// spans must split exactly at every enactment boundary.
    #[test]
    fn oi_tickless_matches_per_slot(plan in arb_plan()) {
        assert_tickless_matches_oracle(&plan, SimConfig::oi(plan.processors, HORIZON));
    }

    /// PD²-LJ: withdrawals strand stale queue entries and rule-L
    /// departures land on the leave ring; batching must stay
    /// conservative around both.
    #[test]
    fn lj_tickless_matches_per_slot(plan in arb_plan()) {
        assert_tickless_matches_oracle(&plan, SimConfig::leave_join(plan.processors, HORIZON));
    }

    /// Hybrid policies switch schemes mid-run; quiet-span detection
    /// must hold across the switches.
    #[test]
    fn hybrid_tickless_matches_per_slot(plan in arb_plan(), nth in 1u32..4) {
        let cfg = SimConfig::oi(plan.processors, HORIZON)
            .with_scheme(Scheme::Hybrid(HybridPolicy::EveryNth(nth)));
        assert_tickless_matches_oracle(&plan, cfg);
    }
}

// ---------------------------------------------------------------------
// Busy-span batching: saturated runs where quiet-span skipping never
// fires and the steady busy-span batcher must carry the horizon.
// ---------------------------------------------------------------------

/// Horizon for the saturated scripts: events stop before
/// [`SAT_EVENT_CUTOFF`], leaving a long periodic tail where the batcher
/// is guaranteed at least one whole verified period plus a jump even
/// after maximum verification backoff.
const SAT_HORIZON: i64 = 400;
/// All workload events land strictly before this slot.
const SAT_EVENT_CUTOFF: i64 = 120;

/// One randomized saturated task: a *final* weight in twelfths
/// (denominators {4, 6, 12} before reduction, all light, so every
/// per-task period divides 12 and the busy-span period is at most 12),
/// an optional lower *join* weight reached by reweighting **up** before
/// the cutoff, and an optional short IS delay. Upward reweights under a
/// policing admission never get rejected here — the final weights sum
/// to exactly `M` — so the tail always lands saturated, whatever the
/// scheme does in between (rules O/I under OI, leave+rejoin under LJ).
fn arb_sat_task() -> impl Strategy<Value = (i128, TaskPlan)> {
    let delay = (0u32..=2, 1i64..SAT_EVENT_CUTOFF - 50, 1u32..40)
        .prop_map(|(on, at, by)| (on == 0).then_some((at, by)));
    (
        1i128..=6,               // final weight, twelfths
        1i128..=6,               // join weight, twelfths (clamped to final below)
        0i64..=20,               // join slot
        21i64..SAT_EVENT_CUTOFF, // up-reweight slot
        delay,
    )
        .prop_map(|(fin, join, join_at, up_at, delay)| {
            let join = join.min(fin);
            let reweights = if join < fin {
                vec![(up_at, (fin, 12))]
            } else {
                Vec::new()
            };
            (
                fin,
                TaskPlan {
                    join_weight: (join, 12),
                    join_at,
                    reweights,
                    delay,
                    leave_at: None,
                },
            )
        })
}

/// A saturated plan: random up-reweighting tasks, then deterministic
/// static filler tasks that close the remaining capacity exactly
/// (every weight is a multiple of 1/12, so the spare always clears in
/// units of {6, 3, 2, 1}/12). All events land before the cutoff and no
/// task leaves, so from the cutoff to the horizon the system is exactly
/// saturated and periodic — the regime the busy-span batcher exists
/// for.
fn arb_saturated_plan() -> impl Strategy<Value = Plan> {
    (2u32..=4, prop::collection::vec(arb_sat_task(), 1..=6)).prop_map(|(processors, tasks)| {
        let target = i128::from(processors) * 12;
        let mut twelfths: i128 = 0;
        let mut plan = Plan {
            processors,
            tasks: Vec::new(),
        };
        // Random tasks first, dropped once their final weights would
        // overfill the system.
        for (fin, task) in tasks {
            if twelfths + fin <= target {
                twelfths += fin;
                plan.tasks.push(task);
            }
        }
        for (num, den, unit) in [(1i128, 2i128, 6i128), (1, 4, 3), (1, 6, 2), (1, 12, 1)] {
            while twelfths + unit <= target {
                plan.tasks.push(TaskPlan {
                    join_weight: (num, den),
                    join_at: 0,
                    reweights: Vec::new(),
                    delay: None,
                    leave_at: None,
                });
                twelfths += unit;
            }
        }
        plan
    })
}

/// Asserts the three drivers agree bit-for-bit on a saturated script —
/// busy-span batching (the default), plain tickless, and the per-slot
/// oracle — and that the batcher actually jumped (the tail is periodic
/// with period ≤ 12, so at least one verified span must land even after
/// maximum verification backoff). The batched run carries a
/// `MetricsProbe`: batching must still engage under it, and the
/// registry it scales across the jumps must be bit-identical to the one
/// the per-slot oracle accumulates hook by hook.
fn assert_busy_span_matches_oracle(plan: &Plan, cfg: SimConfig) {
    let w = workload_of(plan);
    let mut engine = Engine::with_probe(cfg.clone(), &w, MetricsProbe::new());
    engine.run();
    let jumps = engine.busy_span_jumps();
    let (fast, fast_metrics) = engine.finish_with_probe();
    let tickless = simulate(cfg.clone().without_busy_span(), &w);
    let (oracle, oracle_metrics) = simulate_with(cfg.per_slot(), &w, MetricsProbe::new());
    assert!(
        jumps > 0,
        "busy-span batching never engaged on a saturated periodic tail"
    );
    let rendered = fast.to_json().to_string_pretty();
    assert_eq!(
        rendered,
        tickless.to_json().to_string_pretty(),
        "busy-span vs tickless diverged"
    );
    assert_eq!(
        rendered,
        oracle.to_json().to_string_pretty(),
        "busy-span vs per-slot oracle diverged"
    );
    assert_eq!(
        oracle_metrics.registry().snapshot_text(),
        fast_metrics.registry().snapshot_text(),
        "span-aggregated metrics diverged from the per-slot oracle"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PD²-OI, saturated: rules O and I fire inside the event window,
    /// then the batcher owns the periodic tail.
    #[test]
    fn oi_busy_span_matches_oracle(plan in arb_saturated_plan()) {
        assert_busy_span_matches_oracle(&plan, SimConfig::oi(plan.processors, SAT_HORIZON));
    }

    /// PD²-LJ, saturated: stale queue entries stranded by withdrawals
    /// must be classified (and translated) by the span verifier.
    #[test]
    fn lj_busy_span_matches_oracle(plan in arb_saturated_plan()) {
        assert_busy_span_matches_oracle(
            &plan,
            SimConfig::leave_join(plan.processors, SAT_HORIZON),
        );
    }

    /// Hybrid, saturated: the selector's request counters must be part
    /// of the verified fixed point.
    #[test]
    fn hybrid_busy_span_matches_oracle(plan in arb_saturated_plan(), nth in 1u32..4) {
        let cfg = SimConfig::oi(plan.processors, SAT_HORIZON)
            .with_scheme(Scheme::Hybrid(HybridPolicy::EveryNth(nth)));
        assert_busy_span_matches_oracle(&plan, cfg);
    }

    /// A snapshot taken in the middle of a busy span restores to the
    /// identical trajectory: `snapshot_at` steps the per-slot pipeline
    /// to an arbitrary slot (usually interior to a span the batcher
    /// would have jumped over), and the resumed run — which re-arms
    /// batching from scratch — must render byte-identically to the
    /// uninterrupted batched run.
    #[test]
    fn mid_busy_span_snapshot_restores_identically(
        plan in arb_saturated_plan(),
        cut in 150i64..SAT_HORIZON - 10,
    ) {
        let cfg = SimConfig::oi(plan.processors, SAT_HORIZON);
        let w = workload_of(&plan);
        let uninterrupted = {
            let mut e = Engine::new(cfg.clone(), &w);
            e.run();
            prop_assert!(e.busy_span_jumps() > 0);
            e.finish()
        };
        let snap = Engine::new(cfg, &w)
            .snapshot_at(cut)
            .expect("snapshot at a slot boundary");
        let mut resumed = Engine::restore(snap, NoopProbe).expect("restore");
        resumed.run();
        let resumed = resumed.finish();
        prop_assert_eq!(
            uninterrupted.to_json().to_string_pretty(),
            resumed.to_json().to_string_pretty(),
            "snapshot/restore diverged from the uninterrupted busy-span run"
        );
    }
}

/// A deterministic long-horizon whisper-style run: sparse weights open
/// hundreds-of-slots quiet spans, rotating the calendar ring many times
/// and mixing skipped spans with full pipeline slots.
#[test]
fn long_sparse_run_is_bit_identical() {
    let mut w = Workload::new();
    for i in 0..6u32 {
        w.join(i, i64::from(i) * 3, 1, 100 + i128::from(i) * 7);
    }
    w.reweight(0, 400, 1, 80);
    w.reweight(1, 1_000, 1, 150);
    w.delay(2, 500, 700); // past the ring window: overflow + rotation
    w.leave(3, 2_000);
    w.reweight(4, 3_000, 1, 90);
    let cfg = SimConfig::oi(4, 5_000);
    let (oracle, om) = simulate_with(cfg.clone().per_slot(), &w, MetricsProbe::new());
    let (fast, fm) = simulate_with(cfg, &w, MetricsProbe::new());
    assert_eq!(
        oracle.to_json().to_string_pretty(),
        fast.to_json().to_string_pretty()
    );
    assert_eq!(om.registry().snapshot_text(), fm.registry().snapshot_text());
}
