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
//! History runs meet here too. A history run records each task's
//! `I_SW` slot by slot from `pfair-core`'s pure-`Rational` Fig. 5
//! ([`HistoryRecorder`]), beside whichever driver the configuration
//! names, replaying a busy span's period for every period it jumps. Its
//! histories must be byte-identical under all three drivers, its other
//! figures those of a run without history, and its per-slot series must
//! sum to the totals the engine's closed-form era-unit trackers report.

use pfair_core::rational::Rational;
use pfair_json::ToJson;
use pfair_obs::{Fanout, MetricsProbe, NoopProbe};
use pfair_sched::engine::{simulate, simulate_with, Engine, SimConfig, MAX_CPU_ROTATION};
use pfair_sched::event::Workload;
use pfair_sched::history::HistoryRecorder;
use pfair_sched::overhead::DriverMix;
use pfair_sched::reweight::{HybridPolicy, Scheme};
use pfair_sched::trace::SimResult;
use proptest::prelude::*;

#[path = "common/plan.rs"]
mod plan;
use plan::{arb_plan, workload_of, Plan, TaskPlan, HORIZON};

/// The history run of `w` under the default driver, after holding it
/// to the history runs under the other two: rendered results (histories
/// included) byte-identical, and per task the per-slot `I_SW` series
/// summing to `isw_total` and, net of the halted corrections, to
/// `icsw_total`.
fn history_agrees_across_drivers(w: &Workload, cfg: &SimConfig) -> SimResult {
    let cfg = cfg.clone().with_history();
    let history = simulate(cfg.clone(), w);
    let rendered = history.to_json_pretty();
    for (rung, other) in [
        ("per-slot", cfg.clone().per_slot()),
        ("tickless", cfg.clone().without_busy_span()),
    ] {
        assert_eq!(
            rendered,
            simulate(other, w).to_json_pretty(),
            "{rung} history diverged"
        );
    }
    let sum =
        |series: &mut dyn Iterator<Item = Rational>| series.fold(Rational::ZERO, |a, b| a + b);
    for t in &history.tasks {
        let h = t.history.as_ref().expect("a history run records history");
        let isw = sum(&mut h.isw_per_slot.iter().copied());
        let halted = sum(&mut h.halted_corrections.iter().map(|&(_, a)| a));
        assert_eq!(isw, t.isw_total, "per-slot I_SW of task {}", t.id);
        assert_eq!(
            isw - halted,
            t.icsw_total,
            "per-slot I_CSW of task {}",
            t.id
        );
    }
    history
}

/// Asserts a batched run is bit-identical to the per-slot oracle on the
/// same workload: rendered results, drift samples, counters, and the
/// metrics registry a probe accumulates from the replayed hook stream;
/// and that a history run, whose `I_SW` is an independent per-slot
/// Fig. 5, agrees with itself across drivers and reports the same
/// aggregates.
fn assert_tickless_matches_oracle(plan: &Plan, cfg: SimConfig) {
    let w = workload_of(plan);
    let (oracle, oracle_metrics) = simulate_with(cfg.clone().per_slot(), &w, MetricsProbe::new());
    // A history run's rendering carries the per-slot series, so it is
    // compared field by field below.
    let history = history_agrees_across_drivers(&w, &cfg);
    // Busy-span driver under the no-op probe: whether or not any jump
    // lands on this script, the result must match.
    let busy = simulate(cfg.clone(), &w);
    assert_eq!(
        oracle.to_json_pretty(),
        busy.to_json_pretty(),
        "busy-span driver diverged from the oracle"
    );
    // `MetricsProbe` is span-aware, so this run may take quiet-span and
    // busy-span shortcuts — its registry must still match the per-slot
    // oracle's exactly.
    let (fast, fast_metrics) = simulate_with(cfg, &w, MetricsProbe::new());

    // One canonical rendering covers every field SimResult reports
    // (totals, drift, misses, counters, horizon).
    assert_eq!(
        oracle.to_json_pretty(),
        fast.to_json_pretty(),
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
            assert_eq!(o.drift, f.drift, "{rung}: drift samples of task {}", o.id);
        }
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
/// [`SAT_EVENT_CUTOFF`], leaving a long periodic tail with room for a
/// whole verified period plus a jump even after maximum verification
/// backoff (see [`assert_jumped_or_fell_back`] for when none lands).
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
        .prop_map(|(fin, join, join_at, up_at, delay)| sat_task(fin, join, join_at, up_at, delay))
}

/// A saturated task of final weight `fin` twelfths, joining at `join`
/// twelfths (clamped to `fin`) and reweighting up at `up_at`.
fn sat_task(
    fin: i128,
    join: i128,
    join_at: i64,
    up_at: i64,
    delay: Option<(i64, u32)>,
) -> (i128, TaskPlan) {
    let join = join.min(fin);
    let reweights = (join < fin)
        .then_some((up_at, (fin, 12)))
        .into_iter()
        .collect();
    let task = TaskPlan {
        join_weight: (join, 12),
        join_at,
        reweights,
        delay,
        leave_at: None,
    };
    (fin, task)
}

/// A saturated plan: random up-reweighting tasks, then deterministic
/// static filler tasks that close the remaining capacity exactly
/// (every weight is a multiple of 1/12, so the spare always clears in
/// units of {6, 3, 2, 1}/12). All events land before the cutoff and no
/// task leaves, so from the cutoff to the horizon the system is exactly
/// saturated and periodic — the regime the busy-span batcher exists
/// for.
fn arb_saturated_plan() -> impl Strategy<Value = Plan> {
    (2u32..=4, prop::collection::vec(arb_sat_task(), 1..=6))
        .prop_map(|(processors, tasks)| saturated(processors, tasks))
}

/// `tasks` on `processors`, closed to exactly full by the fillers.
fn saturated(processors: u32, tasks: Vec<(i128, TaskPlan)>) -> Plan {
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
    for unit in [6, 3, 2, 1] {
        while twelfths + unit <= target {
            plan.tasks.push(sat_task(unit, unit, 0, 0, None).1);
            twelfths += unit;
        }
    }
    plan
}

/// A periodic saturated tail (period ≤ 12) jumps unless the driver mix
/// shows one of two documented fallbacks, each pinned by a fixed case
/// below: the sticky processor assignment cycles longer than the
/// rotation window opens to (every verification a rotation, the window
/// at [`MAX_CPU_ROTATION`]); or every slot of the tail runs exactly
/// what it releases, so the per-slot oracle's queue is empty at every
/// boundary from [`SAT_EVENT_CUTOFF`] on: arming needs a queued
/// subtask, and a quiet span has a release due in every slot.
fn assert_jumped_or_fell_back(mix: DriverMix, plan: &Plan, cfg: &SimConfig) {
    if mix.jumps > 0 || mix.longest_rotation == MAX_CPU_ROTATION.unsigned_abs() {
        return;
    }
    let mut e = Engine::new(cfg.clone().per_slot(), &workload_of(plan));
    while e.now() < cfg.horizon {
        e.step();
        assert!(
            e.now() < SAT_EVENT_CUTOFF || e.queue_len() == 0,
            "busy-span batching never engaged on a saturated periodic tail: {mix:?}"
        );
    }
}

/// Asserts the three drivers agree bit-for-bit on a saturated script —
/// busy-span batching (the default), plain tickless, and the per-slot
/// oracle — and that the batcher jumped or fell back as documented
/// ([`assert_jumped_or_fell_back`]); returns its driver mix. The
/// batched run carries a
/// `MetricsProbe`: batching must still engage under it, and the
/// registry it scales across the jumps must be bit-identical to the one
/// the per-slot oracle accumulates hook by hook. It carries a
/// `HistoryRecorder` too, whose replay of the jumped periods must give
/// the per-slot oracle's histories.
fn assert_busy_span_matches_oracle(plan: &Plan, cfg: SimConfig) -> DriverMix {
    let w = workload_of(plan);
    let probe = Fanout(MetricsProbe::new(), HistoryRecorder::new());
    let mut engine = Engine::with_probe(cfg.clone(), &w, probe);
    engine.run();
    let mix = engine.driver_mix();
    let (fast, Fanout(fast_metrics, recorder)) = engine.finish_with_probe();
    let history = history_agrees_across_drivers(&w, &cfg);
    let mut replayed = fast.clone();
    recorder.fill(&mut replayed);
    assert_eq!(
        replayed.to_json_pretty(),
        history.to_json_pretty(),
        "a jumped run's recorded history diverged"
    );
    let tickless = simulate(cfg.clone().without_busy_span(), &w);
    let (oracle, oracle_metrics) = simulate_with(cfg.clone().per_slot(), &w, MetricsProbe::new());
    assert_jumped_or_fell_back(mix, plan, &cfg);
    let rendered = fast.to_json_pretty();
    assert_eq!(
        rendered,
        tickless.to_json_pretty(),
        "busy-span vs tickless diverged"
    );
    assert_eq!(
        rendered,
        oracle.to_json_pretty(),
        "busy-span vs per-slot oracle diverged"
    );
    assert_eq!(
        oracle_metrics.registry().snapshot_text(),
        fast_metrics.registry().snapshot_text(),
        "span-aggregated metrics diverged from the per-slot oracle"
    );
    mix
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
    /// identical trajectory: `snapshot_at` runs the default driver to
    /// an arbitrary slot (usually interior to a span the uninterrupted
    /// batcher jumps over; the segment limit stops this run's jumps
    /// there), and the resumed run — which re-arms batching from
    /// scratch — must render byte-identically to the uninterrupted
    /// batched run.
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
            assert_jumped_or_fell_back(e.driver_mix(), &plan, &cfg);
            e.finish()
        };
        let snap = Engine::new(cfg, &w)
            .snapshot_at(cut)
            .expect("snapshot at a slot boundary");
        let mut resumed = Engine::restore(snap, NoopProbe).expect("restore");
        resumed.run();
        let resumed = resumed.finish();
        prop_assert_eq!(
            uninterrupted.to_json_pretty(),
            resumed.to_json_pretty(),
            "snapshot/restore diverged from the uninterrupted busy-span run"
        );
    }
}

/// The first documented fallback, as the saturated generator drew it:
/// four processors, last event at slot 99, and a sticky-processor cycle
/// longer than the rotation window. Every verification finds only the
/// placement rotating, the window opens to its cap, nothing jumps, and
/// the stepped run is the oracle's, bit for bit.
#[test]
fn a_rotation_cycle_past_the_window_is_stepped() {
    let tasks = vec![
        sat_task(3, 3, 6, 0, Some((21, 23))),
        sat_task(6, 2, 6, 23, None),
        sat_task(4, 3, 2, 21, None),
        sat_task(3, 1, 1, 99, None),
        sat_task(4, 3, 16, 64, None),
    ];
    let mix = assert_busy_span_matches_oracle(&saturated(4, tasks), SimConfig::oi(4, SAT_HORIZON));
    let capped = mix.longest_rotation == MAX_CPU_ROTATION.unsigned_abs();
    assert!(mix.jumps == 0 && capped, "{mix:?}");
}

/// The second documented fallback, as the generator drew it: four
/// tasks reaching weight 1/2 on two processors, every second reweight
/// leave/join. Every slot of the tail runs exactly the subtasks it
/// releases, so the queue is empty at every boundary, nothing arms, and
/// the stepped run is the oracle's, bit for bit.
#[test]
fn a_tail_that_never_queues_is_stepped() {
    let tasks = vec![
        sat_task(6, 6, 15, 0, None),
        sat_task(6, 3, 20, 50, Some((59, 22))),
        sat_task(6, 4, 7, 54, None),
        sat_task(6, 1, 2, 27, None),
    ];
    let cfg = SimConfig::oi(2, SAT_HORIZON).with_scheme(Scheme::Hybrid(HybridPolicy::EveryNth(2)));
    let mix = assert_busy_span_matches_oracle(&saturated(2, tasks), cfg);
    assert!(
        (mix.arms, mix.jumps, mix.longest_rotation) == (0, 0, 0),
        "{mix:?}"
    );
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
    assert_eq!(oracle.to_json_pretty(), fast.to_json_pretty());
    assert_eq!(om.registry().snapshot_text(), fm.registry().snapshot_text());
}
