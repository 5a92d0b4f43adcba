//! Recovery ≡ uninterrupted execution, bit for bit.
//!
//! The persistence invariant (see `pfair-persist` docs): snapshot a
//! run at slot `k`, serialize the snapshot (and the observer's metrics
//! registry) to text, drop the engine, parse everything back, restore,
//! and run to the horizon — the rendered `SimResult`, every overhead
//! counter, every drift sample, and the final metrics registry are
//! **bit-identical** to the run that was never interrupted. Randomized
//! AIS scripts across OI, LJ, and hybrid schemes exercise reweights
//! (rules O/I/L/J), IS delays past the calendar-ring window, rule-L
//! leaves, and admission rejections; every case is checked under both
//! the tickless driver and the per-slot oracle. A separate suite of
//! deterministic tests covers segmented execution.

use pfair_json::{FromJson, Json, ToJson};
use pfair_obs::{MetricsProbe, Registry};
use pfair_persist::{run_segments, snapshot_from_str, snapshot_to_string};
use pfair_sched::engine::{simulate, simulate_with, Engine, SimConfig};
use pfair_sched::event::Workload;
use pfair_sched::reweight::{HybridPolicy, Scheme};
use proptest::prelude::*;

#[path = "../../pfair-sched/tests/common/plan.rs"]
mod plan;
use plan::{arb_plan, workload_of, Plan, HORIZON};

/// One interruption experiment under one configuration: straight run
/// vs snapshot-at-`k` → serialize → drop → parse → restore → run.
fn assert_recovery_matches(w: &Workload, cfg: SimConfig, snap_at: i64) {
    let (reference, ref_metrics) = simulate_with(cfg.clone(), w, MetricsProbe::new());

    // The interrupted run, observed by the same probe kind.
    let mut engine = Engine::with_probe(cfg, w, MetricsProbe::new());
    let snapshot = engine.snapshot_at(snap_at).expect("snapshot");
    let snapshot_text = snapshot_to_string(&snapshot);
    let registry_text = engine.probe_mut().registry().to_json_pretty();
    drop(engine); // process death: only the two texts survive

    let recovered = snapshot_from_str(&snapshot_text).expect("snapshot recovers");
    let registry = Registry::from_json(&Json::parse(&registry_text).expect("registry parses"))
        .expect("registry recovers");
    let mut resumed =
        Engine::restore(recovered, MetricsProbe::from_registry(registry)).expect("restore");
    resumed.run();
    let (result, metrics) = resumed.finish_with_probe();

    // One canonical rendering covers every field SimResult reports.
    assert_eq!(
        reference.to_json_pretty(),
        result.to_json_pretty(),
        "rendered SimResult diverged after recovery at slot {snap_at}"
    );
    // Field-level spot checks keep failures readable.
    assert_eq!(&reference.counters, &result.counters);
    assert_eq!(&reference.misses, &result.misses);
    for (o, f) in reference.tasks.iter().zip(result.tasks.iter()) {
        assert_eq!(o.drift, f.drift, "drift samples of task {}", o.id);
    }
    // The resumed probe continued from the persisted registry: final
    // registries must be byte-identical snapshots.
    assert_eq!(
        ref_metrics.registry().snapshot_text(),
        metrics.registry().snapshot_text(),
        "metrics snapshots diverged after recovery at slot {snap_at}"
    );
}

/// Both drivers: the tickless default and the per-slot oracle.
fn assert_recovery_both_drivers(plan: &Plan, cfg: SimConfig, snap_at: i64) {
    let w = workload_of(plan);
    assert_recovery_matches(&w, cfg.clone(), snap_at);
    assert_recovery_matches(&w, cfg.per_slot(), snap_at);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// PD²-OI: snapshots land amid parked rule-O/I enactments on the
    /// calendar ring; restoring must preserve each pending wait.
    #[test]
    fn oi_recovery_matches_uninterrupted(plan in arb_plan(), snap_at in 1i64..HORIZON) {
        assert_recovery_both_drivers(&plan, SimConfig::oi(plan.processors, HORIZON), snap_at);
    }

    /// PD²-LJ: snapshots capture withdrawn (stale) queue entries and
    /// scheduled rule-L departures; both must survive the round trip.
    #[test]
    fn lj_recovery_matches_uninterrupted(plan in arb_plan(), snap_at in 1i64..HORIZON) {
        assert_recovery_both_drivers(
            &plan,
            SimConfig::leave_join(plan.processors, HORIZON),
            snap_at,
        );
    }

    /// Hybrids: the per-task selector state (OI-budget windows, event
    /// counters) is part of the snapshot; a restored run must make the
    /// same O-I-vs-LJ choices the uninterrupted one does.
    #[test]
    fn hybrid_recovery_matches_uninterrupted(plan in arb_plan(), snap_at in 1i64..HORIZON, nth in 1u32..4) {
        let cfg = SimConfig::oi(plan.processors, HORIZON)
            .with_scheme(Scheme::Hybrid(HybridPolicy::EveryNth(nth)));
        assert_recovery_both_drivers(&plan, cfg, snap_at);
    }

    /// Segmented execution is exactly one-shot execution, for any chunk
    /// count — every boundary passes through serialize → parse →
    /// restore.
    #[test]
    fn segmented_run_matches_one_shot(plan in arb_plan(), segments in 1u32..6) {
        let w = workload_of(&plan);
        let cfg = SimConfig::oi(plan.processors, HORIZON);
        let reference = simulate(cfg.clone(), &w);
        let segmented = run_segments(cfg, &w, segments).expect("segmented run");
        prop_assert_eq!(
            reference.to_json_pretty(),
            segmented.to_json_pretty()
        );
    }
}

/// A deterministic long-horizon sparse run interrupted mid-flight: the
/// calendar rings rotate many times, the snapshot lands between
/// far-apart events, and recovery still reproduces the run bit for
/// bit under both drivers.
#[test]
fn long_sparse_recovery_is_bit_identical() {
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
    for snap_at in [499, 512, 1_024, 2_600, 4_999] {
        assert_recovery_matches(&w, cfg.clone(), snap_at);
    }
    assert_recovery_matches(&w, cfg.per_slot(), 2_600);
}
