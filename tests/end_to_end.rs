//! Cross-crate integration tests: the Whisper workload generator
//! (`whisper-sim`) driving the PD² engine (`pfair-sched`) with exact
//! drift accounting (`pfair-core`).

use pfair_repro::prelude::*;
use pfair_repro::sched::reweight::HybridPolicy;
use pfair_repro::whisper::{generate_workload, run_whisper, Scenario, HORIZON, PROCESSORS};

/// Theorem 2 on the real workload: no Whisper run under PD²-OI misses,
/// at any speed.
#[test]
fn whisper_oi_is_always_miss_free() {
    for speed in [0.5, 2.0, 3.5] {
        for seed in 0..3 {
            let m = run_whisper(&Scenario::new(speed, 0.25, true, seed), Scheme::Oi);
            assert_eq!(m.misses, 0, "speed {speed} seed {seed}");
        }
    }
}

/// Theorem 5 on the real workload: per-event drift of every task stays
/// within two quanta under PD²-OI.
#[test]
fn whisper_oi_drift_is_fine_grained() {
    let sc = Scenario::new(2.9, 0.25, true, 11);
    let w = generate_workload(&sc);
    let r = simulate(SimConfig::oi(PROCESSORS, HORIZON), &w);
    assert!(r.is_miss_free());
    assert!(
        r.max_abs_drift_delta() <= rat(2, 1),
        "per-event drift {}",
        r.max_abs_drift_delta()
    );
}

/// The §5 headline on matched seeds: PD²-OI completes at least as much
/// of the ideal allocation as PD²-LJ, and accumulates no more drift.
#[test]
fn whisper_oi_dominates_lj() {
    let mut oi_wins_pct = 0;
    let mut oi_wins_drift = 0;
    const SEEDS: u64 = 6;
    for seed in 0..SEEDS {
        let sc = Scenario::new(2.9, 0.25, true, seed);
        let oi = run_whisper(&sc, Scheme::Oi);
        let lj = run_whisper(&sc, Scheme::LeaveJoin);
        if oi.pct_of_ideal >= lj.pct_of_ideal {
            oi_wins_pct += 1;
        }
        if oi.max_drift <= lj.max_drift {
            oi_wins_drift += 1;
        }
    }
    assert!(
        oi_wins_pct >= SEEDS - 1,
        "OI won pct only {oi_wins_pct}/{SEEDS}"
    );
    assert!(
        oi_wins_drift >= SEEDS - 1,
        "OI won drift only {oi_wins_drift}/{SEEDS}"
    );
}

/// Simulations are deterministic: the same seed yields bit-identical
/// metrics; different seeds differ.
#[test]
fn whisper_runs_are_deterministic() {
    let sc = Scenario::new(2.0, 0.25, true, 5);
    let a = run_whisper(&sc, Scheme::Oi);
    let b = run_whisper(&sc, Scheme::Oi);
    assert_eq!(a.max_drift, b.max_drift);
    assert_eq!(a.pct_of_ideal, b.pct_of_ideal);
    assert_eq!(a.counters, b.counters);
    let c = run_whisper(&Scenario::new(2.0, 0.25, true, 6), Scheme::Oi);
    assert!(a.max_drift != c.max_drift || a.pct_of_ideal != c.pct_of_ideal);
}

/// Hybrid schemes land between the pure schemes on the Whisper workload
/// (within noise): drift(OI) ≤ drift(hybrid) ⪅ drift(LJ).
#[test]
fn whisper_hybrid_sits_between() {
    let sc = Scenario::new(2.9, 0.25, true, 17);
    let oi = run_whisper(&sc, Scheme::Oi);
    let lj = run_whisper(&sc, Scheme::LeaveJoin);
    let hy = run_whisper(
        &sc,
        Scheme::Hybrid(HybridPolicy::MagnitudeThreshold(rat(1, 5))),
    );
    assert_eq!(hy.misses, 0);
    let lo = oi.max_drift.min(lj.max_drift) - 0.75;
    let hi = oi.max_drift.max(lj.max_drift) + 0.75;
    assert!(
        (lo..=hi).contains(&hy.max_drift),
        "hybrid drift {} outside [{}, {}]",
        hy.max_drift,
        lo,
        hi
    );
}

/// Occlusion never breaks correctness and increases the total demand.
#[test]
fn whisper_occlusion_effects() {
    let occ = generate_workload(&Scenario::new(2.9, 0.35, true, 4));
    let no = generate_workload(&Scenario::new(2.9, 0.35, false, 4));
    let r_occ = simulate(SimConfig::oi(PROCESSORS, HORIZON), &occ);
    let r_no = simulate(SimConfig::oi(PROCESSORS, HORIZON), &no);
    assert!(r_occ.is_miss_free());
    assert!(r_no.is_miss_free());
    let ideal = |r: &SimResult| r.tasks.iter().map(|t| t.ps_total.to_f64()).sum::<f64>();
    assert!(
        ideal(&r_occ) >= ideal(&r_no),
        "occlusion should only increase demanded shares"
    );
}

/// Policing in action: the Whisper worst case (12 × 1/3 = 4.0) saturates
/// the four processors, yet (W) holds and nothing misses even when every
/// task asks for its maximum simultaneously.
#[test]
fn saturation_burst_is_policed_safely() {
    let mut w = Workload::new();
    for i in 0..12 {
        w.join(i, 0, 1, 10);
    }
    for i in 0..12 {
        w.reweight(i, 5, 1, 3); // everyone wants 1/3 at once: 4.0 total
        w.reweight(i, 60, 1, 10); // and calms down later
    }
    let r = simulate(SimConfig::oi(4, 200), &w);
    assert!(r.is_miss_free(), "misses: {:?}", r.misses);
    assert!(r.max_abs_drift_delta() <= rat(2, 1));
    // The same all-N burst through rules L/J: coarser, still correct.
    let lj = simulate(SimConfig::leave_join(4, 200), &w);
    assert!(lj.is_miss_free(), "LJ misses: {:?}", lj.misses);
}

/// Over-subscription: requests beyond capacity get clamped, never
/// granted — the system stays correct under denial-of-capacity stress.
#[test]
fn oversubscription_is_clamped_not_fatal() {
    let mut w = Workload::new();
    for i in 0..20 {
        w.join(i, 0, 1, 10); // 2.0 total on 4 CPUs
    }
    for i in 0..20 {
        w.reweight(i, 10, 1, 2); // everyone wants 1/2: 10.0 ≫ 4
    }
    let r = simulate(SimConfig::oi(4, 120), &w);
    assert!(r.is_miss_free());
    // The grants cannot exceed capacity: total scheduled work per slot
    // is at most M; over 110 post-burst slots at most 4 quanta each.
    let total: u64 = r.tasks.iter().map(|t| t.scheduled_count).sum();
    assert!(total <= 4 * 120);
}

/// Full independent verification of a Whisper run: windows (including
/// admission-policed weights with large denominators), schedule sanity,
/// capacity, misses, and lag — certified by `pfair_sched::verify`.
#[test]
fn whisper_run_verifies_independently() {
    use pfair_repro::sched::verify::assert_verified;
    let sc = Scenario::new(2.9, 0.25, true, 21);
    let w = generate_workload(&sc);
    let r = simulate(SimConfig::oi(PROCESSORS, HORIZON).with_history(), &w);
    assert_verified(&r);
    let lj = simulate(
        SimConfig::oi(PROCESSORS, HORIZON)
            .with_scheme(Scheme::LeaveJoin)
            .with_history(),
        &w,
    );
    assert_verified(&lj);
}
