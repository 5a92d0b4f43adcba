//! The driver ladder on Whisper's twelve-task engines: what each rung
//! did, pinned slot for slot. Whisper reweights every few slots, so
//! the busy-span driver looks for a span on nearly every slot and
//! refuses nearly every one; how it refuses is a cost, not a verdict,
//! and these mixes hold the verdicts — and the number of scans — to
//! what they were before that cost was cut.

use pfair_sched::engine::{Engine, SimConfig};
use pfair_sched::overhead::DriverMix;
use pfair_sched::reweight::Scheme;
use whisper_sim::{generate_workload, Scenario, HORIZON, PROCESSORS};

/// `(per_slot, quiet_span, arms, period_scans, mismatches)`; no run
/// jumps, rotates or backs off.
type Mix = (u64, u64, u64, u64, u64);

fn mix_of(m: DriverMix) -> Mix {
    assert_eq!(
        (m.busy_span_slots, m.jumps, m.cpu_rotations),
        (0, 0, 0),
        "{m:?}"
    );
    assert_eq!((m.longest_rotation, m.longest_backoff), (0, 0), "{m:?}");
    (
        m.per_slot_slots,
        m.quiet_span_slots,
        m.arms,
        m.period_scans,
        m.mismatches,
    )
}

#[test]
fn whisper_engines_keep_their_driver_mix() {
    // (speed, radius, occlusion, seed), then the OI and the LJ run's mix.
    let cases = [
        (
            (2.9, 0.25, true, 1),
            (1000, 0, 0, 55, 0),
            (1000, 0, 0, 51, 0),
        ),
        (
            (0.5, 0.25, false, 2),
            (998, 2, 0, 51, 0),
            (998, 2, 0, 50, 0),
        ),
        (
            (3.5, 0.1, true, 3),
            (1000, 0, 3, 15, 3),
            (1000, 0, 3, 15, 3),
        ),
    ];
    for ((speed, radius, occlusion, seed), oi, lj) in cases {
        let events = generate_workload(&Scenario::new(speed, radius, occlusion, seed));
        for (scheme, expected) in [(Scheme::Oi, oi), (Scheme::LeaveJoin, lj)] {
            let config = SimConfig::oi(PROCESSORS, HORIZON).with_scheme(scheme);
            let mut engine = Engine::new(config, &events);
            engine.run();
            assert_eq!(
                mix_of(engine.driver_mix()),
                expected,
                "speed {speed}, radius {radius}, occlusion {occlusion}, seed {seed}"
            );
        }
    }
}
