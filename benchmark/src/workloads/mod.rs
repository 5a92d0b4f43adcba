//! The four workloads. Each stresses different layers (see the README's
//! interaction table); names are fixed, sizes are `Size::Full` or the
//! ~1/50 `Size::Smoke`.

pub mod population;
pub mod reweight_storm;
pub mod steady_spans;
pub mod whisper_sweep;

use crate::gen::Fnv;
use pfair_core::rational::Rational;
use pfair_core::time::Slot;
use pfair_sched::engine::{simulate, Engine, SimConfig};
use pfair_sched::event::Workload as Events;
use pfair_sched::overhead::Counters;
use pfair_sched::trace::SimResult;
use pfair_sched::verify::verify;

/// A rational number of quanta in 10⁻³ quanta.
pub fn milli(r: Rational) -> f64 {
    r.to_f64() * 1000.0
}

/// Field-wise sum of two counter sets.
pub fn add_counters(a: &Counters, b: &Counters) -> Counters {
    Counters {
        heap_pushes: a.heap_pushes + b.heap_pushes,
        heap_pops: a.heap_pops + b.heap_pops,
        stale_pops: a.stale_pops + b.stale_pops,
        reweight_initiations: a.reweight_initiations + b.reweight_initiations,
        reweight_enactments: a.reweight_enactments + b.reweight_enactments,
        halts: a.halts + b.halts,
        scheduled_quanta: a.scheduled_quanta + b.scheduled_quanta,
        slots_with_holes: a.slots_with_holes + b.slots_with_holes,
        migrations: a.migrations + b.migrations,
        preemptions: a.preemptions + b.preemptions,
        rejected_heavy_reweights: a.rejected_heavy_reweights + b.rejected_heavy_reweights,
        compactions: a.compactions + b.compactions,
        compacted_stale: a.compacted_stale + b.compacted_stale,
    }
}

/// Folds one engine result into an output digest: per task the quanta
/// received, both ideal totals and every drift sample, then the misses.
pub fn digest_result(h: &mut Fnv, r: &SimResult) {
    let rational = |h: &mut Fnv, q: Rational| {
        h.bytes(&q.numer().to_le_bytes());
        h.bytes(&q.denom().to_le_bytes());
    };
    for t in &r.tasks {
        h.u64(t.scheduled_count);
        rational(h, t.ps_total);
        rational(h, t.icsw_total);
        for s in t.drift.samples() {
            h.u64(s.at as u64);
            rational(h, s.drift);
        }
    }
    h.u64(r.misses.len() as u64);
}

/// What the default driver did on an oracle twin.
pub struct TwinRun {
    pub result: SimResult,
    pub busy_span_jumps: u64,
}

/// The oracle checks of the reweighting workloads, on a reduced twin:
/// the default driver's result equals the `per_slot()` oracle's
/// (counters, misses, per-task quanta, ideal totals and drift), it is
/// miss-free, and `verify()` over a `with_history()` run of the first
/// `history_slots` slots finds no violation (history materializes
/// per-slot series, so it gets the shorter prefix).
pub fn check_against_oracle(
    checks: &mut crate::harness::Checks,
    label: &str,
    config: &SimConfig,
    events: &Events,
    history_slots: Slot,
) -> TwinRun {
    let mut engine = Engine::new(config.clone(), events);
    engine.run();
    let busy_span_jumps = engine.busy_span_jumps();
    let fast = engine.finish();
    let oracle = simulate(config.clone().per_slot(), events);
    let digest = |r: &SimResult| {
        let mut h = Fnv::new();
        digest_result(&mut h, r);
        h.finish()
    };
    checks.expect(
        fast.counters == oracle.counters && digest(&fast) == digest(&oracle),
        format!("{label}: default driver differs from the per-slot oracle"),
    );
    checks.expect(fast.is_miss_free(), format!("{label}: deadline misses"));
    let history = SimConfig {
        horizon: history_slots.min(config.horizon),
        ..config.clone().with_history()
    };
    let violations = verify(&simulate(history, events));
    checks.expect(
        violations.is_empty(),
        format!(
            "{label}: verify() found {} violation(s), first: {}",
            violations.len(),
            violations
                .first()
                .map_or(String::new(), ToString::to_string)
        ),
    );
    TwinRun {
        result: fast,
        busy_span_jumps,
    }
}
