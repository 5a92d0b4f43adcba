//! The arithmetic budget at join and reweight initiation.
//!
//! Every era-unit count, weight and deadline the engine keeps is a
//! 64-bit integer; a join or an initiation whose arithmetic could leave
//! that range is refused before admission writes anything, with one
//! `ObsEvent::Refused` and no other trace. These tests hold the three
//! checks at their boundaries, and the exact ledgers of committed
//! weights (admission's and the shard supervisor's) at theirs. CI runs this file in release mode too:
//! the checked `i64` arithmetic must hold without debug assertions.

use pfair_core::rational::{rat, Rational};
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_json::{FromJson, Json, ToJson};
use pfair_obs::{NoopProbe, ObsEvent, Refusal, TraceRecorder};
use pfair_sched::engine::{simulate, simulate_with, Engine, EngineSnapshot, SimConfig};
use pfair_sched::event::Workload;
use pfair_sched::shard::{ShardSet, ShardSpec};
use pfair_sched::trace::SimResult;
use pfair_sched::verify::verify;

/// Two primes just below 2⁴⁰: their product, an era unit that would
/// carry both, needs 80 bits.
const Q1: i128 = 1_099_511_627_609;
const Q2: i128 = 1_099_511_627_689;

/// `i64::MAX = 64897 · D` exactly: a unit of `D` at horizon 64896 is
/// the largest the budget admits.
const D: i128 = 142_123_242_012_031;
const EDGE_HORIZON: Slot = 64_896;

fn refusals(trace: &TraceRecorder) -> Vec<(TaskId, Slot, Refusal)> {
    (trace.events().iter())
        .filter_map(|e| match *e {
            ObsEvent::Refused { task, t, reason } => Some((task, t, reason)),
            _ => None,
        })
        .collect()
}

fn rendered(result: &SimResult) -> String {
    result.to_json_compact()
}

/// A reweight between two coprime ≈ 2⁴⁰ denominators would need an
/// 80-bit era unit. It is refused at initiation, and refused whole:
/// admission's ledger is untouched (task 1's policed join is clamped
/// exactly as if the request had never been made), so the run equals
/// the one without the event.
#[test]
fn coprime_40_bit_denominators_are_refused_at_initiation() {
    let config = SimConfig::oi(1, 10_000);
    let mut without = Workload::new();
    without.join(0, 0, Q1 / 3 + 1, Q1).join(1, 200, 2, 3);
    let mut with = without.clone();
    with.reweight(0, 100, Q2 / 2 - 1, Q2);
    let (result, trace) = simulate_with(config.clone(), &with, TraceRecorder::new());
    assert_eq!(refusals(&trace), [(TaskId(0), 100, Refusal::UnitBudget)]);
    assert_eq!(rendered(&result), rendered(&simulate(config, &without)));
    assert!(result.misses.is_empty());
    // Task 1 was granted what task 0's commitment left, not what a
    // written-then-refused 1/2 would have left.
    assert_eq!(
        result.tasks[1].ps_total,
        (Rational::ONE - rat(Q1 / 3 + 1, Q1)).mul_int(10_000 - 200)
    );
}

/// A unit exactly at the budget runs to the horizon: joins and a
/// reweight within one 48-bit denominator, `unit · (horizon + 1) =
/// i64::MAX`, every count exact and the schedule valid.
#[test]
fn a_unit_at_the_budget_runs_to_the_horizon() {
    let (n1, n2) = (47_374_414_004_010, 35_530_810_503_007);
    let mut w = Workload::new();
    w.join(0, 0, n1, D)
        .join(1, 0, 1, 3)
        .reweight(0, 1_000, n2, D);
    let config = SimConfig::oi(1, EDGE_HORIZON).with_history();
    let (result, trace) = simulate_with(config, &w, TraceRecorder::new());
    assert_eq!(refusals(&trace), []);
    assert!(result.misses.is_empty());
    assert_eq!(verify(&result), []);
    let expected = rat(n1, D).mul_int(1_000) + rat(n2, D).mul_int(EDGE_HORIZON - 1_000);
    assert_eq!(result.tasks[0].ps_total, expected);
    assert_eq!(result.counters.reweight_enactments, 1);
}

/// One slot more and the same join is past the budget: refused, and
/// the task never runs; the other task's run is untouched.
#[test]
fn a_unit_past_the_budget_is_refused() {
    let mut w = Workload::new();
    w.join(0, 0, 1, 3).join(1, 5, 47_374_414_004_010, D);
    let config = SimConfig::oi(1, EDGE_HORIZON + 1);
    let (result, trace) = simulate_with(config.clone(), &w, TraceRecorder::new());
    assert_eq!(refusals(&trace), [(TaskId(1), 5, Refusal::UnitBudget)]);
    assert_eq!(result.tasks[1].scheduled_count, 0);
    assert!(result.tasks[1].ps_total.is_zero());
    let mut alone = Workload::new();
    alone.join(0, 0, 1, 3);
    let alone = simulate(config, &alone);
    assert_eq!(
        result.tasks[0].to_json_compact(),
        alone.tasks[0].to_json_compact()
    );
}

/// A policed join clamped to what two coprime 40-bit commitments leave
/// would hold an 80-bit denominator: refused as too wide, before the
/// ledger changes — a later join that fits is granted in full.
#[test]
fn a_clamped_grant_beyond_64_bits_is_refused() {
    let mut w = Workload::new();
    w.join(0, 0, Q1 / 3 + 1, Q1)
        .join(1, 0, Q2 / 2 - 1, Q2)
        .join(2, 3, 1, 2)
        .join(3, 4, 1, 1_000);
    let (result, trace) = simulate_with(SimConfig::oi(1, 1_000), &w, TraceRecorder::new());
    assert_eq!(refusals(&trace), [(TaskId(2), 3, Refusal::WideWeight)]);
    assert_eq!(result.tasks[2].scheduled_count, 0);
    assert_eq!(result.tasks[3].ps_total, rat(996, 1_000));
}

/// The deadline band: a weight-1/2 window reaches at most 4 slots past
/// its release, so a join is admitted while `horizon + 4 < 2⁴⁶` and
/// refused from there on (the packed key holds slots below 2⁴⁶
/// exactly).
#[test]
fn deadlines_past_the_packed_band_are_refused() {
    let mut w = Workload::new();
    w.join(0, 0, 1, 2);
    for (horizon, refused) in [((1 << 46) - 5, false), ((1 << 46) - 4, true)] {
        let mut engine = Engine::with_probe(SimConfig::oi(1, horizon), &w, TraceRecorder::new());
        engine.run_to(4);
        let expected = if refused {
            vec![(TaskId(0), 0, Refusal::DeadlineBand)]
        } else {
            vec![]
        };
        assert_eq!(refusals(engine.probe_mut()), expected, "horizon {horizon}");
        assert_eq!(engine.present_count(), usize::from(!refused));
    }
}

/// The six largest primes below 2³¹: the exact sum of their
/// reciprocals has their product as its denominator, 186 bits.
const PRIMES: [i128; 6] = [
    2_147_483_647,
    2_147_483_629,
    2_147_483_587,
    2_147_483_579,
    2_147_483_563,
    2_147_483_549,
];

/// Joins at slot 0 with weights `1/p` for the first `n` primes.
fn prime_joins(n: usize) -> Workload {
    let mut w = Workload::new();
    for (task, &p) in (0u32..).zip(&PRIMES[..n]) {
        w.join(task, 0, 1, p);
    }
    w
}

fn task_images(result: &SimResult) -> Vec<String> {
    (result.tasks.iter()).map(ToJson::to_json_compact).collect()
}

/// Every weight passes the arithmetic budget, but admission's ledger
/// of four of them already holds a 124-bit denominator: the fifth and
/// sixth joins would leave a sum no `i128` rational holds. Each is
/// refused as `ledger_budget`, and the run equals the one without them.
#[test]
fn a_ledger_past_i128_refuses_the_join() {
    let config = SimConfig::oi(2, 64);
    let (result, trace) = simulate_with(config.clone(), &prime_joins(6), TraceRecorder::new());
    assert_eq!(
        refusals(&trace),
        [
            (TaskId(4), 0, Refusal::LedgerBudget),
            (TaskId(5), 0, Refusal::LedgerBudget)
        ]
    );
    let without = simulate(config, &prime_joins(4));
    assert_eq!(task_images(&result)[..4], task_images(&without));
    assert!((result.tasks[4..].iter()).all(|t| t.scheduled_count == 0 && t.ps_total.is_zero()));
    assert_eq!(result.misses, without.misses);
    assert_eq!(result.counters, without.counters);
}

/// The shard supervisor's utilisation ledger has the same edge: a
/// one-shard set refuses to place the fifth and sixth joins, counts
/// them, and otherwise reports the run without them, whose registry
/// has no such counter.
#[test]
fn a_shard_ledger_past_i128_refuses_the_placement() {
    let report = ShardSet::new(ShardSpec::new(1, 2, 64), &prime_joins(6)).finish();
    let without = ShardSet::new(ShardSpec::new(1, 2, 64), &prime_joins(4)).finish();
    assert_eq!(report.registry.counter("shard.refused_placements"), 2);
    // Written only when one happens, so other reports keep their bytes.
    assert!(!(without.registry.snapshot_text()).contains("refused_placements"));
    let images = |tasks: &[pfair_sched::shard::GlobalTaskSummary]| -> Vec<String> {
        tasks.iter().map(ToJson::to_json_compact).collect()
    };
    assert_eq!(images(&report.tasks)[..4], images(&without.tasks));
    assert!((report.tasks[4..].iter()).all(|t| t.scheduled_count == 0));
    assert_eq!(report.scheduled_quanta(), without.scheduled_quanta());
    assert_eq!(report.misses(), without.misses());
}

/// Five primes just below 2¹⁸.
const P18: [i128; 5] = [262_139, 262_133, 262_127, 262_121, 262_111];

/// Five primes just below 2²².
const P22: [i128; 5] = [4_194_301, 4_194_287, 4_194_277, 4_194_271, 4_194_247];

/// A task reweighted four times between prime denominators, each change
/// a decrease. An enactment's era unit keeps the old denominator beside
/// the new one only while a retained record holds an allocation made
/// under it: the synchronization that drops the last such record drops
/// the old prime from the unit. So each initiation's budget check
/// covers two primes, 44 bits for the 22-bit ones, which a 400-slot
/// horizon keeps inside `i64`. But the drift sums every era, so the
/// samples the third and fourth enactments record carry four and five
/// primes: 72 and 90 bits for the 18-bit ones, 88 and 110 for the
/// 22-bit ones. The drift track stores them wide and exact; the default
/// driver and the `per_slot()` oracle agree on them, and a snapshot
/// taken at any slot, written to JSON and read back, resumes to the
/// uninterrupted result: the restored engine derives the era units the
/// live one holds, so its budget admits exactly what the live one does.
#[test]
fn drift_past_64_bits_is_kept_exact() {
    for primes in [P18, P22] {
        let mut w = Workload::new();
        for (era, &p) in (0i64..).zip(&primes) {
            // Shares just below 1/2, 2/5, 1/3, 2/7 and 1/4.
            let num = p * 2 / i128::from(4 + era);
            if era == 0 {
                w.join(0, 0, num, p);
            } else {
                w.reweight(0, 60 * era, num, p);
            }
        }
        let config = SimConfig::oi(1, 400);
        let (result, trace) = simulate_with(config.clone(), &w, TraceRecorder::new());
        assert_eq!(refusals(&trace), [], "{primes:?}");
        assert_eq!(result.counters.reweight_enactments, 4, "{primes:?}");
        let track = &result.tasks[0].drift;
        let wide = (track.samples()).any(|s| s.drift.denom() > i128::from(i64::MAX));
        assert!(wide, "no drift sample past 64 bits: {track:?}");
        let expected = rendered(&result);
        assert_eq!(expected, rendered(&simulate(config.clone().per_slot(), &w)));

        let mut live = Engine::new(config, &w);
        for slot in 1..400 {
            let text = (live.snapshot_at(slot))
                .expect("snapshot at a slot boundary")
                .to_json_compact();
            let image = EngineSnapshot::from_json(&Json::parse(&text).expect("parse"));
            let mut resumed = Engine::restore(image.expect("decode"), NoopProbe).expect("restore");
            resumed.run();
            let resumed = rendered(&resumed.finish());
            assert!(resumed == expected, "{primes:?}: resumed from slot {slot}");
        }
    }
}
