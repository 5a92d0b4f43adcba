//! History runs across the driver ladder.
//!
//! A history run's `TaskHistory` is rebuilt from the event stream by a
//! probe (`pfair_sched::history::HistoryRecorder`) against a per-slot
//! Fig. 5 that shares no code with the engine's ideal trackers. So it
//! must not depend on which driver produced the stream: the per-slot
//! oracle, the tickless driver and the busy-span driver (whose jumped
//! periods the recorder replays) must give byte-identical histories.
//! On each system below the histories must also pass `verify()`, and
//! per task the per-slot `I_SW` series must sum to `isw_total` and,
//! less the halted corrections, to `icsw_total`.
//!
//! The engine keeps no trackers for a task that has not changed since
//! it joined and reads its totals off a closed form; the recorder's
//! series share nothing with that form, so the sums check it too, also
//! across the slot at which a task's first change switches it over, and
//! across the closed form of an era that has settled after a change
//! and the change that ends it.

use pfair_json::{FromJson, Json, ToJson};
use pfair_repro::core::rational::Rational;
use pfair_repro::sched::engine::{simulate, simulate_with, Engine, EngineSnapshot, SimConfig};
use pfair_repro::sched::event::{EventKind, Workload};
use pfair_repro::sched::history::HistoryRecorder;
use pfair_repro::sched::prelude::{MetricsProbe, NoopProbe};
use pfair_repro::sched::priority::TieBreak;
use pfair_repro::sched::reweight::Scheme;
use pfair_repro::sched::trace::SimResult;
use pfair_repro::sched::verify::verify;
use pfair_repro::sched::workloads::{churn, fig6_base, fig8, fig9};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Every task's history as JSON, in id order.
fn histories(r: &SimResult) -> Vec<String> {
    (r.tasks.iter())
        .map(|t| t.history.as_ref().expect("a history run").to_json_compact())
        .collect()
}

/// The history run of `w` under `cfg`'s default driver, held to the
/// per-slot and tickless history runs and to the checks of the module
/// docs.
fn assert_recorder_agrees(label: &str, w: &Workload, cfg: SimConfig) -> SimResult {
    let cfg = cfg.with_history();
    let result = simulate(cfg.clone(), w);
    let expected = histories(&result);
    for (rung, other) in [
        ("per-slot", cfg.clone().per_slot()),
        ("tickless", cfg.clone().without_busy_span()),
    ] {
        let got = histories(&simulate(other, w));
        assert!(
            got == expected,
            "{label}: the {rung} driver's histories differ"
        );
    }
    let violations = verify(&result);
    assert!(
        violations.is_empty(),
        "{label}: {} violation(s), first: {}",
        violations.len(),
        violations[0]
    );
    let sum =
        |series: &mut dyn Iterator<Item = Rational>| series.fold(Rational::ZERO, |a, b| a + b);
    for t in &result.tasks {
        let h = t.history.as_ref().expect("a history run");
        let isw = sum(&mut h.isw_per_slot.iter().copied());
        let halted = sum(&mut h.halted_corrections.iter().map(|&(_, a)| a));
        assert_eq!(isw, t.isw_total, "{label}: per-slot I_SW of {}", t.id);
        assert_eq!(isw - halted, t.icsw_total, "{label}: I_CSW of {}", t.id);
    }
    result
}

/// The paper's worked systems: Fig. 6(b)'s rule-O halt and Fig. 6(d)'s
/// rule-I decrease, Fig. 8 under PD²-LJ, and Fig. 9's leaves, late
/// joins and increases.
#[test]
fn paper_systems_record_the_same_history_on_every_driver() {
    let mut rule_o = fig6_base((3, 20));
    rule_o.reweight(0, 10, 1, 2);
    let ties = TieBreak::disfavoring(0, 20);
    let cfg = SimConfig::oi(4, 40).with_tie_break(ties);
    let r = assert_recorder_agrees("fig6(b)", &rule_o, cfg);
    let t = r.tasks[0].history.as_ref().expect("a history run");
    assert!(!t.halted_corrections.is_empty(), "rule O halts T_2");
    let mut rule_i = fig6_base((2, 5));
    rule_i.reweight(0, 1, 3, 20);
    assert_recorder_agrees("fig6(d)", &rule_i, SimConfig::oi(4, 40));
    assert_recorder_agrees("fig8", &fig8(), SimConfig::leave_join(4, 40));
    let r = assert_recorder_agrees("fig9", &fig9(), SimConfig::oi(2, 30));
    assert!(r.counters.halts > 0, "the leaves withdraw subtasks");
}

/// The `pfair` CLI's golden workload: a reweight, an IS delay and a
/// leave on two processors.
#[test]
fn cli_golden_system_records_the_same_history_on_every_driver() {
    let mut w = Workload::new();
    w.join(0, 0, 1, 2).join(1, 0, 1, 3).join(2, 1, 1, 4);
    w.reweight(0, 6, 1, 4).delay(1, 5, 3).leave(2, 12);
    assert_recorder_agrees("workload.txt", &w, SimConfig::oi(2, 24));
}

/// Tasks that leave and join again under the same id: every stay's
/// slots are in the one series, and the totals they sum to count every
/// stay.
#[test]
fn churn_with_rejoins_records_the_same_history_on_every_driver() {
    let w = churn(6, 3, 30, 200);
    let r = assert_recorder_agrees("churn", &w, SimConfig::oi(1, 200));
    let stays = |i: usize| r.tasks[i].drift.len();
    assert!((0..6).any(|i| stays(i) > 1), "some task rejoins");
}

/// A saturated steady system, where the busy-span driver jumps: the
/// recorder replays every jumped period, at event level. A jump loads
/// an image as a restore does, so the image taken right after the first
/// jump, round-tripped through JSON and restored, jumps again and
/// finishes with the result of the run that was never snapshotted.
#[test]
fn busy_span_replay_records_the_per_slot_history() {
    let mut w = Workload::new();
    for t in 0..8 {
        w.join(t, 0, 1, 2);
    }
    w.join(8, 0, 1, 6).join(9, 0, 1, 3);
    w.leave(8, 600).join(8, 900, 1, 6);
    let cfg = SimConfig::oi(5, 2_000);
    let expected = assert_recorder_agrees("saturated", &w, cfg.clone());
    let mut engine = Engine::with_probe(cfg.clone(), &w, HistoryRecorder::new());
    engine.run();
    assert!(
        engine.busy_span_jumps() > 0,
        "the busy-span driver never jumped"
    );
    let (mut jumped, recorder) = engine.finish_with_probe();
    recorder.fill(&mut jumped);
    assert!(histories(&jumped) == histories(&expected));

    let mut engine = Engine::new(cfg.clone(), &w);
    while engine.busy_span_jumps() == 0 && engine.now() < cfg.horizon {
        engine.run_to(engine.now() + 50);
    }
    assert!(engine.busy_span_jumps() > 0, "no jump before the horizon");
    let text = engine
        .snapshot()
        .expect("no history request")
        .to_json_compact();
    let image = EngineSnapshot::from_json(&Json::parse(&text).expect("parse")).expect("decode");
    let mut resumed = Engine::restore(image, NoopProbe).expect("restore");
    resumed.run();
    assert!(
        resumed.busy_span_jumps() > 0,
        "the restored run never jumped"
    );
    assert_eq!(
        resumed.finish().to_json_compact(),
        simulate(cfg, &w).to_json_compact()
    );
}

/// Light denominators whose lcm with the heavy tasks' 4 and 7 is a
/// period the busy span can verify: a population drawn from them jumps
/// once its changes have settled.
const LCM_DENS: [i128; 6] = [3, 4, 6, 8, 12, 16];

/// A population of tasks that never change, light and heavy, joining
/// in the first slots; a seeded half of the light ones then change
/// once, each at its own slot, and change back once the new era has
/// had well over a hundred slots to settle: a reweight and its return
/// to the joining weight (rules O and I under PD²-OI, L and J under
/// PD²-LJ), two IS delays, or two leaves and rejoins, the second back at
/// the joining weight. Each such task runs on the closed form up to its
/// first change, on its trackers after it, on the closed form of its
/// settled era, and on its trackers again from the second change.
/// Light denominators are drawn from `dens` (sorted), reweights to `1/d`
/// from its `d ≤ 12`.
fn switch_over_population(seed: u64, dens: &[i128]) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut w = Workload::new();
    let mut weights = Vec::new();
    let reweights = dens.partition_point(|&d| d <= 12);
    for id in 0..24u32 {
        let den = dens[rng.gen_range(0..dens.len())];
        let num = rng.gen_range(1..=den / 3);
        w.join(id, rng.gen_range(0i64..4), num, den);
        weights.push((num, den));
    }
    w.join(24, 1, 3, 4).join(25, 3, 5, 7);
    for (id, &(num, den)) in (0u32..).zip(&weights) {
        if rng.gen_range(0u32..2) == 0 {
            continue;
        }
        let at = rng.gen_range(6i64..110);
        let back = at + rng.gen_range(120i64..200);
        match rng.gen_range(0u32..3) {
            0 => w
                .reweight(id, at, 1, dens[rng.gen_range(0..reweights)])
                .reweight(id, back, num, den),
            1 => w
                .delay(id, at, rng.gen_range(1u32..6))
                .delay(id, back, rng.gen_range(1u32..6)),
            _ => w
                .leave(id, at)
                .join(id, at + rng.gen_range(20i64..40), 1, 8)
                .leave(id, back)
                .join(id, back + rng.gen_range(20i64..40), num, den),
        };
    }
    w
}

/// The switch-over populations under PD²-OI and PD²-LJ: every driver
/// rung records the same history and the totals are the recorder's.
/// Under PD²-OI the changes take rules O and I, and some halt. Images
/// taken mid-window round-trip through JSON and resume to the result of
/// the run that was never snapshotted: at slot 57, with some tasks
/// switched over and some not yet, and 20 slots before the horizon —
/// for [`LCM_DENS`] inside the span the busy span jumps once every
/// change back has settled. The other population draws every light
/// denominator in 3..=16, odd and prime ones included.
#[test]
fn static_rows_switch_to_trackers_on_every_driver() {
    // Rule O and rule I initiations, and halts, under PD²-OI.
    let mut oi = [0; 3];
    let any: Vec<i128> = (3..=16).collect();
    for (seed, dens) in [1, 2, 3]
        .into_iter()
        .flat_map(|s| [(s, &any[..]), (s, &LCM_DENS[..])])
    {
        let w = switch_over_population(seed, dens);
        let jumps = dens == LCM_DENS;
        let changes: Vec<i64> = (w.sorted_events().iter())
            .filter(|e| !matches!(e.kind, EventKind::Join(_)))
            .map(|e| e.at)
            .collect();
        assert!(changes.iter().any(|&at| at < 57) && changes.iter().any(|&at| at > 57));
        for cfg in [SimConfig::oi(4, 600), SimConfig::leave_join(4, 600)] {
            let label = format!("switch-over {seed} {dens:?} {:?}", cfg.scheme);
            let r = assert_recorder_agrees(&label, &w, cfg.clone());
            assert!(r.counters.reweight_initiations > 0, "{label}: no reweight");
            if cfg.scheme == Scheme::Oi {
                let (_, metrics) = simulate_with(cfg.clone(), &w, MetricsProbe::new());
                for (n, key) in oi
                    .iter_mut()
                    .zip(["reweight.rule.O", "reweight.rule.I", "halts"])
                {
                    *n += metrics.registry().counter(key);
                }
            }
            for at in [57, cfg.horizon - 20] {
                let mut engine = Engine::new(cfg.clone(), &w);
                let text = engine
                    .snapshot_at(at)
                    .expect("no history request")
                    .to_json_compact();
                assert!(
                    at == 57 || !jumps || engine.busy_span_jumps() > 0,
                    "{label}: no jump before {at}"
                );
                let image =
                    EngineSnapshot::from_json(&Json::parse(&text).expect("parse")).expect("decode");
                let mut resumed = Engine::restore(image, NoopProbe).expect("restore");
                resumed.run();
                assert_eq!(
                    resumed.finish().to_json_compact(),
                    simulate(cfg.clone(), &w).to_json_compact(),
                    "{label}: the run resumed at {at}"
                );
            }
        }
    }
    assert!(oi.iter().all(|&n| n > 0), "rule O, rule I, halts: {oi:?}");
}
