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

use pfair_json::{FromJson, Json, ToJson};
use pfair_repro::core::rational::Rational;
use pfair_repro::sched::engine::{simulate, Engine, EngineSnapshot, SimConfig};
use pfair_repro::sched::event::Workload;
use pfair_repro::sched::history::HistoryRecorder;
use pfair_repro::sched::prelude::NoopProbe;
use pfair_repro::sched::priority::TieBreak;
use pfair_repro::sched::trace::SimResult;
use pfair_repro::sched::verify::verify;
use pfair_repro::sched::workloads::{churn, fig6_base, fig8, fig9};

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
    let stays = |i: usize| (r.tasks[i].drift.samples()).len();
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
