//! Round-trip fuzzing of every persisted type.
//!
//! Two properties over the persistence format:
//!
//! 1. **Canonical**: encode → decode → encode is byte-identical, for
//!    snapshot envelopes (covering the whole nested type family:
//!    engine state, tracker accumulators, rings, queue entries,
//!    selector state, config, the event stream) and for single events.
//! 2. **Total**: truncated or byte-corrupted input *returns* `Err` —
//!    it never panics, and when a mutation happens to be accepted
//!    (e.g. it only touched pretty-printing whitespace) the decoded
//!    value re-encodes to the original canonical text, proving the
//!    mutation was semantically neutral.

use pfair_core::rational::rat;
use pfair_core::task::TaskId;
use pfair_core::weight::Weight;
use pfair_json::{FromJson, Json, ToJson};
use pfair_persist::{open, seal, snapshot_from_str, snapshot_to_string, SNAPSHOT_FORMAT};
use pfair_sched::admission::AdmissionPolicy;
use pfair_sched::engine::{Engine, SimConfig};
use pfair_sched::event::{Event, EventKind, Workload};
use pfair_sched::priority::TieBreak;
use pfair_sched::reweight::{HybridPolicy, Scheme};
use proptest::prelude::*;

const HORIZON: i64 = 120;

fn arb_weight() -> impl Strategy<Value = (i128, i128)> {
    (2i128..=40).prop_flat_map(|den| (1i128..=(den / 2).max(1), Just(den)))
}

fn arb_event() -> impl Strategy<Value = Event> {
    (0i64..HORIZON, 0u32..8, 0u32..4, arb_weight(), 1u32..700).prop_map(
        |(at, task, pick, (n, d), by)| {
            let kind = match pick {
                0 => EventKind::Join(Weight::new(rat(n, d))),
                1 => EventKind::Leave,
                2 => EventKind::Reweight(Weight::new(rat(n, d))),
                _ => EventKind::Delay(by),
            };
            Event {
                at,
                task: TaskId(task),
                kind,
            }
        },
    )
}

fn arb_scheme() -> impl Strategy<Value = Scheme> {
    (0u32..6, 1u32..5, arb_weight(), 2i64..30).prop_map(
        |(pick, n, (num, den), window)| match pick {
            0 => Scheme::Oi,
            1 => Scheme::LeaveJoin,
            2 => Scheme::Hybrid(HybridPolicy::EveryNth(n)),
            3 => Scheme::Hybrid(HybridPolicy::MagnitudeThreshold(rat(num, den))),
            4 => Scheme::Hybrid(HybridPolicy::OiBudget { budget: n, window }),
            _ => Scheme::Hybrid(HybridPolicy::DriftFeedback(rat(num, den))),
        },
    )
}

fn arb_tie_break() -> impl Strategy<Value = TieBreak> {
    (0u32..3, prop::collection::vec((0u32..8, 0u32..10), 0..5)).prop_map(|(pick, pairs)| match pick
    {
        0 => TieBreak::TaskIdAsc,
        1 => TieBreak::TaskIdDesc,
        _ => TieBreak::Ranked(pairs.into_iter().map(|(t, r)| (TaskId(t), r)).collect()),
    })
}

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (1u32..=4, arb_scheme(), arb_tie_break(), 0u32..2, 0u32..2).prop_map(
        |(processors, scheme, tie_break, police, tickless)| {
            let mut cfg = SimConfig::oi(processors, HORIZON)
                .with_scheme(scheme)
                .with_tie_break(tie_break)
                .with_admission(if police == 0 {
                    AdmissionPolicy::Police
                } else {
                    AdmissionPolicy::Trusting
                });
            if tickless == 0 {
                cfg = cfg.per_slot();
            }
            cfg
        },
    )
}

/// A snapshot built from an arbitrary config and event script, taken
/// at an arbitrary slot — covers every nested persisted type with
/// organically-reachable values.
fn snapshot_text_of(cfg: SimConfig, events: &[Event], snap_at: i64) -> String {
    let mut w = Workload::new();
    // Ensure ids are dense: join every referenced task at 0 first.
    for t in 0..8 {
        w.join(t, 0, 1, 10);
    }
    for e in events {
        // Re-joining an active task is a workload error the engine
        // aborts on; every other event is tolerated in any order.
        if !matches!(e.kind, EventKind::Join(_)) {
            w.push(*e);
        }
    }
    let mut engine = Engine::new(cfg, &w);
    let snap = engine.snapshot_at(snap_at).expect("snapshot");
    snapshot_to_string(&snap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Events (a snapshot's event stream and injections) encode
    /// canonically.
    #[test]
    fn event_encoding_is_canonical(event in arb_event()) {
        let first = event.to_json_compact();
        let back = Event::from_json(&Json::parse(&first).expect("parse")).expect("decode");
        prop_assert_eq!(first, back.to_json_compact());
    }

    /// Configs (schemes, tie-breaks, admission policies) encode
    /// canonically.
    #[test]
    fn config_encoding_is_canonical(cfg in arb_config()) {
        let first = cfg.to_json_compact();
        let back = SimConfig::from_json(&Json::parse(&first).expect("parse")).expect("decode");
        prop_assert_eq!(first, back.to_json_compact());
    }

    /// Full snapshot envelopes encode canonically: encode → decode →
    /// encode is byte-identical.
    #[test]
    fn snapshot_encoding_is_canonical(
        cfg in arb_config(),
        events in prop::collection::vec(arb_event(), 0..10),
        snap_at in 1i64..HORIZON,
    ) {
        let first = snapshot_text_of(cfg, &events, snap_at);
        let snap = snapshot_from_str(&first).expect("decode");
        prop_assert_eq!(first, snapshot_to_string(&snap));
    }

    /// Truncated snapshots are errors, never panics.
    #[test]
    fn truncated_snapshot_is_err(
        events in prop::collection::vec(arb_event(), 0..6),
        snap_at in 1i64..HORIZON,
        cut_frac in 0u32..1000,
    ) {
        let text = snapshot_text_of(SimConfig::oi(2, HORIZON), &events, snap_at);
        let cut = (text.len() * cut_frac as usize) / 1000;
        if cut < text.len() {
            prop_assert!(snapshot_from_str(&text[..cut]).is_err());
        }
    }

    /// Byte-level corruption either errs or is provably neutral: an
    /// accepted mutation re-encodes to the original canonical text.
    #[test]
    fn corrupted_snapshot_never_panics(
        events in prop::collection::vec(arb_event(), 0..6),
        snap_at in 1i64..HORIZON,
        pos in 0usize..100_000,
        byte in 0u8..=255,
    ) {
        let text = snapshot_text_of(SimConfig::oi(2, HORIZON), &events, snap_at);
        let mut bytes = text.clone().into_bytes();
        let i = pos % bytes.len();
        bytes[i] = byte;
        // Invalid UTF-8 cannot even reach the parser; skip those flips.
        if let Ok(mutated) = String::from_utf8(bytes) {
            match snapshot_from_str(&mutated) {
                Err(_) => {}
                Ok(snap) => prop_assert_eq!(
                    snapshot_to_string(&snap),
                    text,
                    "accepted mutation changed the payload"
                ),
            }
        }
    }

    /// The envelope rejects foreign formats and future versions
    /// outright.
    #[test]
    fn envelope_rejects_foreign_and_future_artifacts(n in 0u64..1000) {
        let text = seal(&n).to_json_compact();
        let foreign = text.replace(SNAPSHOT_FORMAT, "pfair-foreign");
        prop_assert_ne!(&foreign, &text);
        prop_assert!(open(&Json::parse(&foreign).expect("parse")).is_err());
        let future = text.replace("\"version\":2", "\"version\":3");
        prop_assert_ne!(&future, &text);
        prop_assert!(open(&Json::parse(&future).expect("parse")).is_err());
    }
}
