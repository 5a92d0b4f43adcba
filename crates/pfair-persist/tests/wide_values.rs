//! Weights and tracker counts are 64-bit in memory; a persisted value
//! that does not fit is a decoding error, never a panic or a silently
//! truncated engine.
//!
//! Each case takes the golden snapshot (`fixtures/oi_midrun.snapshot.json`),
//! sets one denominator to 2⁶³ (one past `i64::MAX`) or to 2⁶⁴ + 1,
//! re-seals it so the checksum holds, and decodes.

use pfair_json::{Json, ToJson};
use pfair_obs::NoopProbe;
use pfair_persist::{seal, snapshot_from_str, PersistError};
use pfair_sched::engine::Engine;

const SNAPSHOT: &str = include_str!("fixtures/oi_midrun.snapshot.json");

/// Denominators one past what an `i64` holds.
const WIDE: [i128; 2] = [1 << 63, (1 << 64) + 1];

/// One step of a path into a JSON tree.
enum Step {
    Key(&'static str),
    At(usize),
}
use Step::{At, Key};

fn node<'a>(mut json: &'a mut Json, path: &[Step]) -> &'a mut Json {
    for step in path {
        json = match (step, json) {
            (Key(key), Json::Object(fields)) => {
                let found = fields.iter_mut().find(|(k, _)| k == key);
                &mut found.unwrap_or_else(|| panic!("no key `{key}`")).1
            }
            (At(i), Json::Array(items)) => &mut items[*i],
            _ => panic!("path does not match the fixture"),
        };
    }
    json
}

/// The fixture's body with the rational at `path` given denominator
/// `den`, sealed again.
fn with_den(path: &[Step], den: i128) -> String {
    let envelope = Json::parse(SNAPSHOT).expect("fixture parses");
    let mut body = envelope.get("body").expect("envelope body").clone();
    *node(&mut body, path) = Json::Int(den);
    let text = seal(&body).to_json_pretty();
    text
}

/// Task 5 joined at 1/100 and has a decrease to 1/200 parked; task 4's
/// first subtask was halted holding 1/20.
fn weight_paths() -> Vec<(&'static str, Vec<Step>)> {
    let task = |i| vec![Key("tasks"), At(i)];
    let under = |mut p: Vec<Step>, rest: &[&'static str]| {
        p.extend(rest.iter().map(|&k| Key(k)));
        p
    };
    vec![
        (
            "a join event's weight",
            vec![
                Key("events"),
                At(0),
                Key("event"),
                Key("weight"),
                Key("den"),
            ],
        ),
        ("a scheduling weight", under(task(5), &["swt", "den"])),
        ("an I_PS weight", under(task(5), &["ps", "wt", "den"])),
        ("an I_SW weight", under(task(5), &["isw", "swt", "den"])),
        (
            "a pending target",
            under(task(5), &["pending", "target", "den"]),
        ),
        (
            "a ledger commitment",
            vec![Key("committed"), At(5), Key("den")],
        ),
        ("an I_SW allocation", {
            let mut p = under(task(4), &["isw", "subs"]);
            p.extend([At(0), Key("cum"), Key("den")]);
            p
        }),
    ]
}

#[test]
fn the_resealed_fixture_still_decodes() {
    let envelope = Json::parse(SNAPSHOT).expect("fixture parses");
    let body = envelope.get("body").expect("envelope body");
    let text = seal(body).to_json_pretty();
    assert!(snapshot_from_str(&text).is_ok());
    // And the edit helper changes what it names: 100 is task 5's join.
    let same = with_den(
        &[
            Key("events"),
            At(0),
            Key("event"),
            Key("weight"),
            Key("den"),
        ],
        100,
    );
    assert!(snapshot_from_str(&same).is_ok());
}

#[test]
fn a_weight_or_count_beyond_64_bits_is_a_format_error() {
    for (what, path) in weight_paths() {
        for den in WIDE {
            match snapshot_from_str(&with_den(&path, den)) {
                Err(PersistError::Format(message)) => {
                    assert!(
                        message.contains("64 bits") || message.contains("i64 range"),
                        "{what} with denominator {den}: {message}"
                    );
                }
                Err(other) => panic!("{what} with denominator {den}: {other}"),
                Ok(_) => panic!("{what} with denominator {den} decoded"),
            }
        }
    }
}

/// Every commitment fits 64 bits, but the admission ledger is their
/// exact sum: at `1/p` for the six largest primes below 2³¹ its
/// denominator needs 186 bits. The snapshot decodes; restoring an
/// engine from it is refused, not a panic.
#[test]
fn a_ledger_sum_beyond_i128_is_refused_at_restore() {
    const PRIMES: [i128; 6] = [
        2_147_483_647,
        2_147_483_629,
        2_147_483_587,
        2_147_483_579,
        2_147_483_563,
        2_147_483_549,
    ];
    let envelope = Json::parse(SNAPSHOT).expect("fixture parses");
    let mut body = envelope.get("body").expect("envelope body").clone();
    for (slot, p) in PRIMES.into_iter().enumerate() {
        *node(&mut body, &[Key("committed"), At(slot), Key("num")]) = Json::Int(1);
        *node(&mut body, &[Key("committed"), At(slot), Key("den")]) = Json::Int(p);
    }
    let text = seal(&body).to_json_pretty();
    let snapshot = snapshot_from_str(&text).expect("every commitment is a 64-bit weight");
    let refused = Engine::restore(snapshot, NoopProbe).err();
    assert!(
        refused.as_deref().is_some_and(|e| e.contains("ledger")),
        "{refused:?}"
    );
}
