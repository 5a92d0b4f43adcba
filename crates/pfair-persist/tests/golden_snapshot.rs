//! The snapshot format does not notice the engine's memory layout.
//!
//! `fixtures/oi_midrun.snapshot.json` was written by an older binary
//! (see `fixtures/README.md`) in the middle of an overloaded PD²-OI run.
//! Today's engine must decode it, encode it back to the same bytes, and
//! resume it to the `SimResult` the older binary reached — whatever the
//! task rows look like in memory by now.

use pfair_json::{Json, ToJson};
use pfair_obs::NoopProbe;
use pfair_persist::{seal, snapshot_from_str, snapshot_to_string, PersistError, SNAPSHOT_FORMAT};
use pfair_sched::engine::Engine;

const SNAPSHOT: &str = include_str!("fixtures/oi_midrun.snapshot.json");
const RESULT: &str = include_str!("fixtures/oi_midrun.result.json");
const JOURNAL: &str = include_str!("fixtures/journal.jsonl");

fn array<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    match value.get(key) {
        Some(Json::Array(items)) => items,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

fn is_set(value: &Json, key: &str) -> bool {
    !matches!(value.get(key), None | Some(Json::Null))
}

/// The fixture exercises what it was built for: a parked weight change,
/// a halted subtask still on record, and a task holding more subtask
/// records than a row keeps inline.
#[test]
fn fixture_holds_the_states_it_was_built_for() {
    let envelope = Json::parse(SNAPSHOT).expect("fixture parses");
    let body = envelope.get("body").expect("envelope body");
    let tasks = array(body, "tasks");
    assert!(tasks.iter().any(|t| is_set(t, "pending")));
    assert!(tasks
        .iter()
        .flat_map(|t| array(t, "subs"))
        .any(|s| is_set(s, "halted_at")));
    assert!(tasks.iter().any(|t| array(t, "subs").len() > 3));
    assert!(!array(body, "misses").is_empty(), "the run is overloaded");
}

#[test]
fn parent_written_snapshot_reencodes_to_the_same_bytes() {
    let snapshot = snapshot_from_str(SNAPSHOT).expect("fixture decodes");
    assert_eq!(snapshot.now(), 30);
    assert_eq!(snapshot_to_string(&snapshot), SNAPSHOT);
}

#[test]
fn parent_written_snapshot_resumes_to_the_parents_result() {
    let snapshot = snapshot_from_str(SNAPSHOT).expect("fixture decodes");
    let mut engine = Engine::restore(snapshot, NoopProbe).expect("fixture restores");
    // A snapshot taken on the way must be the parent's format too.
    engine.run_to(70);
    let midway = engine.snapshot().expect("snapshot");
    let mut resumed = Engine::restore(
        snapshot_from_str(&snapshot_to_string(&midway)).expect("round trip"),
        NoopProbe,
    )
    .expect("restore");
    engine.run();
    resumed.run();
    let mut rendered = engine.finish().to_json_pretty();
    rendered.push('\n');
    assert_eq!(rendered, RESULT);
    let mut rendered = resumed.finish().to_json_pretty();
    rendered.push('\n');
    assert_eq!(rendered, RESULT);
}

/// A journal's header and entry lines are the older binary's bytes, and
/// read back to the events that wrote them.
#[test]
fn journal_lines_match_the_golden() {
    use pfair_core::rational::rat;
    use pfair_core::task::TaskId;
    use pfair_core::weight::Weight;
    use pfair_persist::{read_journal, Journal};
    use pfair_sched::event::{Event, EventKind};

    let events = [
        (0, EventKind::Join(Weight::new(rat(1, 3)))),
        (4, EventKind::Reweight(Weight::new(rat(1, 2)))),
        (7, EventKind::Delay(3)),
    ]
    .map(|(at, kind)| Event {
        at,
        task: TaskId(0),
        kind,
    });
    let path = std::env::temp_dir().join(format!("pfair-golden-journal-{}", std::process::id()));
    let mut journal = Journal::create(&path).expect("create the journal");
    for event in &events {
        journal.append(event).expect("append");
    }
    let written = std::fs::read_to_string(&path).expect("read the journal");
    assert_eq!(written, JOURNAL);
    assert_eq!(read_journal(&path).expect("journal reads back"), events);
    std::fs::remove_file(&path).ok();
}

/// The counters decode strictly: a sealed body whose counters lack
/// `compactions` is a format error, not a zero.
#[test]
fn a_snapshot_without_compactions_is_a_decode_error() {
    let envelope = Json::parse(SNAPSHOT).expect("fixture parses");
    let mut body = envelope.get("body").expect("envelope body").clone();
    let Json::Object(fields) = &mut body else {
        panic!("the body is an object");
    };
    let Some((_, Json::Object(counters))) = fields.iter_mut().find(|(k, _)| k == "counters") else {
        panic!("the body holds counters");
    };
    let before = counters.len();
    counters.retain(|(k, _)| k != "compactions");
    assert_eq!(
        counters.len(),
        before - 1,
        "the fixture carries `compactions`"
    );
    let text = seal(SNAPSHOT_FORMAT, &body).to_json_pretty();
    match snapshot_from_str(&text) {
        Err(PersistError::Format(message)) => {
            assert!(message.contains("compactions"), "{message}");
        }
        other => panic!("decoded without `compactions`: {other:?}"),
    }
}
