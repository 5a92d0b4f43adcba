//! The snapshot format does not notice the engine's memory layout.
//!
//! `fixtures/oi_midrun.snapshot.json` was written by an older binary
//! (see `fixtures/README.md`) in the middle of an overloaded PD²-OI run.
//! Today's engine must decode it, encode it back to the same bytes, and
//! resume it to the `SimResult` the older binary reached — whatever the
//! task rows look like in memory by now.

use pfair_json::{Json, ToJson};
use pfair_obs::NoopProbe;
use pfair_persist::{snapshot_from_str, snapshot_to_string};
use pfair_sched::engine::Engine;

const SNAPSHOT: &str = include_str!("fixtures/oi_midrun.snapshot.json");
const RESULT: &str = include_str!("fixtures/oi_midrun.result.json");

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
    let mut rendered = engine.finish().to_json().to_string_pretty();
    rendered.push('\n');
    assert_eq!(rendered, RESULT);
    let mut rendered = resumed.finish().to_json().to_string_pretty();
    rendered.push('\n');
    assert_eq!(rendered, RESULT);
}
