//! The snapshot format does not notice the engine's memory layout.
//!
//! `fixtures/oi_midrun.snapshot.json` was written by an older binary
//! (see `fixtures/README.md`) in the middle of an overloaded PD²-OI run,
//! in the version-1 format. Today's engine must decode it, encode it as
//! version 2 — the same body less the keys version 2 dropped — and
//! resume it to the `SimResult` the older binary reached, whatever the
//! task rows look like in memory by now.
//!
//! `fixtures/static_midrun.snapshot.json` is a population of tasks that
//! never change weight, captured mid-window: the tracker images of rows
//! that hold no trackers in memory must still be the bytes an engine
//! that tracked every task wrote.
//!
//! `fixtures/settled_midrun.snapshot.json` is a run whose tasks changed
//! under rules O and I, were halted, delayed and rejoined, captured once
//! most of those changes have settled and one is still parked: the
//! images of rows that changed must not depend on how the engine keeps
//! them in memory either.

use pfair_json::{Json, ToJson};
use pfair_obs::NoopProbe;
use pfair_persist::{seal, snapshot_from_str, snapshot_to_string, PersistError};
use pfair_sched::engine::{Engine, SimConfig};
use pfair_sched::event::Workload;
use pfair_sched::overhead::Counters;
use pfair_sched::workloads::synthetic_population;

const SNAPSHOT: &str = include_str!("fixtures/oi_midrun.snapshot.json");
const RESULT: &str = include_str!("fixtures/oi_midrun.result.json");
const STATIC_MIDRUN: &str = include_str!("fixtures/static_midrun.snapshot.json");
const SETTLED_MIDRUN: &str = include_str!("fixtures/settled_midrun.snapshot.json");

/// The slot `STATIC_MIDRUN` was captured at.
const STATIC_AT: i64 = 41;

/// The slot `SETTLED_MIDRUN` was captured at.
const SETTLED_AT: i64 = 97;

/// The joining weights of the tasks of `SETTLED_MIDRUN`, by id:
/// numerators and denominators.
const SETTLED_WEIGHTS: [[i128; 10]; 2] = [
    [1, 1, 1, 1, 2, 1, 1, 2, 3, 1],
    [4, 5, 6, 7, 9, 2, 3, 5, 10, 4],
];

/// Keys version 2 no longer writes: the calendar rings (rebuilt from
/// the rows at restore), the history request no snapshot carries and
/// the `I_SW` trackers' history flags — and a task's `wt`, which its
/// `I_PS` tracker holds.
const DROPPED: &str =
    "release_at enact_at leave_at record_history keep_retired record_slot_allocs slot_allocs";

/// Removes the [`DROPPED`] keys anywhere in `value`, and `wt` from it
/// when it is a task (an element of `tasks`).
fn drop_v1_keys(value: &mut Json, task: bool) {
    match value {
        Json::Object(fields) => {
            fields.retain(|(k, _)| !(DROPPED.split(' ').any(|d| d == k) || task && k == "wt"));
            for (k, v) in fields {
                drop_v1_keys(v, k == "tasks");
            }
        }
        Json::Array(items) => items.iter_mut().for_each(|v| drop_v1_keys(v, task)),
        _ => {}
    }
}

/// The value at `path` (keys, and indices of arrays) in `node`.
fn at<'a>(mut node: &'a mut Json, path: &[&str]) -> &'a mut Json {
    for key in path {
        node = match node {
            Json::Object(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).expect("key").1,
            Json::Array(items) => &mut items[key.parse::<usize>().expect("an index")],
            _ => panic!("no `{key}` in a scalar"),
        };
    }
    node
}

/// The body of `fixture` with `edit` applied to the value at `path`,
/// sealed again.
fn edited(fixture: &str, path: &[&str], edit: impl FnOnce(&mut Json)) -> String {
    let envelope = Json::parse(fixture).expect("fixture parses");
    let mut body = envelope.get("body").expect("envelope body").clone();
    edit(at(&mut body, path));
    let text = seal(&body).to_json_pretty();
    text
}

/// The message of the format error decoding `text` gives.
fn format_error(text: &str) -> String {
    match snapshot_from_str(text) {
        Err(PersistError::Format(message)) => message,
        other => panic!("decoded: {other:?}"),
    }
}

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

/// A version-1 image migrates by decoding: encoded again it is the
/// fixture's body less the dropped keys, each of which it held, sealed
/// as version 2.
#[test]
fn parent_written_snapshot_reencodes_as_version_2() {
    let snapshot = snapshot_from_str(SNAPSHOT).expect("fixture decodes");
    assert_eq!(snapshot.now(), 30);
    for key in DROPPED.split(' ') {
        assert!(SNAPSHOT.contains(&format!("\"{key}\":")), "{key}");
    }
    let envelope = Json::parse(SNAPSHOT).expect("fixture parses");
    let mut body = envelope.get("body").expect("envelope body").clone();
    drop_v1_keys(&mut body, false);
    let mut expected = seal(&body).to_json_pretty();
    expected.push('\n');
    assert!(SNAPSHOT.contains("\"version\": 1,") && expected.contains("\"version\": 2,"));
    assert_eq!(snapshot_to_string(&snapshot), expected);
}

/// A calendar slot behind `now` is a format error: a present task's
/// next release, a parked change's slot, a rule-L departure. At `now`
/// itself each is a slot still to fire.
#[test]
fn a_calendar_slot_behind_now_is_a_format_error() {
    for (what, path) in [
        ("next release", ["tasks", "0", "next_release"].as_slice()),
        ("pending change", &["tasks", "5", "pending", "at"]),
        ("departure", &["tasks", "0", "leaving"]),
    ] {
        let message = format_error(&edited(SNAPSHOT, path, |v| *v = Json::Int(29)));
        assert!(
            message.contains(what) && message.contains("behind snapshot slot 30"),
            "{message}"
        );
        assert!(snapshot_from_str(&edited(SNAPSHOT, path, |v| *v = Json::Int(30))).is_ok());
    }
}

/// Emptying the `I_SW` image of any present task of the three goldens
/// is a format error: each such task holds a record `I_SW` still
/// allocates to. `oi_midrun`'s task 7 left at slot 6: its one record is
/// halted, and its next release would open an era, so there is nothing
/// for its image to lack.
#[test]
fn an_isw_image_without_the_rows_open_records_is_a_format_error() {
    for golden in [SNAPSHOT, STATIC_MIDRUN, SETTLED_MIDRUN] {
        let envelope = Json::parse(golden).expect("fixture parses");
        let tasks = array(envelope.get("body").expect("envelope body"), "tasks").len();
        for id in 0..tasks {
            let path = ["tasks", &id.to_string(), "isw", "subs"];
            let text = edited(golden, &path, |subs| *subs = Json::Array(Vec::new()));
            if golden == SNAPSHOT && id == 7 {
                assert!(snapshot_from_str(&text).is_ok());
            } else {
                let message = format_error(&text);
                assert!(
                    message.contains("I_SW image lacks open record"),
                    "{message}"
                );
            }
        }
    }
}

/// A record the row and the `I_SW` image both hold agrees on its
/// completion (and on its release and halt slot), and the image holds
/// the completed predecessor a `b = 1` successor's release reads.
#[test]
fn an_isw_image_that_contradicts_the_row_is_a_format_error() {
    // `settled_midrun`'s task 0: both hold T_20, completed at 95.
    let text = edited(
        SETTLED_MIDRUN,
        &["tasks", "0", "isw", "subs", "1", "complete_at"],
        |v| *v = Json::Int(96),
    );
    let message = format_error(&text);
    assert!(
        message.contains("disagrees with the row on T_20"),
        "{message}"
    );

    // `oi_midrun`'s task 0: T_22 (b = 1) is its last record; claim it
    // complete in the row and drop it from the image, so the release at
    // 30 would find no predecessor to read.
    let text = edited(SNAPSHOT, &["tasks", "0"], |task| {
        *at(task, &["subs", "19", "isw_completion"]) = Json::Int(29);
        let Json::Array(subs) = at(task, &["isw", "subs"]) else {
            panic!("the image's records are an array");
        };
        subs.pop();
    });
    let message = format_error(&text);
    assert!(message.contains("lacks the predecessor T_22"), "{message}");
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

/// The counters decode strictly: a sealed body whose counters lack
/// `compactions` is a format error, not a zero.
#[test]
fn a_snapshot_without_compactions_is_a_decode_error() {
    let text = edited(SNAPSHOT, &["counters"], |counters| {
        let Json::Object(fields) = counters else {
            panic!("the counters are an object");
        };
        assert!(fields.iter().any(|(k, _)| k == "compactions"));
        fields.retain(|(k, _)| k != "compactions");
    });
    let message = format_error(&text);
    assert!(message.contains("compactions"), "{message}");
}

/// `synthetic_population(64, 1)` (light weights 1/512 … 1/8192, joining
/// at 0) and three heavy tasks that never change either: 3/4, 5/7 and
/// 1, joining at slots 3, 5 and 7, on three processors.
fn static_midrun_run() -> Engine {
    let mut w: Workload = synthetic_population(64, 1);
    w.join(64, 3, 3, 4).join(65, 5, 5, 7).join(66, 7, 1, 1);
    Engine::new(SimConfig::oi(3, 120), &w)
}

/// The image `engine` writes at `at` is `golden`'s bytes, which decode
/// and re-encode to themselves; the decoded image resumes to the result
/// of the run that was never captured. Returns the image's tasks and
/// the counters at `at`.
fn assert_midrun_golden(mut engine: Engine, at: i64, golden: &str) -> (Vec<Json>, Counters) {
    let snapshot = engine.snapshot_at(at).expect("snapshot");
    let counters = *engine.counters();
    assert_eq!(snapshot_to_string(&snapshot), golden);
    let decoded = snapshot_from_str(golden).expect("fixture decodes");
    assert_eq!(snapshot_to_string(&decoded), golden);
    let mut resumed = Engine::restore(decoded, NoopProbe).expect("fixture restores");
    engine.run();
    resumed.run();
    assert_eq!(
        resumed.finish().to_json_pretty(),
        engine.finish().to_json_pretty()
    );
    let envelope = Json::parse(golden).expect("fixture parses");
    let tasks = array(envelope.get("body").expect("envelope body"), "tasks");
    (tasks.to_vec(), counters)
}

/// The static population's image at slot 41 is the golden's bytes,
/// decodes and re-encodes to them, and resumes to the result of the run
/// that was never captured. At that slot every task holds a released
/// subtask `I_SW` has not completed.
#[test]
fn static_population_snapshots_to_the_golden() {
    let (tasks, _) = assert_midrun_golden(static_midrun_run(), STATIC_AT, STATIC_MIDRUN);
    assert_eq!(tasks.len(), 67);
    for task in &tasks {
        let isw = task.get("isw").expect("an I_SW image");
        let open = array(isw, "subs").iter().any(|s| !is_set(s, "complete_at"));
        assert!(open, "{:?} holds no incomplete subtask", task.get("id"));
    }
}

/// Ten light tasks joining at 0 on three processors (PD²-OI, horizon
/// 160, weights summing to 2.77): tasks 0, 1 and 5 are reweighted down
/// or up and back again (1/4 → 1/8 → 1/4 at 20 and 50, 1/5 → 1/3 → 1/5
/// at 21 and 55, 1/2 → 1/4 → 1/2 at 33 and 61), task 2 is delayed 4
/// slots at 30, task 3 leaves at 15 and rejoins at 40, and task 4 is
/// reweighted 2/9 → 1/9 at 95, a change still parked at 97.
fn settled_midrun_run() -> Engine {
    let mut w = Workload::new();
    let [nums, dens] = SETTLED_WEIGHTS;
    for (id, (num, den)) in (0u32..).zip(nums.into_iter().zip(dens)) {
        w.join(id, 0, num, den);
    }
    w.reweight(0, 20, 1, 8).reweight(0, 50, 1, 4);
    w.reweight(1, 21, 1, 3).reweight(1, 55, 1, 5);
    w.reweight(5, 33, 1, 4).reweight(5, 61, 1, 2);
    w.delay(2, 30, 4);
    w.leave(3, 15).join(3, 40, 1, 7);
    w.reweight(4, 95, 1, 9);
    Engine::new(SimConfig::oi(3, 160), &w)
}

/// The reweighted population's image at slot 97 is the golden's bytes,
/// decodes and re-encodes to them, and resumes to the result of the run
/// that was never captured. Before that slot changes have halted
/// subtasks, and at it one change is parked.
#[test]
fn settled_population_snapshots_to_the_golden() {
    let (tasks, counters) = assert_midrun_golden(settled_midrun_run(), SETTLED_AT, SETTLED_MIDRUN);
    assert_eq!(
        (counters.reweight_initiations, counters.halts > 0),
        (7, true)
    );
    let parked = tasks.iter().filter(|t| is_set(t, "pending")).count();
    assert_eq!(parked, 1, "one change still parked");
}
