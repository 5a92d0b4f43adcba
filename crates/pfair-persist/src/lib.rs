//! # pfair-persist
//!
//! Durable simulation state for the PD² engine: versioned, checksummed
//! **snapshots**, an append-only **event journal**, and a **segmented
//! runner** that executes a long horizon as resumable chunks.
//!
//! ## Envelope format
//!
//! Both artifact kinds share one envelope: a JSON object with a
//! `format` tag, a `version` number, an FNV-1a-64 `checksum` of the
//! canonical *compact* encoding of the body, and the `body` itself.
//! [`open`] re-derives the checksum from the parsed body — whitespace
//! and file-level pretty-printing are outside the integrity boundary,
//! while any semantic change to the body (a digit, a flag, a dropped
//! field) is caught. Unknown formats and future versions are refused,
//! never guessed at.
//!
//! The two formats are versioned apart. Snapshots are at version 2,
//! which stopped writing what `Engine::restore` rebuilds from the task
//! rows (the calendar rings, a task's actual weight) and the history
//! flags no snapshot can set; a version-1 snapshot still opens, and its
//! decoder ignores those keys. Journals are at version 1.
//!
//! ## Journal format
//!
//! A journal is JSONL: one header envelope line, then one line per
//! admitted mutation (join/leave/reweight/delay), each a `{"seq",
//! "event", "checksum"}` record whose checksum covers the compact
//! `{"seq", "event"}` prefix. Sequence numbers are dense from 0, so
//! truncation, reordering, and line-level corruption are all detected
//! on load. Replay is [`Engine::inject`] in sequence order — exactly
//! the path online (executor-fed) events take.
//!
//! ## Persistence invariant
//!
//! Snapshot at slot `k` → serialize → parse → restore → run to the
//! horizon is **bit-identical** to the uninterrupted run (results,
//! counters, drift samples, metrics registries). `run_segments` proves
//! the invariant end-to-end by forcing every chunk boundary through
//! the full serialize/parse/restore round trip; the
//! `recovery_equivalence` suite pins it under randomized reweighting
//! scripts and both engine drivers.

#![cfg_attr(
    not(test),
    warn(
        clippy::as_conversions,
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::panic
    )
)]

use pfair_core::time::Slot;
use pfair_json::{FromJson, Json, JsonError, JsonWriter, ToJson};
use pfair_obs::{NoopProbe, Probe};
use pfair_sched::engine::{Engine, EngineSnapshot, SimConfig};
use pfair_sched::event::{Event, Workload};
use pfair_sched::trace::SimResult;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Format tag of snapshot envelopes.
pub const SNAPSHOT_FORMAT: &str = "pfair-snapshot";
/// Format tag of journal headers.
pub const JOURNAL_FORMAT: &str = "pfair-journal";
/// Version of the snapshots this build writes.
pub const SNAPSHOT_VERSION: i128 = 2;
/// Version of the journals this build writes and reads.
pub const JOURNAL_VERSION: i128 = 1;

/// The version this build writes of `format`, and the oldest it opens.
fn versions(format: &str) -> (i128, i128) {
    if format == SNAPSHOT_FORMAT {
        (SNAPSHOT_VERSION, 1)
    } else {
        (JOURNAL_VERSION, JOURNAL_VERSION)
    }
}

/// Failure while persisting or recovering simulation state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Filesystem failure at `path`.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error, rendered.
        message: String,
    },
    /// Structural failure: bad envelope, checksum mismatch, decode
    /// error, or a snapshot that fails cross-field validation.
    Format(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            PersistError::Format(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<JsonError> for PersistError {
    fn from(e: JsonError) -> PersistError {
        PersistError::Format(e.message)
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> PersistError {
    PersistError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

/// FNV-1a-64 over a byte string: the integrity checksum of every
/// persisted artifact. Small, dependency-free, and byte-exact across
/// platforms — this is a corruption detector, not a cryptographic
/// commitment.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The checksum of a body: FNV-1a-64 of its compact canonical
/// encoding, as 16 lowercase hex digits.
fn checksum(compact: &str) -> String {
    format!("{:016x}", fnv1a64(compact.as_bytes()))
}

/// A body in its versioned, checksummed envelope.
struct Sealed<'a, T: ?Sized> {
    format: &'a str,
    body: &'a T,
}

impl<T: ToJson + ?Sized> ToJson for Sealed<'_, T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("format", self.format)
            .field("version", &versions(self.format).0)
            .field("checksum", &checksum(&self.body.to_json_compact()))
            .field("body", self.body);
        w.end_object();
    }
}

/// Wraps a body in a checksummed envelope stamped with the version this
/// build writes of `format`, to be rendered in either layout.
pub fn seal<'a, T: ToJson + ?Sized>(format: &'a str, body: &'a T) -> impl ToJson + 'a {
    Sealed { format, body }
}

/// Opens an envelope: checks the format tag, the version (one this
/// build reads), and the checksum, and returns the body. Every failure
/// is an `Err`, never a panic — this is the untrusted-input boundary.
pub fn open(format: &str, envelope: &Json) -> Result<Json, PersistError> {
    let tag: String = envelope.field("format")?;
    if tag != format {
        return Err(PersistError::Format(format!(
            "expected a `{format}` artifact, found `{tag}`"
        )));
    }
    let version = envelope
        .get("version")
        .and_then(Json::as_int)
        .ok_or_else(|| PersistError::Format("missing format version".to_string()))?;
    let (newest, oldest) = versions(format);
    if !(oldest..=newest).contains(&version) {
        return Err(PersistError::Format(format!(
            "unsupported {format} version {version} (supported: {oldest} to {newest})"
        )));
    }
    let stated: String = envelope.field("checksum")?;
    let body = envelope
        .get("body")
        .ok_or_else(|| PersistError::Format("missing envelope body".to_string()))?;
    let actual = checksum(&body.to_json_compact());
    if stated != actual {
        return Err(PersistError::Format(format!(
            "checksum mismatch: envelope states {stated}, body hashes to {actual}"
        )));
    }
    Ok(body.clone())
}

// ---- snapshots -------------------------------------------------------

/// Serializes a snapshot into its on-disk envelope text (pretty-printed;
/// the checksum covers the compact body, so formatting is free).
pub fn snapshot_to_string(snapshot: &EngineSnapshot) -> String {
    let mut out = seal(SNAPSHOT_FORMAT, snapshot).to_json_pretty();
    out.push('\n');
    out
}

/// Parses and validates a snapshot from envelope text.
pub fn snapshot_from_str(text: &str) -> Result<EngineSnapshot, PersistError> {
    let envelope = Json::parse(text)?;
    let body = open(SNAPSHOT_FORMAT, &envelope)?;
    Ok(EngineSnapshot::from_json(&body)?)
}

/// Writes a snapshot envelope to `path`.
pub fn write_snapshot(path: &Path, snapshot: &EngineSnapshot) -> Result<(), PersistError> {
    fs::write(path, snapshot_to_string(snapshot)).map_err(|e| io_err(path, &e))
}

/// Reads, verifies, and decodes a snapshot envelope from `path`.
pub fn read_snapshot(path: &Path) -> Result<EngineSnapshot, PersistError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    snapshot_from_str(&text)
}

// ---- journal ---------------------------------------------------------

/// An append-only journal of admitted workload mutations.
///
/// Create with [`Journal::create`], append [`Event`]s as they are
/// admitted, and recover them later with [`read_journal`] /
/// [`replay`]. Each line is individually checksummed and sequence
/// numbers are dense, so any truncation or corruption surfaces on
/// load.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    next_seq: u64,
}

/// The checksum of a journal entry, over its `{"seq", "event"}` prefix.
fn entry_checksum(seq: u64, event: &Event) -> String {
    let mut w = JsonWriter::compact();
    w.begin_object().field("seq", &seq).field("event", event);
    w.end_object();
    checksum(&w.into_string())
}

impl Journal {
    /// Creates (truncating) a journal at `path` and writes its header.
    pub fn create(path: &Path) -> Result<Journal, PersistError> {
        // The header carries no body: `null`.
        let mut text = seal(JOURNAL_FORMAT, &()).to_json_compact();
        text.push('\n');
        fs::write(path, text).map_err(|e| io_err(path, &e))?;
        Ok(Journal {
            path: path.to_path_buf(),
            next_seq: 0,
        })
    }

    /// Appends one admitted event and flushes it to disk.
    pub fn append(&mut self, event: &Event) -> Result<(), PersistError> {
        let mut w = JsonWriter::compact();
        w.begin_object()
            .field("seq", &self.next_seq)
            .field("event", event)
            .field("checksum", &entry_checksum(self.next_seq, event));
        w.end_object();
        let mut line = w.into_string();
        line.push('\n');
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err(&self.path, &e))?;
        file.write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, &e))?;
        self.next_seq += 1;
        Ok(())
    }
}

/// Loads and fully validates a journal: header envelope, per-line
/// checksums, and dense sequence numbers. Any defect is an `Err`.
pub fn read_journal(path: &Path) -> Result<Vec<Event>, PersistError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    let mut lines = text.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| PersistError::Format("empty journal (missing header)".to_string()))?;
    let header = Json::parse(header_line)?;
    let header_body = open(JOURNAL_FORMAT, &header)?;
    if header_body != Json::Null {
        return Err(PersistError::Format(
            "journal header carries an unexpected body".to_string(),
        ));
    }
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = Json::parse(line)
            .map_err(|e| PersistError::Format(format!("journal line {}: {}", i + 2, e.message)))?;
        let seq: u64 = entry.field("seq")?;
        #[expect(clippy::as_conversions, reason = "entry counts are far below 2^64")]
        let expected = events.len() as u64;
        if seq != expected {
            return Err(PersistError::Format(format!(
                "journal sequence gap: expected {expected}, found {seq}"
            )));
        }
        let event: Event = entry.field("event")?;
        let stated: String = entry.field("checksum")?;
        let actual = entry_checksum(seq, &event);
        if stated != actual {
            return Err(PersistError::Format(format!(
                "journal entry {seq} checksum mismatch: stated {stated}, hashes to {actual}"
            )));
        }
        events.push(event);
    }
    Ok(events)
}

/// Replays journaled events into a (typically restored) engine, in
/// sequence order, through the same injection path live drivers use.
/// Past-dated events fire at the engine's next step, exactly as they
/// would have when first injected.
pub fn replay<P: Probe>(engine: &mut Engine<P>, events: &[Event]) {
    for event in events {
        engine.inject(*event);
    }
}

// ---- segmented runs --------------------------------------------------

/// Runs `config` over `workload` as `segments` resumable chunks.
///
/// At every chunk boundary the engine is snapshotted, serialized to
/// envelope text, parsed back, verified, and **restored into a fresh
/// engine** — so the returned result proves the full persistence round
/// trip at each boundary, not just in-memory cloning. The result is
/// bit-identical to a straight [`pfair_sched::engine::simulate`] run
/// (the recovery suite pins this).
///
/// Configurations that ask for history are refused, as by
/// [`Engine::snapshot`]; `segments` must be at least 1.
pub fn run_segments(
    config: SimConfig,
    workload: &Workload,
    segments: u32,
) -> Result<SimResult, PersistError> {
    if segments == 0 {
        return Err(PersistError::Format(
            "segmented run needs at least one segment".to_string(),
        ));
    }
    let horizon = config.horizon;
    let mut engine = Engine::new(config, workload);
    for i in 1..segments {
        // Boundary i sits at ⌊horizon·i/segments⌋: monotone, and the
        // final chunk always ends exactly at the horizon.
        // audit: allow(panic-reach, segments is validated nonzero above, so the divisor cannot be zero)
        let at = horizon * Slot::from(i) / Slot::from(segments);
        let snap = engine.snapshot_at(at).map_err(PersistError::Format)?;
        let restored = snapshot_from_str(&snapshot_to_string(&snap))?;
        engine = Engine::restore(restored, NoopProbe).map_err(PersistError::Format)?;
    }
    engine.snapshot_at(horizon).map_err(PersistError::Format)?; // drive the last chunk, prove it snapshots clean
    Ok(engine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;
    use pfair_core::task::TaskId;
    use pfair_core::weight::Weight;
    use pfair_sched::engine::simulate;
    use pfair_sched::event::EventKind;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pfair-persist-test-{}-{name}", std::process::id()));
        p
    }

    fn sample_workload() -> Workload {
        let mut w = Workload::new();
        for t in 0..5 {
            w.join(t, 0, 1, 5);
        }
        w.reweight(0, 8, 2, 5);
        w.leave(1, 12);
        w.delay(2, 10, 3);
        w
    }

    #[test]
    fn envelope_round_trips_and_detects_tampering() {
        let body = Json::parse(r#"{"x":7}"#).unwrap();
        let text = seal(SNAPSHOT_FORMAT, &body).to_json_compact();
        let sealed = Json::parse(&text).unwrap();
        assert_eq!(open(SNAPSHOT_FORMAT, &sealed).unwrap(), body);
        // Wrong format tag.
        assert!(open(JOURNAL_FORMAT, &sealed).is_err());
        // Tampered body.
        let text = text.replace("\"x\":7", "\"x\":8");
        let reparsed = Json::parse(&text).unwrap();
        assert!(matches!(
            open(SNAPSHOT_FORMAT, &reparsed),
            Err(PersistError::Format(m)) if m.contains("checksum mismatch")
        ));
    }

    #[test]
    fn snapshot_file_round_trips() {
        let path = tmp("snap.json");
        let mut engine = Engine::new(SimConfig::oi(2, 30), &sample_workload());
        let snap = engine.snapshot_at(9).unwrap();
        write_snapshot(&path, &snap).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(snap.to_json_compact(), back.to_json_compact());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_snapshot_is_an_error_not_a_panic() {
        let mut engine = Engine::new(SimConfig::oi(2, 30), &sample_workload());
        let text = snapshot_to_string(&engine.snapshot_at(9).unwrap());
        for cut in [1, text.len() / 4, text.len() / 2, text.len() - 2] {
            assert!(snapshot_from_str(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn journal_appends_and_replays() {
        let path = tmp("journal.jsonl");
        let mut journal = Journal::create(&path).unwrap();
        let events = [
            Event {
                at: 3,
                task: TaskId(0),
                kind: EventKind::Reweight(Weight::new(rat(1, 4))),
            },
            Event {
                at: 5,
                task: TaskId(1),
                kind: EventKind::Leave,
            },
        ];
        for e in &events {
            journal.append(e).unwrap();
        }
        let loaded = read_journal(&path).unwrap();
        assert_eq!(loaded, events);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_journal_line_is_rejected() {
        let path = tmp("journal-bad.jsonl");
        let mut journal = Journal::create(&path).unwrap();
        journal
            .append(&Event {
                at: 3,
                task: TaskId(0),
                kind: EventKind::Leave,
            })
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip the event's slot without updating the checksum.
        let bad = text.replace("\"at\":3", "\"at\":4");
        assert_ne!(text, bad);
        std::fs::write(&path, bad).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(PersistError::Format(m)) if m.contains("checksum mismatch")
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_sequence_gap_is_rejected() {
        let path = tmp("journal-gap.jsonl");
        let mut journal = Journal::create(&path).unwrap();
        let e = Event {
            at: 3,
            task: TaskId(0),
            kind: EventKind::Leave,
        };
        journal.append(&e).unwrap();
        journal.append(&e).unwrap();
        // Drop the first entry line (header stays): seq now starts at 1.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(1);
        std::fs::write(&path, lines.join("\n")).unwrap();
        assert!(matches!(
            read_journal(&path),
            Err(PersistError::Format(m)) if m.contains("sequence gap")
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segmented_run_matches_one_shot() {
        let config = SimConfig::oi(2, 60);
        let w = sample_workload();
        let reference = simulate(config.clone(), &w);
        for segments in [1, 2, 3, 7] {
            let segmented = run_segments(config.clone(), &w, segments).unwrap();
            assert_eq!(
                reference.to_json_pretty(),
                segmented.to_json_pretty(),
                "{segments} segments"
            );
        }
    }

    #[test]
    fn history_mode_segmented_run_is_refused() {
        let config = SimConfig::oi(2, 60).with_history();
        assert!(run_segments(config, &sample_workload(), 3).is_err());
        assert!(run_segments(SimConfig::oi(2, 60), &sample_workload(), 0).is_err());
    }
}
