//! # pfair-persist
//!
//! Durable simulation state for the PD² engine: versioned, checksummed
//! **snapshots** and a **segmented runner** that executes a long
//! horizon as resumable chunks.
//!
//! ## Envelope format
//!
//! A snapshot travels in an envelope: a JSON object with a `format`
//! tag (`pfair-snapshot`), a `version` number, an FNV-1a-64 `checksum`
//! of the canonical *compact* encoding of the body, and the `body`
//! itself. [`open`] re-derives the checksum from the parsed body —
//! whitespace and file-level pretty-printing are outside the integrity
//! boundary, while any semantic change to the body (a digit, a flag, a
//! dropped field) is caught. Foreign tags and future versions are
//! refused, never guessed at.
//!
//! Snapshots are at version 2, which stopped writing what
//! `Engine::restore` rebuilds from the task rows (the calendar rings, a
//! task's actual weight) and the history flags no snapshot can set; a
//! version-1 snapshot still opens, and its decoder ignores those keys.
//!
//! A snapshot is the one persistence format. It carries the workload's
//! whole event stream, the cursor into it and every pending online
//! injection, so a restored engine needs nothing beside it.
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
        clippy::float_arithmetic,
        clippy::panic
    )
)]

use pfair_core::time::Slot;
use pfair_json::{FromJson, Json, JsonError, JsonWriter, ToJson};
use pfair_obs::NoopProbe;
use pfair_sched::engine::{Engine, EngineSnapshot, SimConfig};
use pfair_sched::event::Workload;
use pfair_sched::trace::SimResult;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Format tag of snapshot envelopes.
pub const SNAPSHOT_FORMAT: &str = "pfair-snapshot";
/// Version of the snapshots this build writes; it opens every version
/// from 1 up to this one.
pub const SNAPSHOT_VERSION: i128 = 2;

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

/// The checksum of a body: FNV-1a-64 of its compact canonical
/// encoding, as 16 lowercase hex digits. Small, dependency-free, and
/// byte-exact across platforms — this is a corruption detector, not a
/// cryptographic commitment.
fn checksum(compact: &str) -> String {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET_BASIS;
    for &b in compact.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    format!("{hash:016x}")
}

/// A body in its versioned, checksummed envelope.
struct Sealed<'a, T: ?Sized>(&'a T);

impl<T: ToJson + ?Sized> ToJson for Sealed<'_, T> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("format", SNAPSHOT_FORMAT)
            .field("version", &SNAPSHOT_VERSION)
            .field("checksum", &checksum(&self.0.to_json_compact()))
            .field("body", self.0);
        w.end_object();
    }
}

/// Wraps a body in a checksummed snapshot envelope stamped with the
/// version this build writes, to be rendered in either layout.
pub fn seal<T: ToJson + ?Sized>(body: &T) -> impl ToJson + '_ {
    Sealed(body)
}

/// Opens a snapshot envelope: checks the format tag, the version (one
/// this build reads), and the checksum, and returns the body. Every
/// failure is an `Err`, never a panic — this is the untrusted-input
/// boundary.
pub fn open(envelope: &Json) -> Result<Json, PersistError> {
    let tag: String = envelope.field("format")?;
    if tag != SNAPSHOT_FORMAT {
        return Err(PersistError::Format(format!(
            "expected a `{SNAPSHOT_FORMAT}` artifact, found `{tag}`"
        )));
    }
    let version = envelope
        .get("version")
        .and_then(Json::as_int)
        .ok_or_else(|| PersistError::Format("missing format version".to_string()))?;
    if !(1..=SNAPSHOT_VERSION).contains(&version) {
        return Err(PersistError::Format(format!(
            "unsupported {SNAPSHOT_FORMAT} version {version} (supported: 1 to {SNAPSHOT_VERSION})"
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
    let mut out = seal(snapshot).to_json_pretty();
    out.push('\n');
    out
}

/// Parses and validates a snapshot from envelope text.
pub fn snapshot_from_str(text: &str) -> Result<EngineSnapshot, PersistError> {
    let envelope = Json::parse(text)?;
    let body = open(&envelope)?;
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
    use pfair_sched::engine::simulate;

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
        let text = seal(&body).to_json_compact();
        let sealed = Json::parse(&text).unwrap();
        assert_eq!(open(&sealed).unwrap(), body);
        // Wrong format tag.
        let foreign = text.replace(SNAPSHOT_FORMAT, "pfair-other");
        assert!(open(&Json::parse(&foreign).unwrap()).is_err());
        // Tampered body.
        let text = text.replace("\"x\":7", "\"x\":8");
        let reparsed = Json::parse(&text).unwrap();
        assert!(matches!(
            open(&reparsed),
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
