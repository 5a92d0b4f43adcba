//! Every JSON document the `pfair` binary writes, byte for byte.
//!
//! The files under `fixtures/` were written by an older binary (see
//! `fixtures/README.md`). Each invocation below runs in one fresh
//! directory holding the fixture workload, and every file it writes is
//! compared with the fixture of that name. A failed comparison keeps
//! the directory and names it.

use std::path::Path;
use std::process::Command;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// Each invocation, and the files it writes.
const INVOCATIONS: [(&str, &[&str]); 4] = [
    (
        "trace --whisper 0 --horizon 120 --top 5 --out trace.json --flight flight.json",
        &["trace.json", "flight.json"],
    ),
    (
        "slo --whisper 0 --horizon 120 --window 60 --out slo.json",
        &["slo.json"],
    ),
    ("run workload.txt --json run.json", &["run.json"]),
    (
        "snapshot workload.txt --at 10 --out snapshot.json --metrics-out snapshot_metrics.json",
        &["snapshot.json", "snapshot_metrics.json"],
    ),
];

#[test]
fn every_written_document_matches_its_golden() {
    let fixtures = Path::new(FIXTURES);
    let dir = std::env::temp_dir().join(format!("pfair-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    std::fs::copy(fixtures.join("workload.txt"), dir.join("workload.txt"))
        .expect("copy the workload");
    for (args, written) in INVOCATIONS {
        let out = Command::new(env!("CARGO_BIN_EXE_pfair"))
            .current_dir(&dir)
            .args(args.split_whitespace())
            .output()
            .expect("spawn pfair");
        assert!(
            out.status.success(),
            "`pfair {args}` failed ({}): {}; files kept in {}",
            out.status,
            String::from_utf8_lossy(&out.stderr),
            dir.display()
        );
        for name in written {
            let bytes = std::fs::read(dir.join(name)).expect("read an output file");
            let golden = std::fs::read(fixtures.join(name)).expect("read a fixture");
            assert!(
                bytes == golden,
                "{name} differs from its fixture; files kept in {}",
                dir.display()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
