//! `pfair trace --scheme` reads the workload file's `scheme` grammar,
//! so the hybrid policies run from the command line too.

use std::process::Command;

#[test]
fn trace_runs_a_hybrid_scheme_and_names_the_grammar_on_a_bad_one() {
    let dir = std::env::temp_dir().join(format!("pfair-scheme-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = |scheme: &str| {
        Command::new(env!("CARGO_BIN_EXE_pfair"))
            .current_dir(&dir)
            .args(["trace", "--scheme", scheme, "--horizon", "200"])
            .args(["--out", "trace.json"])
            .output()
            .expect("pfair runs")
    };

    let out = trace("hybrid-nth:2");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("scheme Hybrid(EveryNth(2))"), "{stdout}");
    assert!(dir.join("trace.json").is_file());

    let out = trace("hybrid");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--scheme needs oi, lj, hybrid-nth:N"),
        "{stderr}"
    );

    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
