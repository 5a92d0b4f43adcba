//! `pfair run` on a workload whose weight does not fit 64 bits exits
//! non-zero and names the weight and its line, without panicking.

use std::process::Command;

#[test]
fn run_names_a_weight_beyond_64_bits() {
    let dir = std::env::temp_dir().join(format!("pfair-wide-weight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("wide.txt");
    std::fs::write(
        &file,
        "processors 1\nhorizon 20\njoin 0 0 1/4\njoin 1 0 1/18446744073709551616\n",
    )
    .expect("write workload");
    let out = Command::new(env!("CARGO_BIN_EXE_pfair"))
        .arg("run")
        .arg(&file)
        .output()
        .expect("pfair runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("weight 1/18446744073709551616 has a denominator beyond 64 bits"),
        "{stderr}"
    );
    assert!(stderr.contains("line 4"), "names the line: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
