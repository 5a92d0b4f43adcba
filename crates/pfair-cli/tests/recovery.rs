//! Crash recovery and segmented runs through the `pfair` binary.
//!
//! Every step is its own process, so only what reached disk carries
//! over. Each leg compares with a reference that takes the same
//! persistence path (checkpoint at slot 0, one `resume` to the
//! horizon), byte for byte on the result JSON and on the metrics
//! registry. A failed comparison keeps the leg's directory and names it.

use std::path::PathBuf;
use std::process::Command;

/// Mid-run reweights, an IS delay and a rule-L leave, so the slot-200
/// checkpoint lands amid pending state.
const RECOVERY: &str = "\
processors 4
horizon 400
scheme oi
tiebreak asc
admission police
join     0  0    3/20
join     1  0    3/20
join     2  0    3/20
join     3  0    3/20
join     4  2    1/7
join     5  3    1/9
join     6  5    2/11
join     7  8    1/3
reweight 0  60   1/2
reweight 4  150  1/3
delay    3  90   40
reweight 1  220  1/5
leave    7  250
";

/// A long sparse horizon: the calendar ring rotates dozens of times and
/// the span drivers jump far, so each segment is cheap but its
/// checkpoint is structurally rich.
const SOAK: &str = "\
processors 4
horizon 60000
scheme oi
tiebreak asc
join     0  0      1/97
join     1  1      1/101
join     2  2      1/103
join     3  3      2/107
join     4  5      1/109
join     5  8      3/113
reweight 0  4000   1/80
reweight 1  15000  1/150
delay    2  9000   700
leave    3  30000
reweight 4  45000  1/90
";

/// One leg's working directory, holding its workload file. `pfair` runs
/// inside it, so file arguments are bare names.
struct Leg(PathBuf);

impl Leg {
    fn new(name: &str, workload: &str) -> Leg {
        let dir = std::env::temp_dir().join(format!("pfair-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the leg's directory");
        std::fs::write(dir.join("workload.txt"), workload).expect("write the workload");
        Leg(dir)
    }

    fn pfair(&self, args: &str) {
        let out = Command::new(env!("CARGO_BIN_EXE_pfair"))
            .current_dir(&self.0)
            .args(args.split_whitespace())
            .output()
            .expect("spawn pfair");
        assert!(
            out.status.success(),
            "`pfair {args}` failed ({}): {}; files kept in {}",
            out.status,
            String::from_utf8_lossy(&out.stderr),
            self.0.display()
        );
    }

    fn assert_same(&self, a: &str, b: &str) {
        let read = |f: &str| std::fs::read(self.0.join(f)).expect("read an output file");
        assert!(
            read(a) == read(b),
            "{a} and {b} differ; files kept in {}",
            self.0.display()
        );
    }

    /// The reference: checkpoint at slot 0, then one uninterrupted
    /// resume to `ref.json` and `ref_metrics.json`.
    fn run_reference(&self) {
        self.pfair(
            "snapshot workload.txt --at 0 --out start.json --metrics-out start_metrics.json",
        );
        self.pfair(
            "resume start.json --metrics-in start_metrics.json \
             --json ref.json --metrics-out ref_metrics.json",
        );
    }

    fn remove(self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Snapshot at slot 200 in one process, resume to the horizon in
/// another: the same bytes as the run that was never interrupted.
#[test]
fn resume_from_a_mid_run_checkpoint_matches_the_uninterrupted_run() {
    let leg = Leg::new("recovery", RECOVERY);
    leg.run_reference();
    leg.pfair("snapshot workload.txt --at 200 --out mid.json --metrics-out mid_metrics.json");
    // A restored engine reaching slot 200 writes the same checkpoint,
    // byte for byte: the envelope's checksum covers its body, not the
    // file, so only this comparison sees a torn trailing byte.
    leg.pfair(
        "resume start.json --metrics-in start_metrics.json --until 200 \
         --snapshot-out mid_again.json --metrics-out mid_again_metrics.json",
    );
    leg.assert_same("mid.json", "mid_again.json");
    leg.assert_same("mid_metrics.json", "mid_again_metrics.json");
    leg.pfair(
        "resume mid.json --metrics-in mid_metrics.json \
         --json recovered.json --metrics-out recovered_metrics.json",
    );
    leg.assert_same("ref.json", "recovered.json");
    leg.assert_same("ref_metrics.json", "recovered_metrics.json");
    leg.remove();
}

/// Three processes chained by their checkpoints alone reproduce the
/// one-shot run.
#[test]
fn three_chained_segments_match_the_one_shot_run() {
    let leg = Leg::new("soak", SOAK);
    leg.run_reference();
    leg.pfair(
        "resume start.json --metrics-in start_metrics.json --until 20000 \
         --snapshot-out seg1.json --metrics-out seg1_metrics.json",
    );
    leg.pfair(
        "resume seg1.json --metrics-in seg1_metrics.json --until 40000 \
         --snapshot-out seg2.json --metrics-out seg2_metrics.json",
    );
    leg.pfair(
        "resume seg2.json --metrics-in seg2_metrics.json \
         --json seg.json --metrics-out seg_metrics.json",
    );
    leg.assert_same("ref.json", "seg.json");
    leg.assert_same("ref_metrics.json", "seg_metrics.json");
    leg.remove();
}
