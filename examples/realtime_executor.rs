//! Live PD² execution: real closures, real threads, live reweighting.
//!
//! A two-worker executor runs three "processing stages" whose shares
//! adapt at run time, the way the Whisper tracker's correlation tasks
//! would: a `tracker` stage that doubles its share when its target
//! "speeds up", a steady `renderer`, and a background `logger`. The
//! reweighting request is submitted from the main thread through a
//! [`Controller`] while the executor runs, and is enacted by rules O/I
//! with constant drift. The report ends with the quanta each stage lost
//! to a tick that overran its budget.
//!
//! ```sh
//! cargo run --release --example realtime_executor
//! ```

use pfair_repro::core::{rat, Weight};
use pfair_repro::exec::ExecutorBuilder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let quantum = Duration::from_millis(2);
    let mut builder = ExecutorBuilder::new(2).quantum(quantum);

    let work = Arc::new([AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)]);

    let w = work.clone();
    let tracker = builder.task("tracker", Weight::new(rat(1, 5)), move |tick| {
        // One correlation update per quantum.
        w[0].fetch_add(1, Ordering::Relaxed);
        let _ = tick.seq;
    });
    let w = work.clone();
    let _renderer = builder.task("renderer", Weight::new(rat(1, 2)), move |_| {
        w[1].fetch_add(1, Ordering::Relaxed);
    });
    let w = work.clone();
    let _logger = builder.task("logger", Weight::new(rat(1, 10)), move |_| {
        w[2].fetch_add(1, Ordering::Relaxed);
    });

    let mut exec = builder.build();
    let controller = exec.controller();

    println!(
        "phase 1: tracker at weight 1/5 for 200 quanta ({} ms each)",
        quantum.as_millis()
    );
    exec.run(200);
    let phase1: Vec<u64> = work.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    println!(
        "  ticks: tracker {}, renderer {}, logger {}",
        phase1[0], phase1[1], phase1[2]
    );

    println!("phase 2: target speeds up → tracker reweights to 2/5 (live)");
    controller.reweight(tracker, Weight::new(rat(2, 5)));
    exec.run(200);
    let phase2: Vec<u64> = work
        .iter()
        .zip(&phase1)
        .map(|(c, p)| c.load(Ordering::Relaxed) - p)
        .collect();
    println!(
        "  ticks: tracker {}, renderer {}, logger {}",
        phase2[0], phase2[1], phase2[2]
    );

    let report = exec.shutdown();
    assert!(report.sim.is_miss_free());
    // A skip is a scheduled quantum lost to a tick still running past
    // its budget; how many a run loses depends on the machine's load.
    let skips: Vec<String> = (report.names.iter().zip(&report.skips))
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    println!("  skipped quanta, both phases: {}", skips.join(", "));
    println!(
        "\nengine view: 1 initiation, {} enactment(s), max per-event drift {} (bound: 2)",
        report.sim.counters.reweight_enactments,
        report.sim.max_abs_drift_delta()
    );
    println!(
        "tracker share rose from {:.2} to {:.2} ticks/quantum — enacted within two quanta.",
        phase1[0] as f64 / 200.0,
        phase2[0] as f64 / 200.0
    );
}
