//! Scale-out sweep: population workloads through the shard supervisor.
//!
//! Exercises the PR-10 sharding stack end to end — a deterministic
//! synthetic population (`10⁴–10⁵` tasks here; `pfair-sched`'s
//! `tests/soak.rs` goes to `10⁶`) is partitioned by [`ShardSet`] across
//! 1–8 engine shards and driven through the worker pool — and prints
//! the two figures the sharding invariant promises:
//!
//! * the aggregate invariant digest (per-task quanta + drift) is
//!   identical across shard counts, and
//! * total supervisor + engine work per shard drops as shards are
//!   added (the per-shard scheduled-quanta column), which is what
//!   buys near-linear throughput on real parallel hardware.

use pfair_sched::shard::{ShardReport, ShardSet, ShardSpec};
use pfair_sched::workloads;

/// One row of the scale-out table.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Shard count `S`.
    pub shards: usize,
    /// Total quanta scheduled (shard-count invariant when feasible).
    pub scheduled_quanta: u64,
    /// Largest per-shard quanta share (the critical path on `S` cores).
    pub max_shard_quanta: u64,
    /// Deadline misses (must stay zero).
    pub misses: usize,
    /// FNV-1a digest of the invariant JSON (equal down the column).
    pub digest: u64,
}

fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_one(tasks: u32, shards: usize, horizon: i64, threads: usize) -> ShardReport {
    let w = workloads::synthetic_population(tasks, 0x5eed);
    let spec = ShardSpec::new(shards, processors_for(tasks, shards), horizon)
        .with_segment(512)
        .with_threads(threads);
    let mut set = ShardSet::new(spec, &w);
    set.run();
    set.finish()
}

/// Processor budget per shard: ceil of the population's worst-case
/// utilization (`n/512`) divided across shards, plus one for headroom.
fn processors_for(tasks: u32, shards: usize) -> u32 {
    let worst = tasks.div_ceil(512);
    worst.div_ceil(u32::try_from(shards).unwrap_or(1)) + 1
}

/// Runs the sweep and prints the scale-out table.
pub fn run(_runs: u64) {
    println!("== scale-out: synthetic population through ShardSet ==");
    println!("   (invariant digest must match down each column; see DESIGN.md)");
    let threads = crate::runner::threads();
    for &tasks in &[10_000u32, 100_000] {
        let horizon = workloads::POPULATION_ALIGNMENT;
        // No pool width here: the sharding invariant makes it invisible
        // below, and the output is byte-compared across machines.
        println!("-- {tasks} tasks, horizon {horizon} --");
        println!(
            "{:>6} {:>16} {:>16} {:>8} {:>18}",
            "shards", "total quanta", "max shard quanta", "misses", "invariant digest"
        );
        let mut digest0 = None;
        for shards in [1usize, 2, 4, 8] {
            let report = run_one(tasks, shards, horizon, threads);
            let row = ShardRow {
                shards,
                scheduled_quanta: report.scheduled_quanta(),
                max_shard_quanta: report
                    .per_shard
                    .iter()
                    .map(|s| s.scheduled_quanta)
                    .max()
                    .unwrap_or(0),
                misses: report.misses(),
                digest: fnv1a(&report.invariant_json()),
            };
            let digest0 = *digest0.get_or_insert(row.digest);
            assert_eq!(
                digest0, row.digest,
                "sharding invariant broken at S={shards}"
            );
            assert_eq!(row.misses, 0, "population must be feasible at S={shards}");
            println!(
                "{:>6} {:>16} {:>16} {:>8} {:>18}",
                row.shards,
                row.scheduled_quanta,
                row.max_shard_quanta,
                row.misses,
                format!("{:016x}", row.digest)
            );
        }
    }
}
