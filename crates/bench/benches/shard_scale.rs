//! Scale-out benches for the PR-10 sharding stack.
//!
//! Three families, all landing in the repo-root trajectory file:
//!
//! * `engine/shard_{1,2,4,8}x/{100k_tasks,1m_tasks}` — a deterministic
//!   synthetic population partitioned by [`ShardSet`] across `S`
//!   shards and run to a fixed horizon. On a single core the total is
//!   roughly flat in `S` (same quanta, small supervisor overhead); the
//!   scaling claim lives in the per-shard split the sharding invariant
//!   guarantees (max shard share ≈ total/S — see the `sharding`
//!   experiment), which parallel hardware turns into throughput.
//! * `engine/shard_population/1m_tasks_10k_slots` — the acceptance
//!   run: one full 10⁶-task, 10⁴-slot horizon through an 8-shard
//!   [`ShardSet`], timed once and recorded via `record_result` (an
//!   8-iteration criterion loop over a multi-second run would buy
//!   nothing but CI minutes).
//! * `slab/{aos,soa}_step/100k` — the storage refactor's microbench:
//!   one whole-set hot scan (present? next release due?) over 10⁵
//!   tasks, laid out as array-of-structs rows the size of the engine's
//!   `TaskState` (928 bytes; the hot fields sat inside it before PR 10)
//!   vs the slab's bitmap-plus-column structure-of-arrays. The pair is the evidence that the per-slot
//!   path became cache-linear.

use criterion::{criterion_group, BenchResult, BenchmarkId, Criterion};
use pfair_sched::shard::{ShardSet, ShardSpec};
use pfair_sched::workloads::synthetic_population;
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 0x5eed;

/// Per-shard processor budget covering the population's worst-case
/// utilization (`n/512`) split across `shards`, plus headroom.
fn processors_for(tasks: u32, shards: usize) -> u32 {
    let worst = tasks.div_ceil(512);
    worst.div_ceil(u32::try_from(shards).unwrap_or(1)) + 1
}

fn run_sharded(tasks: u32, shards: usize, horizon: i64) -> u64 {
    let w = synthetic_population(tasks, SEED);
    let spec = ShardSpec::new(shards, processors_for(tasks, shards), horizon).with_segment(512);
    let mut set = ShardSet::new(spec, &w);
    set.run();
    let report = set.finish();
    assert_eq!(report.misses(), 0, "population must stay feasible");
    report.scheduled_quanta()
}

fn bench_shard_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    for &(tasks, label, horizon) in &[
        (100_000u32, "100k_tasks", 4_096i64),
        (1_000_000, "1m_tasks", 512),
    ] {
        for shards in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("shard_{shards}x"), label),
                &horizon,
                |b, &horizon| b.iter(|| black_box(run_sharded(tasks, shards, horizon))),
            );
        }
    }
    group.finish();
}

/// The acceptance run, timed once: 10⁶ tasks to a 10⁴-slot horizon
/// through 8 shards.
fn bench_shard_population() {
    let t0 = Instant::now();
    let quanta = run_sharded(1_000_000, 8, 10_000);
    let elapsed = t0.elapsed();
    println!(
        "engine/shard_population/1m_tasks_10k_slots: {} ms for {quanta} quanta",
        elapsed.as_millis()
    );
    let ns = elapsed.as_nanos().max(1);
    criterion::record_result(BenchResult {
        name: "engine/shard_population/1m_tasks_10k_slots".to_string(),
        median_ns: ns,
        mean_ns: ns,
        iters: 1,
    });
}

/// The engine's pre-PR-10 per-task layout: hot fields buried in the
/// row, so a whole-set scan strides the whole row — 928 bytes, the
/// measured size of `TaskState` (which `engine.rs` `const`-asserts to
/// stay within 1024), some fifteen cache lines per task.
struct AosTask {
    in_system: bool,
    _ran: bool,
    next_release: i64,
    _cold: [u64; 114],
}

const _: () = assert!(std::mem::size_of::<AosTask>() == 928);

/// The slab layout: presence as bitmap words, next releases as a flat
/// column.
struct SoaTasks {
    present: Vec<u64>,
    next_release: Vec<i64>,
}

fn aos_fixture(n: usize) -> Vec<AosTask> {
    (0..n)
        .map(|i| AosTask {
            in_system: i % 2 == 0,
            _ran: i % 3 == 0,
            next_release: (i as i64) % 509,
            _cold: [0; 114],
        })
        .collect()
}

fn soa_fixture(n: usize) -> SoaTasks {
    let mut present = vec![0u64; n.div_ceil(64)];
    for i in (0..n).step_by(2) {
        present[i / 64] |= 1u64 << (i % 64);
    }
    SoaTasks {
        present,
        next_release: (0..n).map(|i| (i as i64) % 509).collect(),
    }
}

/// The span-period question both layouts must answer per slot: the
/// earliest next release among present tasks.
fn aos_step(tasks: &[AosTask]) -> i64 {
    tasks
        .iter()
        .filter(|t| t.in_system)
        .map(|t| t.next_release)
        .min()
        .unwrap_or(i64::MAX)
}

fn soa_step(tasks: &SoaTasks) -> i64 {
    let mut min = i64::MAX;
    for (wi, &word) in tasks.present.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            min = min.min(tasks.next_release[wi * 64 + bit]);
        }
    }
    min
}

fn bench_slab_layout(c: &mut Criterion) {
    let n = 100_000usize;
    let aos = aos_fixture(n);
    let soa = soa_fixture(n);
    assert_eq!(aos_step(&aos), soa_step(&soa));
    let mut group = c.benchmark_group("slab");
    group.bench_with_input(BenchmarkId::new("aos_step", "100k"), &(), |b, ()| {
        b.iter(|| black_box(aos_step(black_box(&aos))));
    });
    group.bench_with_input(BenchmarkId::new("soa_step", "100k"), &(), |b, ()| {
        b.iter(|| black_box(soa_step(black_box(&soa))));
    });
    group.finish();
}

criterion_group!(benches, bench_shard_scale, bench_slab_layout);
fn main() {
    benches();
    bench_shard_population();
    // Fold this target's numbers into the repo-root trajectory file.
    bench::emit_summary();
}
