//! Shard-count and pool-width determinism for [`ShardSet`] runs, plus
//! the migration drift guarantee.
//!
//! Two separate claims, pinned separately:
//!
//! 1. **Pool width is invisible.** Driving the *same* shard partition
//!    on 1, 2, 4, or 8 worker threads is the same computation — the
//!    full [`ShardReport::to_json`] rendering (per-shard counters,
//!    per-task drift, merged metrics text) must be byte-identical.
//! 2. **The partition is invisible in the aggregate.** For a
//!    reweight-free feasible aligned workload (see
//!    [`workloads::POPULATION_ALIGNMENT`]) every shard schedules its
//!    members miss-free and the ideal trackers depend only on each
//!    task's own event times, so the invariant subset
//!    ([`ShardReport::invariant_json`]: per-task scheduled quanta,
//!    ideal totals, drift samples, global totals) must be
//!    byte-identical across 1, 2, 4, and 8 shards.

use pfair_json::ToJson;
use pfair_sched::prelude::*;
use pfair_sched::shard::{ShardSet, ShardSpec};
use pfair_sched::workloads::{self, POPULATION_ALIGNMENT};

const TASKS: u32 = 1024;
const SEED: u64 = 0x005e_ed10;

fn population_spec(shards: usize) -> ShardSpec {
    let horizon = POPULATION_ALIGNMENT;
    // 1024 population tasks request at most 1024/512 = 2 processors in
    // total; one processor per shard admits every placement in all of
    // the tested shard counts (least-utilized-first keeps each shard
    // under its budget).
    ShardSpec::new(shards, 2, horizon).with_segment(512)
}

fn report(shards: usize, threads: usize) -> pfair_sched::shard::ShardReport {
    let w = workloads::synthetic_population(TASKS, SEED);
    let mut set = ShardSet::new(population_spec(shards).with_threads(threads), &w);
    set.run();
    set.finish()
}

#[test]
fn pool_width_never_changes_a_report_byte() {
    let reference = report(4, 1).to_json_pretty();
    for threads in [2usize, 4, 8] {
        let candidate = report(4, threads).to_json_pretty();
        assert_eq!(
            reference, candidate,
            "ShardReport diverged between 1 and {threads} worker threads"
        );
    }
}

#[test]
fn shard_count_never_changes_the_aggregate() {
    let reference = report(1, 1);
    assert_eq!(
        reference.misses(),
        0,
        "reference partition must be feasible"
    );
    // Aligned horizon: every weight-1/L task runs exactly H/L quanta.
    for task in &reference.tasks {
        assert!(task.scheduled_count > 0);
        assert_eq!(
            POPULATION_ALIGNMENT % i64::try_from(task.scheduled_count).unwrap(),
            0,
            "task {} scheduled a non-divisor quantum count",
            task.id
        );
    }
    let reference = reference.invariant_json();
    for shards in [2usize, 4, 8] {
        let candidate = report(shards, 4).invariant_json();
        assert_eq!(
            reference, candidate,
            "aggregate invariants diverged between 1 and {shards} shards"
        );
    }
}

/// Migration preserves the per-task drift guarantee: a leave/rejoin
/// move is the paper's LJ event pair, so the migrated task's drift
/// samples stay within the per-era bound and its schedule stays
/// miss-free — and every unmigrated task is untouched.
#[test]
fn migration_is_drift_bounded_leave_rejoin() {
    let w = workloads::synthetic_population(256, SEED);
    let spec = ShardSpec::new(2, 1, POPULATION_ALIGNMENT).with_segment(512);

    let baseline = {
        let mut set = ShardSet::new(spec.clone(), &w);
        set.run();
        set.finish()
    };

    let migrated = {
        let mut set = ShardSet::new(spec, &w);
        // Drive a few segments, then force one cross-shard move.
        while set.now() < 1024 {
            let before = set.now();
            set.run_segments(1);
            assert!(set.now() > before);
        }
        assert!(set.migrate_task(0, 1), "task 0 must be movable to shard 1");
        assert_eq!(set.migrations(), 1);
        set.run();
        set.finish()
    };

    assert_eq!(baseline.misses(), 0);
    assert_eq!(migrated.misses(), 0, "migration introduced a miss");
    assert_eq!(migrated.migrations, 1);

    for (b, m) in baseline.tasks.iter().zip(migrated.tasks.iter()) {
        assert_eq!(b.id, m.id);
        if b.id == 0 {
            // The mover: one extra era from the rejoin, and — exactly
            // as under the paper's LJ reweighting pair — each era opens
            // drift-free: the leave settles the old era's accounts and
            // the rejoin starts a clean slate on the target shard.
            assert_eq!(m.drift.len(), b.drift.len() + 1);
            for sample in &m.drift {
                assert_eq!(
                    sample.drift,
                    rat(0, 1),
                    "migrated task's era opened with nonzero drift at slot {}",
                    sample.at
                );
            }
        } else {
            // Everyone else: byte-equal outcome.
            assert_eq!(b.to_json_compact(), m.to_json_compact());
        }
    }
}

/// The segment is how much of the stream the supervisor hands each
/// shard at a time, and nothing a shard does may depend on it: a
/// reweighting workload driven in 64-slot segments and in one segment
/// the length of the horizon (no rebalancing, so no segment boundary
/// decides anything) renders the same report, byte for byte.
#[test]
fn segment_length_never_changes_a_report_byte() {
    let horizon = 1_200;
    let w = workloads::random_adaptive(96, 600, horizon, SEED);
    let render = |segment: i64| {
        let mut set = ShardSet::new(ShardSpec::new(4, 4, horizon).with_segment(segment), &w);
        set.run();
        set.finish()
    };
    let (short, whole) = (render(64), render(horizon));
    assert!(
        short.tasks.iter().any(|t| t.drift.len() > 1),
        "the tasks reweight"
    );
    assert_eq!(short.to_json_pretty(), whole.to_json_pretty());
}
