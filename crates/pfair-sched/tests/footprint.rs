//! What a task costs in memory, pinned.
//!
//! The `population` workload is memory-bound: a release spends its time
//! fetching the task's state, not computing on it. So a task's engine
//! state is one contiguous row — subtask records and `I_SW` subtasks
//! inline — plus a single heap block for its drift track, and this test
//! keeps it that way with a counting global allocator: it fails when a
//! change gives every task another heap block, fattens the row past its
//! budget, or makes the release path allocate again. The same counters
//! pin the two buffers that exist once: the event stream every engine
//! of a workload shares, and the result a finished engine hands over
//! in place of its rows.
//!
//! The record and row sizes themselves are `const`-asserted where the
//! types are defined (`SubRec` ≤ 64 and `TaskState` ≤ 800 bytes in
//! `engine.rs`, `IswSub` ≤ 64 bytes in `pfair-core`'s `isw.rs`), so a
//! new field that breaks the budget does not compile.

// The counting allocator is the one `unsafe impl` this workspace has;
// it forwards to `System` and touches nothing but three counters.
#![allow(unsafe_code)]

use pfair_core::drift::DriftSample;
use pfair_obs::MetricsProbe;
use pfair_sched::engine::{Engine, SimConfig};
use pfair_sched::event::{Event, Workload};
use pfair_sched::trace::TaskResult;
use pfair_sched::workloads::{synthetic_population, POPULATION_ALIGNMENT};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

/// Statistics only: no other data is published through these.
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn signed(size: usize) -> isize {
    isize::try_from(size).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates allocate
// nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(signed(layout.size()), Relaxed);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
        LIVE_BYTES.fetch_sub(signed(layout.size()), Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, from `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(signed(new_size) - signed(layout.size()), Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TASKS: u32 = 2000;

/// Allowance for heap blocks that belong to the engine, not to any
/// task: the ready queue, the three calendar rings and their occupied
/// buckets, the event stream, the slab columns, the scratch buffers,
/// the metrics registry. Their number does not grow with the task
/// count; 31 are live at slot 512 of this run.
const ENGINE_BLOCKS: isize = 64;

/// One test only: the counters are process-wide, and a second test
/// running beside this one would be counted too.
#[test]
fn footprint() {
    a_task_is_one_row_and_one_heap_block();
    engines_of_one_workload_share_its_stream();
}

fn a_task_is_one_row_and_one_heap_block() {
    let workload = synthetic_population(TASKS, 1);
    let blocks_before = LIVE_BLOCKS.load(Relaxed);
    let bytes_before = LIVE_BYTES.load(Relaxed);
    // What each population shard runs: PD²-OI under a `MetricsProbe`,
    // no busy-span batching (arming clones the whole slab).
    let config = SimConfig::oi(4, POPULATION_ALIGNMENT).without_busy_span();
    let mut engine = Engine::with_probe(config, &workload, MetricsProbe::new());
    engine.run_to(512);

    let tasks = isize::try_from(TASKS).unwrap();
    let blocks = LIVE_BLOCKS.load(Relaxed) - blocks_before;
    let bytes = LIVE_BYTES.load(Relaxed) - bytes_before;
    assert!(
        blocks <= tasks + ENGINE_BLOCKS,
        "{blocks} live heap blocks for {TASKS} tasks: more than one per task \
         (its drift track) plus the engine's own {ENGINE_BLOCKS}"
    );
    assert!(
        bytes <= tasks * 1065,
        "{bytes} live bytes for {TASKS} tasks: {} per task, budget 1065 (1059 measured)",
        bytes / tasks
    );

    // Every bucket of the calendar ring has been through one lap by
    // slot 512, so the buffers are about as large as they get: from
    // here to the horizon some 12 000 releases make 5 allocations (a
    // few late buffer doublings), not one each.
    let allocations_before = ALLOCATIONS.load(Relaxed);
    engine.run_to(POPULATION_ALIGNMENT);
    let allocations = ALLOCATIONS.load(Relaxed) - allocations_before;
    let result = engine.finish();
    assert!(result.is_miss_free());
    assert!(result.counters.scheduled_quanta > 10_000);
    assert!(
        allocations <= 16,
        "{allocations} allocations over slots 512..8192: the release path allocates again"
    );

    // The engine is gone and its rows with it: what is live now that
    // was not before it was built is the result, which holds a
    // `TaskResult` and a drift block per task, not a row.
    let live = LIVE_BYTES.load(Relaxed) - bytes_before;
    let samples: usize = result.tasks.iter().map(|t| t.drift.samples().len()).sum();
    let owed = result.tasks.len() * size_of::<TaskResult>() + samples * size_of::<DriftSample>();
    assert!(
        live * 4 <= signed(owed) * 5,
        "{live} live bytes behind a result of {owed}: the engine's rows outlive it"
    );
}

/// A workload's time-ordered stream exists once: an engine built from
/// it costs its own tables and no copy of the events.
fn engines_of_one_workload_share_its_stream() {
    // Few tasks, many events: the stream dwarfs everything else.
    let mut workload = Workload::new();
    for task in 0..4 {
        workload.join(task, 0, 1, 8);
        for at in 1..5_000 {
            workload.reweight(task, at, 1 + i128::from(at % 2), 16);
        }
    }
    let stream = signed(workload.sorted_events().len() * size_of::<Event>());
    let config = SimConfig::oi(1, 5_000);
    let before = LIVE_BYTES.load(Relaxed);
    let engines = [
        Engine::new(config.clone(), &workload),
        Engine::new(config, &workload),
    ];
    let grown = LIVE_BYTES.load(Relaxed) - before;
    assert!(
        grown < stream,
        "two engines added {grown} live bytes to a stream of {stream}: one holds a copy"
    );
    drop(engines);
}
