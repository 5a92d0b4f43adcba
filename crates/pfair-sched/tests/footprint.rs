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
//! in place of its rows. An id that has not joined costs no row at all.
//!
//! The record and row sizes themselves are `const`-asserted where the
//! types are defined (`SubRec` ≤ 64 bytes, `TaskState` 312 and its
//! `Ideal` 24 in the engine; in `pfair-core`, `IswSub` ≤ 48 and
//! `IswTracker` ≤ 256 bytes in `isw.rs`, `PsTracker` ≤ 80 in `ps.rs`, a
//! `Weight` and an `Option<Weight>` 16 bytes in `weight.rs`), so a new
//! field that breaks the budget does not compile. A task that has not
//! changed since it joined keeps no trackers at all; the first change
//! boxes them, so a task that reweights pays one block for them and one
//! that never does pays nothing. Once its era settles, the task trades
//! that box for a smaller one holding the sums of its earlier eras.

#![expect(
    unsafe_code,
    reason = "the counting allocator is the one `unsafe impl` this workspace has; it forwards to `System` and touches nothing but its counters"
)]

use pfair_core::ideal::{Bases, Trackers};
use pfair_obs::MetricsProbe;
use pfair_sched::engine::{Engine, SimConfig};
use pfair_sched::event::{Event, Workload};
use pfair_sched::trace::TaskResult;
use pfair_sched::workloads::{sawtooth, synthetic_population, POPULATION_ALIGNMENT};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

/// Statistics only: no other data is published through these.
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Live blocks the size of a settled row's [`Bases`] and of a tracked
/// row's [`Trackers`].
static LIVE_BASES: AtomicIsize = AtomicIsize::new(0);
static LIVE_PAIRS: AtomicIsize = AtomicIsize::new(0);

struct Counting;

fn signed(size: usize) -> isize {
    isize::try_from(size).unwrap_or(isize::MAX)
}

/// Counts `blocks` more live blocks of `size` bytes by size, where the
/// size is a box's the rows hold.
fn count_box(size: usize, blocks: isize) {
    if size == size_of::<Bases>() {
        LIVE_BASES.fetch_add(blocks, Relaxed);
    } else if size == size_of::<Trackers>() {
        LIVE_PAIRS.fetch_add(blocks, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates allocate
// nothing and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BLOCKS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(signed(layout.size()), Relaxed);
        count_box(layout.size(), 1);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
        LIVE_BYTES.fetch_sub(signed(layout.size()), Relaxed);
        count_box(layout.size(), -1);
        // SAFETY: `ptr` and `layout` are the caller's, from `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(signed(new_size) - signed(layout.size()), Relaxed);
        count_box(layout.size(), -1);
        count_box(new_size, 1);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TASKS: u32 = 2000;

/// One sawtooth cycle: every phase below the 512-slot period has its
/// drop back (half a period later) before this horizon, and no second
/// cycle starts in time to.
const SAWTOOTH_HORIZON: i64 = 768;

/// Long enough for a change at slot 256 of a task of weight 1/128 to
/// settle: three releases of the new era push out the old one's records.
const SETTLE_HORIZON: i64 = 1024;

/// The live-bytes budget of an engine at slot 512 of a
/// `population`-shaped run, in three parts. An engine with no task at
/// all holds the ready queue's runs, the calendar rings, the metrics
/// registry and the per-slot buffers (53 288 measured without a task,
/// 54 400 beside the tasks of this run).
const ENGINE_BYTES: isize = 55_000;

/// What an addressable id costs whether or not it ever joins: its
/// entries in the per-id tables — the slab's scheduling-weight (16 B)
/// and next-release (8 B) columns, the admission ledger (16 B), the
/// hybrid selector's state (16 B), the tie rank (4 B) and two bits
/// (60.3 measured).
const BYTES_PER_ID: isize = 61;

/// What a joined task adds: its 312-byte row (space for the rows of the
/// joins an engine holds is reserved at once, so the buffer has no
/// growth slack), its one-sample drift block of 24 bytes, and its share
/// of the queue and calendar buffers (416.4, 422.9 and 426.1 measured,
/// at 1 000, 2 000 and 4 000 tasks; 24 more each while a drift sample
/// took 48 bytes).
const BYTES_PER_TASK: isize = 428;

/// What a task of [`a_settled_task_keeps_its_bases_only`] holds once
/// it has settled, the engine's own tables shared out: its row, a drift
/// block of three samples, its 80-byte box of bases, its per-id table
/// entries, and its share of the event stream, the queue and the
/// calendar buckets (741.2 measured; 805.2 while the sums in the box
/// kept a `Rational` base each, 809.2 before a sparse calendar ring
/// recycled its buckets' buffers).
const BYTES_PER_SETTLED_TASK: isize = 743;

/// What a drift track stores per sample whose components fit `i64`
/// (every sample of these runs): one 24-byte entry.
const DRIFT_SAMPLE_BYTES: usize = 24;

/// The budget of an engine addressing `ids` ids of which `joined` joined.
fn budget(ids: u32, joined: u32) -> isize {
    let (ids, joined) = (
        isize::try_from(ids).unwrap(),
        isize::try_from(joined).unwrap(),
    );
    ENGINE_BYTES + ids * BYTES_PER_ID + joined * BYTES_PER_TASK
}

/// Allowance for heap blocks that belong to the engine, not to any
/// task: the ready queue, the two calendar rings and their occupied
/// buckets, the event stream, the slab columns, the scratch buffers,
/// the metrics registry. Their number does not grow with the task
/// count; 36 are live at slot 512 of this run.
const ENGINE_BLOCKS: isize = 40;

/// Bucket buffers the two calendar rings keep between them beyond the
/// engine's own, however many tasks file into them: at most one per
/// slot of their 512-slot windows, and a sparse ring (fewer than 64
/// entries) one per bucket occupied at once and up to 64 spares. A run
/// whose releases spread over the window (a reweight storm's era
/// openings do) keeps many of them: 433 in
/// [`a_reweighted_task_adds_at_most_one_box`].
const RING_BUCKETS: isize = 448;

/// One test only: the counters are process-wide, and a second test
/// running beside this one would be counted too.
#[test]
fn footprint() {
    a_task_is_one_row_and_one_heap_block();
    an_id_that_never_joins_costs_no_row();
    a_reweighted_task_adds_at_most_one_box();
    a_settled_task_keeps_its_bases_only();
    re_arming_a_busy_span_allocates_nothing();
    engines_of_one_workload_share_its_stream();
    a_reweight_event_reuses_the_boxes_of_the_last();
    a_small_engine_allocates_per_task_not_per_slot();
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
        bytes <= budget(TASKS, TASKS),
        "{bytes} live bytes for {TASKS} tasks: {} per task, budget {} (511 measured)",
        bytes / tasks,
        budget(TASKS, TASKS) / tasks
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
    let samples: usize = result.tasks.iter().map(|t| t.drift.len()).sum();
    let owed = result.tasks.len() * size_of::<TaskResult>() + samples * DRIFT_SAMPLE_BYTES;
    assert!(
        live * 4 <= signed(owed) * 5,
        "{live} live bytes behind a result of {owed}: the engine's rows outlive it"
    );
}

/// The same run with twice the ids, of which only the first half ever
/// joins: the engine addresses all of them, yet what it holds fits the
/// budget of the tasks that joined — an unjoined id costs its per-id
/// table entries and no row (eager rows would add 312 KB here).
fn an_id_that_never_joins_costs_no_row() {
    let joined = TASKS / 2;
    let workload = synthetic_population(joined, 1);
    let bytes_before = LIVE_BYTES.load(Relaxed);
    let config = SimConfig::oi(4, POPULATION_ALIGNMENT).without_busy_span();
    let mut engine = Engine::with_probe(config, &workload, MetricsProbe::new());
    engine.ensure_task_capacity(TASKS);
    engine.run_to(512);
    assert_eq!(engine.task_count(), TASKS as usize);
    assert_eq!(engine.present_count(), joined as usize);
    let bytes = LIVE_BYTES.load(Relaxed) - bytes_before;
    assert!(
        bytes <= budget(TASKS, joined),
        "{bytes} live bytes for {TASKS} ids of which {joined} joined: budget {} \
         (592 592 measured)",
        budget(TASKS, joined)
    );
    let result = engine.finish();
    assert_eq!(result.tasks.len(), TASKS as usize);
}

/// Every task reweights once: up to twice its weight at a staggered
/// slot and back half a period later (one cycle of [`sawtooth`]). The
/// first change builds the task's trackers in one box, and everything a
/// reweight accrues after that — the sums across eras among it — lives
/// in that box, so after the storm a task holds no more heap blocks than
/// its drift block and the box. The era openings spread the releases
/// over the calendar rings' windows, whose bucket buffers the engine
/// keeps ([`RING_BUCKETS`]).
fn a_reweighted_task_adds_at_most_one_box() {
    let workload = sawtooth(TASKS, (1, 1024), (1, 512), 512, SAWTOOTH_HORIZON);
    let blocks_before = LIVE_BLOCKS.load(Relaxed);
    let config = SimConfig::oi(4, SAWTOOTH_HORIZON).without_busy_span();
    let mut engine = Engine::with_probe(config, &workload, MetricsProbe::new());
    engine.run_to(SAWTOOTH_HORIZON);
    let tasks = isize::try_from(TASKS).unwrap();
    let blocks = LIVE_BLOCKS.load(Relaxed) - blocks_before;
    assert!(
        blocks <= tasks * (1 + 1) + ENGINE_BLOCKS + RING_BUCKETS,
        "{blocks} live heap blocks for {TASKS} reweighted tasks: more than a drift \
         block and one box, bases or trackers, per task plus the engine's own {ENGINE_BLOCKS} \
         and the rings' {RING_BUCKETS} buckets (4 469 measured; a static twin 2 030)"
    );
    let result = engine.finish();
    assert!(result.counters.reweight_enactments >= u64::from(TASKS));
}

/// Every task reweights once, from 1/256 up to 1/128 at a staggered
/// slot, and the run goes on until every row has settled: each then
/// holds its era's bases in a box of their own, not its trackers.
fn a_settled_task_keeps_its_bases_only() {
    let mut workload = Workload::new();
    for task in 0..TASKS {
        let at = 1 + i64::from(task % 256);
        workload.join(task, 0, 1, 256).reweight(task, at, 1, 128);
    }
    let (bytes_before, bases_before, pairs_before) = (
        LIVE_BYTES.load(Relaxed),
        LIVE_BASES.load(Relaxed),
        LIVE_PAIRS.load(Relaxed),
    );
    let config = SimConfig::oi(16, SETTLE_HORIZON).without_busy_span();
    let mut engine = Engine::with_probe(config, &workload, MetricsProbe::new());
    engine.run_to(SETTLE_HORIZON);
    let tasks = isize::try_from(TASKS).unwrap();
    let bytes = LIVE_BYTES.load(Relaxed) - bytes_before;
    let bases = LIVE_BASES.load(Relaxed) - bases_before;
    let pairs = LIVE_PAIRS.load(Relaxed) - pairs_before;
    assert_eq!(
        (bases, pairs),
        (tasks, 0),
        "live boxes of bases and of trackers: every row settled keeps its bases only"
    );
    assert!(
        bytes <= tasks * BYTES_PER_SETTLED_TASK,
        "{bytes} live bytes for {TASKS} settled tasks: {} per task, budget \
         {BYTES_PER_SETTLED_TASK} (741.2 measured; 1 001.2 while a settled row kept \
         its whole trackers pair)",
        bytes / tasks
    );
    let result = engine.finish();
    assert_eq!(result.counters.reweight_enactments, u64::from(TASKS));
}

/// The busy-span driver snapshots every row when it arms, trackers and
/// drift tracks included, and a jump loads the shifted image back into
/// the rows. Eight tasks reweight from 1/4 to 1/2 at slot 1 — which
/// boxes their trackers — and then repeat with period 2 on four
/// processors, as a twin that joins at 1/2 (no trackers) does. Driven
/// in 64-slot segments, both arm and jump once a segment. Writing each
/// snapshot over the last one's rows, and each loaded image over the
/// engine's, reuses their boxes and buffers, so the armings and jumps
/// cost the reweighted system less than one allocation an arming beyond
/// what they cost its twin (no allocation over 62 armings measured, nor
/// the twin's, the calendar buckets' buffers recycled; 41 and 40 while
/// each bucket kept its own; a fresh box per row at each arming and
/// each load would be sixteen an arming).
fn re_arming_a_busy_span_allocates_nothing() {
    let (mut reweighted, mut twin) = (Workload::new(), Workload::new());
    for task in 0..8 {
        reweighted.join(task, 0, 1, 4).reweight(task, 1, 1, 2);
        twin.join(task, 0, 1, 2);
    }
    let (allocations, arms, jumps) = allocations_over_armings(&reweighted);
    let (twin_allocations, twin_arms, twin_jumps) = allocations_over_armings(&twin);
    assert!(
        arms >= 60 && twin_arms >= 60,
        "{arms} / {twin_arms} armings"
    );
    assert!(
        jumps >= 60 && twin_jumps >= 60,
        "{jumps} / {twin_jumps} jumps"
    );
    assert!(
        allocations < twin_allocations + arms,
        "{allocations} allocations over {arms} armings, {twin_allocations} for a twin \
         with no trackers: re-arming or loading boxes the trackers afresh"
    );
}

/// Allocations, armings and jumps of a four-processor engine over
/// `workload` from slot 128 to 4096, driven in 64-slot segments.
fn allocations_over_armings(workload: &Workload) -> (u64, u64, u64) {
    let mut engine = Engine::new(SimConfig::oi(4, 4096), workload);
    engine.run_to(128);
    let (arms_before, jumps_before) = (engine.driver_mix().arms, engine.busy_span_jumps());
    let allocations_before = ALLOCATIONS.load(Relaxed);
    for end in (192..=4096).step_by(64) {
        engine.run_to(end);
    }
    let allocations = ALLOCATIONS.load(Relaxed) - allocations_before;
    let arms = engine.driver_mix().arms - arms_before;
    let jumps = engine.busy_span_jumps() - jumps_before;
    assert!(engine.finish().is_miss_free());
    let allocations = u64::try_from(allocations).unwrap();
    (allocations, arms, jumps)
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

/// Tasks of [`a_reweight_event_reuses_the_boxes_of_the_last`], each
/// toggling between two weights every [`TOGGLE_PERIOD`] slots.
const TOGGLING_TASKS: u32 = 256;
const TOGGLE_PERIOD: i64 = 512;
const TOGGLE_HORIZON: i64 = 8192;

/// Each task toggles `1/64 ↔ 1/32` every 512 slots, phases spread over
/// the period, so every change settles (three releases of its era, at
/// most 192 slots) before the next and a few dozen rows are tracked at
/// any one time. A change builds the row's trackers and its settling
/// gives them back: a change fills a trackers' box a settling gave
/// back, and gives back its box of bases for a settling to fill. So
/// once the first changes have boxed what the churn needs, a reweight
/// event allocates little beyond the calendar buckets' buffers the
/// spread releases grow and its drift track's growth: twice a task,
/// to four entries and then to thirty-two.
fn a_reweight_event_reuses_the_boxes_of_the_last() {
    let mut workload = Workload::new();
    for task in 0..TOGGLING_TASKS {
        workload.join(task, 0, 1, 64);
        let mut at = 1 + i64::from(task) * TOGGLE_PERIOD / i64::from(TOGGLING_TASKS);
        let mut up = true;
        while at < TOGGLE_HORIZON {
            workload.reweight(task, at, 1, if up { 32 } else { 64 });
            (at, up) = (at + TOGGLE_PERIOD, !up);
        }
    }
    let config = SimConfig::oi(8, TOGGLE_HORIZON).without_busy_span();
    let mut engine = Engine::with_probe(config, &workload, MetricsProbe::new());
    let allocations_before = ALLOCATIONS.load(Relaxed);
    engine.run_to(TOGGLE_HORIZON);
    let allocations = u64::try_from(ALLOCATIONS.load(Relaxed) - allocations_before).unwrap();
    let events = engine.counters().reweight_initiations;
    let result = engine.finish();
    assert!(result.is_miss_free());
    assert!(
        events >= 15 * u64::from(TOGGLING_TASKS),
        "{events} initiations"
    );
    assert!(
        allocations * 100 <= events * 70,
        "{allocations} allocations over {events} reweight events, more than 0.70 an event: \
         a change or a settling boxes afresh again, or a drift track regrows at every \
         doubling (2 820 measured, 0.69 an event; 3 331 while it did; 11 612 while each \
         change boxed its trackers and each settling its bases)"
    );
}

/// A Whisper-sized engine — twelve static tasks of weights `q/2520` on
/// four processors — over its 1 000 slots: its releases spread over
/// every bucket of the calendar rings' windows, and an emptied bucket
/// parks its buffer for the next to open, so building and running the
/// engine allocates per task and per bucket open at once, not per
/// bucket it passes over.
fn a_small_engine_allocates_per_task_not_per_slot() {
    let mut workload = Workload::new();
    for task in 0..12 {
        workload.join(task, 0, 25 + 70 * i128::from(task), 2520);
    }
    let config = SimConfig::oi(4, 1_000).without_busy_span();
    let allocations_before = ALLOCATIONS.load(Relaxed);
    let mut engine = Engine::new(config, &workload);
    engine.run_to(1_000);
    let allocations = ALLOCATIONS.load(Relaxed) - allocations_before;
    assert!(engine.finish().is_miss_free());
    assert!(
        allocations <= 12 * 8,
        "{allocations} allocations to build and run a 12-task engine over 1 000 slots: \
         more than 8 a task (77 measured; 590 while each calendar bucket grew a buffer)"
    );
}
