//! Shard supervisor: population-scale workloads across independent
//! engine shards.
//!
//! One engine over `10⁵–10⁶` tasks is limited by single-core slot
//! throughput. But Pfair feasibility is *per processor pool*: condition
//! (W) constrains `Σ swt ≤ M` within one scheduled pool, and two pools
//! that never exchange tasks never interact. A [`ShardSet`] exploits
//! that: it partitions a global workload across `N` independent
//! [`Engine`] shards, each with its own processor budget and its own
//! condition-(W) admission, and drives them through the deterministic
//! worker pool ([`pfair_core::pool`]) segment by segment.
//!
//! ## Sharding invariant
//!
//! Each shard is a complete PD² engine: within a shard every guarantee
//! of the paper holds verbatim (Theorem 2 per shard, drift bounds per
//! task per era). Across shards the supervisor adds exactly one
//! mechanism — **migration by leave/rejoin**: moving a task injects a
//! `Leave` on its source shard and a fresh-id `Join` with its recorded
//! weight on the target, both through the online-injection path, so a
//! migration is indistinguishable from the paper's own LJ reweighting
//! event pair and inherits its drift accounting (the rejoin opens a new
//! era whose drift sample is taken against the target shard's ideals).
//! Because shards share no mutable state, driving them on 1, 2, or 8
//! worker threads is the same computation in a different order of
//! completion — [`par_map_threads`] returns results in input order, so
//! a [`ShardReport`] renders **byte-identically across pool widths**.
//! Across *shard counts* the per-task trajectories are preserved for
//! reweight-free feasible workloads (every shard schedules its members
//! miss-free, and ideal trackers depend only on the task's own event
//! times), which the shard-count determinism suite pins on the
//! aggregate: per-task scheduled quanta, per-task drift samples, ideal
//! totals, and total misses are invariant in `N`.
//!
//! ## Placement
//!
//! Joins are routed to the least-utilized shard (ties to the lowest
//! index) by an exact-rational supervisor ledger of *requested*
//! weights, preferring shards where the join keeps the per-shard
//! condition (W) satisfied. The ledger is a placement heuristic; each
//! shard's own policing
//! [`AdmissionPolicy`](crate::admission::AdmissionPolicy) remains the
//! authority that clamps or rejects. The ledger's arithmetic is
//! checked: a join or a reweight whose booking the ledger cannot
//! represent (a few coprime 31-bit denominators are past `i128`) is
//! refused before it reaches a shard and counted as
//! `shard.refused_placements`, a comparison it cannot make keeps the
//! earlier shard, and a migration it cannot book does not happen.
//! Optional rebalancing migrates the lightest task from the most- to
//! the least-loaded shard at segment boundaries whenever that strictly
//! narrows the utilization gap.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

use crate::engine::{Engine, SimConfig};
use crate::event::{Event, EventKind, Workload};
use crate::overhead::Counters;
use crate::trace::SimResult;
use pfair_core::drift::DriftTrack;
use pfair_core::pool::par_map_threads;
use pfair_core::rational::Rational;
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_json::{JsonWriter, ToJson};
use pfair_obs::{MetricsProbe, Registry};

// Shards cross thread boundaries inside `run`; keep the engine's
// sendability pinned where the supervisor depends on it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine<MetricsProbe>>();
};

/// Static shape of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// Number of independent engine shards.
    pub shards: usize,
    /// Processor budget `M` of every shard.
    pub processors_per_shard: u32,
    /// Slots to simulate.
    pub horizon: Slot,
    /// Segment length: global events are routed and rebalancing runs at
    /// multiples of this many slots.
    pub segment: Slot,
    /// Migrate tasks between shards at segment boundaries to narrow
    /// utilization imbalance.
    pub rebalance: bool,
    /// Worker-pool width for driving shards (output is byte-identical
    /// at any width; see the module docs).
    pub threads: usize,
}

impl ShardSpec {
    /// A spec with the scale-out defaults: PD²-OI, policing admission,
    /// 64-slot segments, no rebalancing, single worker.
    pub fn new(shards: usize, processors_per_shard: u32, horizon: Slot) -> ShardSpec {
        ShardSpec {
            shards: shards.max(1),
            processors_per_shard,
            horizon,
            segment: 64,
            rebalance: false,
            threads: 1,
        }
    }

    /// Builder-style: set the worker-pool width.
    pub fn with_threads(mut self, threads: usize) -> ShardSpec {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style: set the segment length.
    pub fn with_segment(mut self, segment: Slot) -> ShardSpec {
        self.segment = segment.max(1);
        self
    }

    /// Builder-style: enable boundary rebalancing.
    pub fn with_rebalance(mut self) -> ShardSpec {
        self.rebalance = true;
        self
    }

    /// Every shard runs PD²-OI with policing admission. Shards never
    /// batch busy spans: each arming attempt writes the engine's
    /// snapshot image — every task's columns and row, drift track
    /// included — over buffers kept across armings, an O(tasks) copy
    /// per attempt — the wrong trade at 10⁵ tasks per shard.
    fn engine_config(&self) -> SimConfig {
        SimConfig::oi(self.processors_per_shard, self.horizon).without_busy_span()
    }
}

/// Where one incarnation of a global task lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Placement {
    shard: usize,
    local: TaskId,
}

/// Supervisor over `N` independent engine shards (see module docs).
pub struct ShardSet {
    spec: ShardSpec,
    engines: Vec<Engine<MetricsProbe>>,
    /// Global event stream (time-sorted, insertion-stable; the
    /// workload's shared buffer), with cursor.
    events: Arc<Vec<Event>>,
    next_event: usize,
    /// Current placement of each global task (`None` = not in system).
    route: Vec<Option<Placement>>,
    /// Every placement any global task ever had, as `(global id,
    /// placement)` in join order: one append-only log, not a list per
    /// task. [`ShardSet::finish`] groups it by id to map
    /// per-incarnation results back to global tasks.
    incarnations: Vec<(u32, Placement)>,
    /// Last requested weight of each global task (migration rejoins
    /// re-request it; the target shard's admission re-polices).
    weights: Vec<Option<Weight>>,
    /// Next fresh local id per shard (fresh on every rejoin: local ids
    /// are incarnation names, never reused, so a migration can never
    /// collide with a rule-L-delayed departure of the same task).
    local_count: Vec<u32>,
    /// Per shard: global ids of its current members (BTree for
    /// deterministic iteration).
    members: Vec<BTreeSet<u32>>,
    /// Per shard: exact requested-weight utilization ledger.
    util: Vec<Rational>,
    now: Slot,
    migrations: u64,
    /// Joins and reweights the ledger could not book, hence never
    /// routed.
    refused_placements: u64,
}

impl ShardSet {
    /// Builds a supervisor over `spec.shards` empty engines and the
    /// global `workload`'s event stream. Nothing is routed yet; events
    /// flow into shards as [`ShardSet::run`] reaches their slots.
    pub fn new(spec: ShardSpec, workload: &Workload) -> ShardSet {
        let engines = (0..spec.shards)
            .map(|_| {
                Engine::with_probe(spec.engine_config(), &Workload::new(), MetricsProbe::new())
            })
            .collect();
        let shards = spec.shards;
        ShardSet {
            engines,
            events: workload.stream(),
            next_event: 0,
            route: Vec::new(),
            incarnations: Vec::new(),
            weights: Vec::new(),
            local_count: vec![0; shards],
            members: vec![BTreeSet::new(); shards],
            util: vec![Rational::ZERO; shards],
            now: 0,
            migrations: 0,
            refused_placements: 0,
            spec,
        }
    }

    /// The supervisor clock (a segment boundary).
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Total leave/rejoin migrations enacted so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The exact requested-weight utilization ledger, one entry per
    /// shard (placement heuristic; see module docs).
    pub fn utilization(&self) -> &[Rational] {
        &self.util
    }

    /// Runs every shard to the horizon, routing global events and (if
    /// enabled) rebalancing at each segment boundary.
    pub fn run(&mut self) {
        while self.now < self.spec.horizon {
            self.run_segments(1);
        }
    }

    /// Drives at most `count` more segments (stopping at the horizon) —
    /// the incremental form of [`ShardSet::run`] for callers that
    /// interleave their own supervision (forced migrations, ledger
    /// inspection) with progress.
    pub fn run_segments(&mut self, count: usize) {
        for _ in 0..count {
            if self.now >= self.spec.horizon {
                break;
            }
            let seg_end = self
                .now
                .saturating_add(self.spec.segment.max(1))
                .min(self.spec.horizon);
            self.route_events_before(seg_end);
            self.drive_to(seg_end);
            self.now = seg_end;
            if self.spec.rebalance && self.now < self.spec.horizon {
                self.rebalance_once();
            }
        }
    }

    /// Routes every pending global event due before `until` into its
    /// shard (in stream order, which injection order preserves), then
    /// grows each shard's tables once to cover the local ids the
    /// segment's joins took — injected joins fire inside `drive_to`, so
    /// the capacity is only needed by then.
    fn route_events_before(&mut self, until: Slot) {
        while let Some(&event) = self.events.get(self.next_event) {
            if event.at >= until {
                break;
            }
            self.next_event += 1;
            self.route_event(event);
        }
        for (engine, &locals) in self.engines.iter_mut().zip(&self.local_count) {
            engine.ensure_task_capacity(locals);
        }
    }

    fn ensure_global(&mut self, idx: usize) {
        if idx >= self.route.len() {
            self.route.resize(idx + 1, None);
            self.weights.resize(idx + 1, None);
        }
    }

    fn route_event(&mut self, event: Event) {
        let g = event.task.idx();
        self.ensure_global(g);
        match event.kind {
            EventKind::Join(w) => {
                if self.route[g].is_some() {
                    debug_assert!(false, "global task {} joined twice", event.task);
                    return;
                }
                let shard = self.place(w.value());
                let Some(util) = self.util[shard].checked_add(w.value()) else {
                    self.refused_placements += 1;
                    return;
                };
                self.admit(g, shard, w, event.at, util);
            }
            EventKind::Leave => {
                let Some(p) = self.route[g] else { return };
                self.engines[p.shard].inject(Event {
                    at: event.at,
                    task: p.local,
                    kind: EventKind::Leave,
                });
                self.depart(g, p.shard);
            }
            EventKind::Reweight(w) => {
                let Some(p) = self.route[g] else { return };
                let old = Weight::share(self.weights[g]);
                let util =
                    (self.util[p.shard].checked_sub(old)).and_then(|u| u.checked_add(w.value()));
                let Some(util) = util else {
                    self.refused_placements += 1;
                    return;
                };
                self.engines[p.shard].inject(Event {
                    at: event.at,
                    task: p.local,
                    kind: EventKind::Reweight(w),
                });
                self.util[p.shard] = util;
                self.weights[g] = Some(w);
            }
            EventKind::Delay(by) => {
                let Some(p) = self.route[g] else { return };
                self.engines[p.shard].inject(Event {
                    at: event.at,
                    task: p.local,
                    kind: EventKind::Delay(by),
                });
            }
        }
    }

    /// Least-utilized shard that keeps per-shard condition (W)
    /// satisfied with the new weight; ties to the lowest index. Falls
    /// back to the least-utilized shard overall (whose admission policy
    /// then clamps or rejects) when no shard fits. A comparison the
    /// ledger cannot make counts as "not less".
    fn place(&self, w: Rational) -> usize {
        // `u + w ≤ cap` as `u ≤ cap − w`: one subtraction per join, one
        // comparison per shard. Both operands are 64-bit.
        let room = Rational::from_int(i128::from(self.spec.processors_per_shard)) - w;
        let cmp_is = |a: &Rational, b: &Rational, ord: fn(Ordering) -> bool| {
            a.checked_cmp(b).is_some_and(ord)
        };
        let mut fitting: Option<usize> = None;
        let mut least = 0usize;
        for (s, u) in self.util.iter().enumerate() {
            if cmp_is(u, &self.util[least], Ordering::is_lt) {
                least = s;
            }
            if cmp_is(u, &room, Ordering::is_le)
                && fitting.is_none_or(|b| cmp_is(u, &self.util[b], Ordering::is_lt))
            {
                fitting = Some(s);
            }
        }
        fitting.unwrap_or(least)
    }

    /// Admits global task `g` into `shard` under a fresh local id, with
    /// `util` the shard's ledger once `w` is booked. The caller grows
    /// the shard's tables to `local_count[shard]` before the shard next
    /// runs.
    fn admit(&mut self, g: usize, shard: usize, w: Weight, at: Slot, util: Rational) {
        let local = TaskId(self.local_count[shard]);
        self.local_count[shard] += 1;
        self.engines[shard].inject(Event {
            at,
            task: local,
            kind: EventKind::Join(w),
        });
        let placement = Placement { shard, local };
        #[expect(clippy::as_conversions, reason = "global task ids fit u32")]
        let global = g as u32;
        self.route[g] = Some(placement);
        self.incarnations.push((global, placement));
        self.weights[g] = Some(w);
        self.members[shard].insert(global);
        self.util[shard] = util;
    }

    /// Drops global task `g` from the supervisor's books (the engine
    /// may still be draining it under the rule-L departure delay). A
    /// ledger that cannot represent the lower sum keeps the higher one.
    fn depart(&mut self, g: usize, shard: usize) {
        #[expect(clippy::as_conversions, reason = "global task ids fit u32")]
        self.members[shard].remove(&(g as u32));
        if let Some(util) = self.util[shard].checked_sub(Weight::share(self.weights[g])) {
            self.util[shard] = util;
        }
        self.route[g] = None;
    }

    /// Migrates one global task by leave/rejoin at the current segment
    /// boundary: a `Leave` on its source shard, a fresh-id `Join` with
    /// its recorded weight on `to` — both injected, both policed by the
    /// shards' own admission. Returns `false` (and does nothing) when
    /// the task is not in the system or already lives on `to`, `to` is
    /// out of range, or `to`'s ledger cannot book the task's weight.
    pub fn migrate_task(&mut self, global: u32, to: usize) -> bool {
        let g = TaskId(global).idx();
        if g >= self.route.len() || to >= self.spec.shards {
            return false;
        }
        let Some(p) = self.route[g] else { return false };
        if p.shard == to {
            return false;
        }
        let Some(w) = self.weights[g] else {
            return false;
        };
        let Some(util) = self.util[to].checked_add(w.value()) else {
            return false;
        };
        self.engines[p.shard].inject(Event {
            at: self.now,
            task: p.local,
            kind: EventKind::Leave,
        });
        self.depart(g, p.shard);
        self.admit(g, to, w, self.now, util);
        self.engines[to].ensure_task_capacity(self.local_count[to]);
        self.migrations += 1;
        true
    }

    /// One rebalancing step: migrate the lightest member of the most-
    /// loaded shard to the least-loaded one, provided that strictly
    /// narrows the utilization gap (`2·w ≤ gap`). Deterministic: ties
    /// resolve to the lowest shard index and the smallest (weight,
    /// global id) pair.
    fn rebalance_once(&mut self) {
        if self.spec.shards < 2 {
            return;
        }
        let (mut hi, mut lo) = (0usize, 0usize);
        for (s, u) in self.util.iter().enumerate() {
            if u.checked_cmp(&self.util[hi]).is_some_and(Ordering::is_gt) {
                hi = s;
            }
            if u.checked_cmp(&self.util[lo]).is_some_and(Ordering::is_lt) {
                lo = s;
            }
        }
        let Some(gap) = self.util[hi].checked_sub(self.util[lo]) else {
            return;
        };
        if !gap.is_positive() {
            return;
        }
        let mut best: Option<(Rational, u32)> = None;
        for &g in &self.members[hi] {
            let Some(w) = self.weights[TaskId(g).idx()] else {
                continue;
            };
            let w = w.value();
            let narrows = (w + w).checked_cmp(&gap).is_some_and(Ordering::is_le);
            if narrows && best.is_none_or(|(bw, bg)| (w, g) < (bw, bg)) {
                best = Some((w, g));
            }
        }
        if let Some((_, g)) = best {
            self.migrate_task(g, lo);
        }
    }

    /// Drives every shard to `until` on the worker pool. Shards are
    /// independent, the pool returns them in input order, and each
    /// engine is deterministic — so the state after this call does not
    /// depend on `spec.threads`.
    fn drive_to(&mut self, until: Slot) {
        let engines = std::mem::take(&mut self.engines);
        self.engines = par_map_threads(self.spec.threads.max(1), engines, |mut engine| {
            engine.run_to(until);
            engine
        });
    }

    /// Runs to the horizon (if not already there) and aggregates every
    /// shard's results into a [`ShardReport`].
    pub fn finish(mut self) -> ShardReport {
        self.run();
        let mut registry = Registry::new();
        let mut per_shard = Vec::with_capacity(self.spec.shards);
        let mut results: Vec<SimResult> = Vec::with_capacity(self.spec.shards);
        for (shard, engine) in self.engines.into_iter().enumerate() {
            let (result, probe) = engine.finish_with_probe();
            registry.merge(probe.registry());
            per_shard.push(ShardSummary {
                shard,
                local_tasks: result.tasks.len(),
                scheduled_quanta: result.counters.scheduled_quanta,
                misses: result.misses.len(),
                counters: result.counters,
            });
            results.push(result);
        }
        registry.inc("shard.migrations", self.migrations);
        if self.refused_placements > 0 {
            registry.inc("shard.refused_placements", self.refused_placements);
        }
        // Group the incarnation log by global id with a counting sort
        // (stable, so each task's placements stay in join order):
        // `starts[g]..starts[g + 1]` is task `g`'s run of `grouped`.
        let globals = self.route.len();
        let mut starts = vec![0usize; globals + 1];
        for &(g, _) in &self.incarnations {
            starts[TaskId(g).idx() + 1] += 1;
        }
        for g in 0..globals {
            starts[g + 1] += starts[g];
        }
        let mut next = starts.clone();
        let unplaced = Placement {
            shard: 0,
            local: TaskId(0),
        };
        let mut grouped = vec![unplaced; self.incarnations.len()];
        for &(g, placement) in &self.incarnations {
            let at = &mut next[TaskId(g).idx()];
            grouped[*at] = placement;
            *at += 1;
        }
        let tasks = starts
            .windows(2)
            .enumerate()
            .map(|(g, run)| {
                #[expect(clippy::as_conversions, reason = "global task ids fit u32")]
                let mut summary = GlobalTaskSummary {
                    id: g as u32,
                    scheduled_count: 0,
                    ps_total: Rational::ZERO,
                    isw_total: Rational::ZERO,
                    drift: DriftTrack::new(),
                };
                for p in &grouped[run[0]..run[1]] {
                    // Each incarnation is read once, so its drift samples
                    // move out of the shard's result instead of being
                    // copied.
                    let tr = &mut results[p.shard].tasks[p.local.idx()];
                    summary.scheduled_count += tr.scheduled_count;
                    summary.ps_total += tr.ps_total;
                    summary.isw_total += tr.isw_total;
                    summary.drift.append(&mut tr.drift);
                }
                summary
            })
            .collect();
        ShardReport {
            shards: self.spec.shards,
            processors_per_shard: self.spec.processors_per_shard,
            horizon: self.spec.horizon,
            migrations: self.migrations,
            per_shard,
            tasks,
            registry,
        }
    }
}

/// One shard's aggregate outcome.
#[derive(Clone, Debug)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Local task slots the shard ended with (incarnations, not
    /// currently-present tasks).
    pub local_tasks: usize,
    /// Quanta the shard scheduled.
    pub scheduled_quanta: u64,
    /// Deadline misses the shard recorded.
    pub misses: usize,
    /// The shard's full overhead counters.
    pub counters: Counters,
}

impl ToJson for ShardSummary {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("shard", &self.shard)
            .field("local_tasks", &self.local_tasks)
            .field("scheduled_quanta", &self.scheduled_quanta)
            .field("misses", &self.misses)
            .field("counters", &self.counters);
        w.end_object();
    }
}

/// One global task's outcome, summed over its incarnations (placements
/// across migrations), drift samples concatenated in incarnation order.
#[derive(Clone, Debug)]
pub struct GlobalTaskSummary {
    /// Global task id.
    pub id: u32,
    /// Quanta scheduled across all incarnations.
    pub scheduled_count: u64,
    /// `I_PS` allocation summed across incarnations.
    pub ps_total: Rational,
    /// `I_SW` allocation summed across incarnations.
    pub isw_total: Rational,
    /// Drift samples of every era, in incarnation order.
    pub drift: DriftTrack,
}

impl ToJson for GlobalTaskSummary {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("id", &self.id)
            .field("scheduled_count", &self.scheduled_count)
            .field("ps_total", &self.ps_total)
            .field("isw_total", &self.isw_total)
            .key("drift");
        self.drift.write_samples(w);
        w.end_object();
    }
}

/// Aggregated outcome of a sharded run.
///
/// Its [`ToJson`] rendering is the full one (byte-identical
/// across pool widths); [`ShardReport::invariant_json`] is the subset
/// the shard-count determinism suite pins — the figures that must not
/// depend on how a reweight-free feasible workload was partitioned.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Number of shards.
    pub shards: usize,
    /// Processor budget of every shard.
    pub processors_per_shard: u32,
    /// Simulated horizon.
    pub horizon: Slot,
    /// Leave/rejoin migrations enacted.
    pub migrations: u64,
    /// Per-shard aggregates, in shard order.
    pub per_shard: Vec<ShardSummary>,
    /// Per-global-task aggregates, in id order.
    pub tasks: Vec<GlobalTaskSummary>,
    /// Every shard's metrics merged into one exact-integer registry
    /// (plus the supervisor's own `shard.migrations` counter).
    pub registry: Registry,
}

impl ShardReport {
    /// Total quanta scheduled across all shards.
    pub fn scheduled_quanta(&self) -> u64 {
        self.per_shard.iter().map(|s| s.scheduled_quanta).sum()
    }

    /// Total deadline misses across all shards.
    pub fn misses(&self) -> usize {
        self.per_shard.iter().map(|s| s.misses).sum()
    }

    /// The partition-invariant subset (see the type docs), rendered
    /// canonically through the same writer as the full report.
    pub fn invariant_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object()
            .field("horizon", &self.horizon)
            .field("scheduled_quanta", &self.scheduled_quanta())
            .field("misses", &self.misses())
            .field("tasks", &self.tasks);
        w.end_object();
        w.into_string()
    }
}

impl ToJson for ShardReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field("shards", &self.shards)
            .field("processors_per_shard", &self.processors_per_shard)
            .field("horizon", &self.horizon)
            .field("migrations", &self.migrations)
            .field("scheduled_quanta", &self.scheduled_quanta())
            .field("misses", &self.misses())
            .field("per_shard", &self.per_shard)
            .field("tasks", &self.tasks)
            .field("metrics", &self.registry.snapshot_text());
        w.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::drift::DriftSample;
    use pfair_core::rational::rat;
    use pfair_json::Json;

    /// `n` tasks of weight 1/4 joining at slot 0.
    fn quarters(n: u32) -> Workload {
        let mut w = Workload::new();
        for t in 0..n {
            w.join(t, 0, 1, 4);
        }
        w
    }

    #[test]
    fn joins_spread_to_least_utilized_shard() {
        let spec = ShardSpec::new(4, 2, 8);
        let mut set = ShardSet::new(spec, &quarters(8));
        set.run();
        // 8 × 1/4 across 4 shards, least-utilized-first: two per shard.
        assert_eq!(set.utilization(), &[rat(1, 2); 4]);
    }

    #[test]
    fn single_shard_matches_plain_simulation() {
        // A 1-shard set routed through the injection path must agree
        // with the classic stream-driven engine on every invariant
        // figure: same tasks, same slots, same drift samples.
        let w = quarters(6);
        let spec = ShardSpec::new(1, 2, 24);
        let config = spec.engine_config();
        let report = ShardSet::new(spec, &w).finish();
        let reference = crate::engine::simulate(config, &w);
        assert_eq!(report.misses(), reference.misses.len());
        assert_eq!(
            report.scheduled_quanta(),
            reference.counters.scheduled_quanta
        );
        for (summary, tr) in report.tasks.iter().zip(reference.tasks.iter()) {
            assert_eq!(summary.scheduled_count, tr.scheduled_count);
            assert_eq!(summary.ps_total, tr.ps_total);
            assert_eq!(summary.isw_total, tr.isw_total);
            assert_eq!(summary.drift, tr.drift);
        }
    }

    #[test]
    fn migration_is_leave_rejoin_with_fresh_id() {
        let mut set = ShardSet::new(ShardSpec::new(2, 2, 32).with_segment(8), &quarters(4));
        set.run_segments(1);
        assert!(set.migrate_task(0, 1));
        assert_eq!(set.migrations(), 1);
        // The rejoin took a fresh local id on shard 1 (ids 0/1 were the
        // tasks placed there at slot 0).
        let p = set.route[0].expect("task 0 re-routed");
        assert_eq!(p.shard, 1);
        assert!(p.local.0 >= 2);
        let report = set.finish();
        assert_eq!(report.migrations, 1);
        assert_eq!(report.misses(), 0);
    }

    /// Both renderings parse back, and the invariant one is the full
    /// one's subset, field for field.
    fn parse_renderings(report: &ShardReport) -> Json {
        let full = Json::parse(&report.to_json_pretty()).expect("full rendering parses");
        let invariant = Json::parse(&report.invariant_json()).expect("invariant rendering parses");
        let Json::Object(fields) = &invariant else {
            panic!("the invariant rendering is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["horizon", "scheduled_quanta", "misses", "tasks"]);
        for (key, value) in fields {
            assert_eq!(full.get(key), Some(value), "`{key}`");
        }
        full
    }

    fn task_row(full: &Json, index: usize) -> &Json {
        match full.get("tasks") {
            Some(Json::Array(rows)) => &rows[index],
            other => panic!("`tasks` is not an array: {other:?}"),
        }
    }

    /// The report renders to text that reads back to its values: on a
    /// real run (reweights make negative drift, a gap in the global ids
    /// makes a row with no incarnation and an empty drift list, the
    /// metrics snapshot is a multi-line string), on a run with no tasks
    /// at all, and on a hand-built report with values no run produces
    /// (components beyond `u64`, a counter name that needs every
    /// escape).
    #[test]
    fn renderings_parse_back_to_the_report() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 4);
        w.join(2, 0, 2, 5); // global id 1 never joins
        w.join(3, 3, 1, 3);
        w.reweight(2, 6, 1, 10);
        w.reweight(0, 9, 2, 5);
        w.leave(3, 20);
        let report = ShardSet::new(ShardSpec::new(2, 1, 48).with_segment(8), &w).finish();
        assert!(report
            .tasks
            .iter()
            .flat_map(|t| &t.drift)
            .any(|s| s.drift.is_negative()));
        let full = parse_renderings(&report);
        let unjoined = task_row(&full, 1);
        assert_eq!(unjoined.field::<u32>("id").unwrap(), 1);
        assert_eq!(unjoined.field::<u64>("scheduled_count").unwrap(), 0);
        assert_eq!(unjoined.get("drift"), Some(&Json::Array(vec![])));
        assert_eq!(
            full.field::<String>("metrics").unwrap(),
            report.registry.snapshot_text()
        );

        let empty = ShardSet::new(ShardSpec::new(3, 1, 16), &Workload::new()).finish();
        let full = parse_renderings(&empty);
        assert_eq!(full.get("tasks"), Some(&Json::Array(vec![])));
        assert_eq!(full.field::<u64>("scheduled_quanta").unwrap(), 0);

        let mut odd = report;
        let name = "quote\" slash\\ tab\t bell\u{7} é";
        odd.registry.inc(name, 1);
        let mut wide = GlobalTaskSummary {
            id: u32::MAX,
            scheduled_count: u64::MAX,
            ps_total: rat(-(1 << 70), 3),
            isw_total: Rational::new(i128::MIN + 1, i128::MAX),
            drift: DriftTrack::new(),
        };
        wide.drift.record(-5, rat(-7, 1 << 40));
        wide.drift.record(9, wide.isw_total);
        odd.tasks.push(wide.clone());
        let full = parse_renderings(&odd);
        let metrics = full.field::<String>("metrics").unwrap();
        assert_eq!(metrics, odd.registry.snapshot_text());
        assert!(metrics.contains(name));
        let row = task_row(&full, odd.tasks.len() - 1);
        assert_eq!(row.field::<u64>("scheduled_count").unwrap(), u64::MAX);
        assert_eq!(row.field::<Rational>("ps_total").unwrap(), wide.ps_total);
        assert_eq!(row.field::<Rational>("isw_total").unwrap(), wide.isw_total);
        let drift: Vec<DriftSample> = row.field("drift").unwrap();
        assert!(drift.into_iter().eq(wide.drift.samples()));
    }

    #[test]
    fn rebalance_narrows_the_gap() {
        // All joins at slot 0 land balanced; skew the ledger by joining
        // late tasks while one shard is already loaded.
        let mut w = Workload::new();
        for t in 0..4 {
            w.join(t, 0, 1, 4); // 4 × 1/4 → spread 2 shards, 1/2 each
        }
        for t in 4..6 {
            w.join(t, 1, 1, 4); // still spread evenly
        }
        let mut set = ShardSet::new(
            ShardSpec::new(2, 2, 64).with_segment(16).with_rebalance(),
            &w,
        );
        set.run();
        let gap = set.util[0] - set.util[1];
        assert!(
            !gap.is_positive() || gap <= rat(1, 4),
            "rebalancing left a gap of {gap:?}"
        );
        assert_eq!(set.finish().misses(), 0);
    }
}
