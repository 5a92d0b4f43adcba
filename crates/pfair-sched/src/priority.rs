//! PD² subtask priority and tie-breaking.
//!
//! PD² prioritizes subtasks earliest-pseudo-deadline-first (EPDF) with
//! two tie-breaks. For light tasks (weight ≤ 1/2 — the class the
//! *reweighting* rules support) the b-bit alone suffices: among equal
//! deadlines, a subtask with `b`-bit 1 is favored over one with `b`-bit
//! 0 (its window overlaps its successor's, so postponing it squeezes the
//! successor). For heavy tasks the second tie-break applies: among
//! equal-deadline `b = 1` subtasks, the one with the later *group
//! deadline* (`pfair_core::window::group_deadline`) wins — it heads the
//! longer potential cascade of squeezed length-2 windows. Remaining ties
//! are broken "arbitrarily" (paper §2); the counterexample figures fix
//! specific arbitrary orders, so the resolution is pluggable via
//! [`TieBreak`].
//!
//! A released subtask's priority **never changes** (paper §3.2: `d(T_j)`
//! is fixed once `T_j` is released, even if the task reweights
//! afterwards) — which is what makes an ordinary binary heap with lazy
//! invalidation a correct ready queue and keeps reweighting at
//! `O(log N)` per task.
//!
//! ## Packed representation
//!
//! [`Priority`] is a single `u128` key rather than a 4-field struct:
//! the heap's hot path is `cmp`, and one integer compare beats a
//! short-circuiting lexicographic chain of four. The fields are packed
//! most-significant-first in comparison order, each transformed so that
//! "smaller key = higher priority" holds componentwise:
//!
//! ```text
//! bit 127          : 0 (spare — keeps the key comfortably inside u128)
//! bits 80..=126    : biased deadline (47 bits; earlier = smaller)
//! bit  79          : b-rank (0 when b = 1, 1 when b = 0)
//! bits 32..=78     : complemented biased group deadline (47 bits;
//!                    *later* group deadline = smaller field)
//! bits  0..=31     : dense tie rank from [`TieTable`]
//! ```
//!
//! Slots are biased by `2^46` into `0..2^47`, so every slot in
//! `[-2^46, 2^46)` round-trips exactly — vastly wider than any simulated
//! horizon (`pfair_core::time` slots are within `±2^46` for all uses in
//! this repo; out-of-band values saturate, preserving order at the
//! clamped extremes). [`PriorityParts`] retains the 4-field lexicographic
//! compare as the specification; a proptest pins the packed order to it
//! over the full representable domain.

use pfair_core::task::TaskId;
use pfair_core::time::Slot;

/// Resolution of ties that remain after the deadline and b-bit
/// comparisons.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum TieBreak {
    /// Favor the task with the smaller id (deterministic default).
    #[default]
    TaskIdAsc,
    /// Favor the task with the larger id.
    TaskIdDesc,
    /// Explicit rank per task id: smaller rank wins. Tasks absent from
    /// the table rank after all ranked tasks, by ascending id. This is
    /// how the paper's figures say "all ties are broken in favor of
    /// tasks from C".
    Ranked(Vec<(TaskId, u32)>),
}

impl TieBreak {
    /// Ties resolved in favor of `task`; every other task by ascending
    /// id.
    pub fn favoring(task: u32) -> TieBreak {
        TieBreak::Ranked(vec![(TaskId(task), 0)])
    }

    /// Ties resolved against `task`: the other ids in `0..total` all
    /// outrank it (the figures' "ties are broken in favor of C").
    pub fn disfavoring(task: u32, total: u32) -> TieBreak {
        TieBreak::Ranked(
            (0..total)
                .filter(|t| *t != task)
                .map(|t| (TaskId(t), 0))
                .chain(std::iter::once((TaskId(task), 1)))
                .collect(),
        )
    }

    /// The rank key this policy assigns to a task (smaller = favored).
    ///
    /// For `Ranked` this is an `O(table)` scan — fine for building a
    /// [`TieTable`] once per engine, too slow for the release hot path
    /// (which is why [`Priority::pack`] takes a precomputed dense rank
    /// instead of a `&TieBreak`).
    pub fn key(&self, task: TaskId) -> (u32, u32) {
        match self {
            TieBreak::TaskIdAsc => (0, task.0),
            TieBreak::TaskIdDesc => (0, u32::MAX - task.0),
            TieBreak::Ranked(table) => table
                .iter()
                .find(|(t, _)| *t == task)
                .map_or((u32::MAX, task.0), |(_, r)| (*r, task.0)),
        }
    }
}

impl pfair_json::ToJson for TieBreak {
    fn write_json(&self, w: &mut pfair_json::JsonWriter) {
        w.begin_object();
        match self {
            TieBreak::TaskIdAsc => w.field("kind", "task_id_asc"),
            TieBreak::TaskIdDesc => w.field("kind", "task_id_desc"),
            TieBreak::Ranked(table) => w.field("kind", "ranked").field("table", table),
        };
        w.end_object();
    }
}

impl pfair_json::FromJson for TieBreak {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        let kind: String = value.field("kind")?;
        match kind.as_str() {
            "task_id_asc" => Ok(TieBreak::TaskIdAsc),
            "task_id_desc" => Ok(TieBreak::TaskIdDesc),
            "ranked" => Ok(TieBreak::Ranked(value.field("table")?)),
            other => Err(pfair_json::JsonError::new(format!(
                "unknown tie-break kind `{other}`"
            ))),
        }
    }
}

/// Dense per-task tie ranks, built **once per engine** from a
/// [`TieBreak`] policy.
///
/// `TieBreak::key` is order-defining but expensive for `Ranked`
/// policies (a linear table scan per call) and too wide to pack (two
/// `u32`s). Since the task-id universe is fixed at engine construction,
/// we sort it by `key` once and assign each task its position: a single
/// `u32` that is order-isomorphic *and* injective (distinct tasks get
/// distinct ranks), so packing it preserves both the ordering and the
/// equality structure of the original keys.
#[derive(Clone, Debug, Default)]
pub struct TieTable {
    ranks: Vec<u32>,
}

impl TieTable {
    /// Precomputes the dense rank of every task in `0..tasks`.
    pub fn new(tb: &TieBreak, tasks: u32) -> TieTable {
        let mut ids: Vec<u32> = (0..tasks).collect();
        // `sort_by_cached_key` evaluates `key` once per task, keeping
        // Ranked-policy construction at O(n·|table| + n log n) total
        // instead of a scan per comparison.
        ids.sort_by_cached_key(|&id| tb.key(TaskId(id)));
        let mut ranks = vec![0u32; ids.len()];
        for (pos, &id) in ids.iter().enumerate() {
            let idx = TaskId(id).idx();
            ranks[idx] = u32::try_from(pos).unwrap_or(u32::MAX); // audit: allow(panic-reach, idx enumerates 0..tasks and ranks is sized to tasks)
        }
        TieTable { ranks }
    }

    /// Grows the table to rank task ids `0..tasks` (no-op when already
    /// that big).
    ///
    /// Under the default [`TieBreak::TaskIdAsc`] the sort key is
    /// `(0, id)`, so appended ids sort after every existing id and the
    /// existing dense ranks are unchanged — growth is a stable O(new)
    /// append of ranks `len..tasks`. Other policies cannot guarantee
    /// that (a `Ranked` entry or `TaskIdDesc` would slot a new id
    /// *before* existing ones), so they rebuild the table; callers that
    /// grow mid-run (the shard supervisor) fix the policy to
    /// `TaskIdAsc`, where released priorities stay consistent because
    /// no already-released subtask's rank moves.
    pub fn ensure_tasks(&mut self, tb: &TieBreak, tasks: u32) {
        let len = u32::try_from(self.ranks.len()).unwrap_or(u32::MAX);
        if tasks <= len {
            return;
        }
        if matches!(tb, TieBreak::TaskIdAsc) {
            self.ranks.extend(len..tasks);
        } else {
            *self = TieTable::new(tb, tasks);
        }
    }

    /// The dense rank of `task` (smaller = favored). Unknown tasks rank
    /// last — the engine never asks for one, but the total function
    /// keeps the type panic-free.
    pub fn rank(&self, task: TaskId) -> u32 {
        self.ranks.get(task.idx()).copied().unwrap_or(u32::MAX)
    }
}

/// Half-width of the exactly-representable slot band: slots in
/// `[-2^46, 2^46)` bias into the 47-bit fields losslessly.
pub(crate) const SLOT_BOUND: Slot = 1 << 46;
/// All-ones 47-bit field, used to complement the group deadline so a
/// *later* group deadline packs *smaller*.
const FIELD_MASK: u128 = (1 << 47) - 1;
const DEADLINE_SHIFT: u32 = 80;
const B_SHIFT: u32 = 79;
const GROUP_DEADLINE_SHIFT: u32 = 32;

/// Biases a slot into its unsigned 47-bit field. Out-of-band slots
/// saturate to the nearest representable value, which preserves their
/// order relative to every in-band slot.
// audit: prove(overflow-bounds)
#[inline]
fn biased(slot: Slot) -> u128 {
    let clamped = slot.clamp(-SLOT_BOUND, SLOT_BOUND - 1);
    // In range by construction: clamped + 2^46 ∈ [0, 2^47).
    u128::try_from(clamped + SLOT_BOUND).unwrap_or(0)
}

/// Recovers a slot from its biased 47-bit field.
// audit: prove(overflow-bounds)
#[inline]
fn unbiased(field: u128) -> Slot {
    i64::try_from(field & FIELD_MASK).unwrap_or(0) - SLOT_BOUND
}

/// A fully-resolved PD² priority, packed into one `u128` key. Smaller
/// compares as *higher* priority: the ready queue's runs ascend.
///
/// Comparison order: earlier deadline, then `b = 1` over `b = 0`, then
/// — the heavy-task tie-break — the *later* group deadline, then the
/// dense tie rank (see the module docs for the exact bit layout).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Priority(u128);

impl Priority {
    /// Packs the priority of a subtask with deadline `deadline`, b-bit
    /// `b`, and group deadline `group_deadline` (pass the subtask
    /// deadline itself for light tasks), with tie rank `tie_rank` from
    /// the engine's [`TieTable`].
    #[inline]
    pub fn pack(deadline: Slot, b: bool, group_deadline: Slot, tie_rank: u32) -> Priority {
        let b_rank: u128 = if b { 0 } else { 1 };
        Priority(
            (biased(deadline) << DEADLINE_SHIFT)
                | (b_rank << B_SHIFT)
                | ((FIELD_MASK - biased(group_deadline)) << GROUP_DEADLINE_SHIFT)
                | u128::from(tie_rank),
        )
    }

    /// The packed subtask deadline.
    #[inline]
    pub fn deadline(self) -> Slot {
        unbiased(self.0 >> DEADLINE_SHIFT)
    }

    /// The packed b-bit (`true` when the window overlaps its
    /// successor's).
    pub fn b(self) -> bool {
        (self.0 >> B_SHIFT) & 1 == 0
    }

    /// The packed group deadline.
    pub fn group_deadline(self) -> Slot {
        unbiased(FIELD_MASK - ((self.0 >> GROUP_DEADLINE_SHIFT) & FIELD_MASK))
    }

    /// The packed dense tie rank.
    pub fn tie_rank(self) -> u32 {
        u32::try_from(self.0 & u128::from(u32::MAX)).unwrap_or(u32::MAX)
    }
}

/// The 4-field lexicographic form of a PD² priority — the *specification*
/// the packed key is proven against (see the order-equivalence proptest),
/// kept out of the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PriorityParts {
    /// `d(T_i)` — earlier deadlines first.
    pub deadline: Slot,
    /// 0 when `b(T_i) = 1` (favored), 1 when `b(T_i) = 0`.
    pub b_rank: u8,
    /// Negated group deadline `−D(T_i)`: a later group deadline (a
    /// longer potential cascade) is favored, so it must compare
    /// *smaller*. Light tasks carry `−d(T_i)`, which ranks below every
    /// heavy `b = 1` contender at the same deadline.
    pub gd_rank: i64,
    /// Dense tie rank (see [`TieTable`]).
    pub tie_rank: u32,
}

impl PriorityParts {
    /// Builds the reference form from the same inputs as
    /// [`Priority::pack`].
    pub fn new(deadline: Slot, b: bool, group_deadline: Slot, tie_rank: u32) -> PriorityParts {
        PriorityParts {
            deadline,
            b_rank: if b { 0 } else { 1 },
            gd_rank: 0i64.saturating_sub(group_deadline),
            tie_rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pack(deadline: Slot, b: bool, gd: Slot, tie_rank: u32) -> Priority {
        Priority::pack(deadline, b, gd, tie_rank)
    }

    #[test]
    fn earlier_deadline_wins() {
        let a = pack(5, false, 5, 0);
        let b = pack(6, true, 6, 0);
        assert!(a < b);
    }

    #[test]
    fn b_bit_breaks_deadline_ties() {
        let with_b = pack(5, true, 5, 9);
        let without_b = pack(5, false, 5, 0);
        assert!(with_b < without_b);
    }

    #[test]
    fn later_group_deadline_wins_among_b1() {
        let long_cascade = pack(5, true, 9, 7);
        let short_cascade = pack(5, true, 6, 0);
        assert!(long_cascade < short_cascade);
    }

    #[test]
    fn negative_slots_pack_in_order() {
        let early = pack(-8, false, -8, 0);
        let late = pack(-3, false, -3, 0);
        assert!(early < late);
        assert_eq!(early.deadline(), -8);
        assert_eq!(early.group_deadline(), -8);
    }

    #[test]
    fn fields_round_trip() {
        let p = pack(123_456, true, 123_460, 42);
        assert_eq!(p.deadline(), 123_456);
        assert!(p.b());
        assert_eq!(p.group_deadline(), 123_460);
        assert_eq!(p.tie_rank(), 42);
        let q = pack(-77, false, -70, u32::MAX);
        assert_eq!(q.deadline(), -77);
        assert!(!q.b());
        assert_eq!(q.group_deadline(), -70);
        assert_eq!(q.tie_rank(), u32::MAX);
    }

    #[test]
    fn ranked_tie_table() {
        let tb = TieBreak::Ranked(vec![(TaskId(7), 0), (TaskId(3), 1)]);
        let table = TieTable::new(&tb, 10);
        let favored = pack(5, true, 5, table.rank(TaskId(7)));
        let second = pack(5, true, 5, table.rank(TaskId(3)));
        let unranked = pack(5, true, 5, table.rank(TaskId(1)));
        assert!(favored < second);
        assert!(second < unranked);
    }

    #[test]
    fn task_id_desc_table() {
        let table = TieTable::new(&TieBreak::TaskIdDesc, 10);
        let hi = pack(5, true, 5, table.rank(TaskId(9)));
        let lo = pack(5, true, 5, table.rank(TaskId(1)));
        assert!(hi < lo);
    }

    #[test]
    fn unranked_tasks_order_by_id() {
        let tb = TieBreak::Ranked(vec![(TaskId(5), 0)]);
        let table = TieTable::new(&tb, 8);
        let a = pack(5, true, 5, table.rank(TaskId(1)));
        let b = pack(5, true, 5, table.rank(TaskId(2)));
        assert!(a < b);
    }

    #[test]
    fn tie_table_is_order_isomorphic_to_tie_break_keys() {
        // The dense ranks must order exactly as the raw keys do, for
        // every policy — including equality (keys are injective per
        // policy, so ranks must be too).
        let policies = [
            TieBreak::TaskIdAsc,
            TieBreak::TaskIdDesc,
            TieBreak::Ranked(vec![(TaskId(4), 2), (TaskId(0), 7), (TaskId(6), 2)]),
        ];
        for tb in policies {
            let n = 9u32;
            let table = TieTable::new(&tb, n);
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        table.rank(TaskId(a)).cmp(&table.rank(TaskId(b))),
                        tb.key(TaskId(a)).cmp(&tb.key(TaskId(b))),
                        "policy {tb:?}, tasks {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_band_slots_saturate_in_order() {
        let far_past = pack(i64::MIN, false, 0, 0);
        let in_band = pack(0, false, 0, 0);
        let far_future = pack(i64::MAX, false, 0, 0);
        assert!(far_past < in_band);
        assert!(in_band < far_future);
    }

    /// One component of a priority: (deadline, b, group deadline, tie).
    fn arb_fields() -> impl Strategy<Value = (Slot, bool, Slot, u32)> {
        let slot = -SLOT_BOUND..SLOT_BOUND;
        let boolean = (0u8..2).prop_map(|x| x == 1);
        (slot.clone(), boolean, slot, 0u32..=u32::MAX)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The packed key orders exactly as the 4-field lexicographic
        /// struct over the full representable domain — including the
        /// `Equal` cases, so heap behavior is identical field-for-field.
        #[test]
        fn packed_order_matches_struct_order(x in arb_fields(), y in arb_fields()) {
            let packed_x = Priority::pack(x.0, x.1, x.2, x.3);
            let packed_y = Priority::pack(y.0, y.1, y.2, y.3);
            let parts_x = PriorityParts::new(x.0, x.1, x.2, x.3);
            let parts_y = PriorityParts::new(y.0, y.1, y.2, y.3);
            prop_assert_eq!(packed_x.cmp(&packed_y), parts_x.cmp(&parts_y));
        }

        /// Every field survives a pack/unpack round trip in-band.
        #[test]
        fn pack_round_trips(x in arb_fields()) {
            let p = Priority::pack(x.0, x.1, x.2, x.3);
            prop_assert_eq!(p.deadline(), x.0);
            prop_assert_eq!(p.b(), x.1);
            prop_assert_eq!(p.group_deadline(), x.2);
            prop_assert_eq!(p.tie_rank(), x.3);
        }
    }
}
