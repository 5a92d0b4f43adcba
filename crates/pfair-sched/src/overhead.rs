//! Overhead accounting: the *efficiency* side of the
//! efficiency-versus-accuracy trade-off.
//!
//! The paper's concluding remarks weigh PD²-OI's precision against its
//! scheduling cost (`Ω(max(N, M log N))` to reweight `N` tasks at once,
//! versus `O(M log N)` for PD²-LJ) and against the migration/preemption
//! costs all Pfair schedulers incur. These counters make those costs
//! observable: every heap operation, halt, enactment, migration, and
//! preemption in a run is tallied, so the experiment harness can plot
//! accuracy (drift) against measured overhead for PD²-OI, PD²-LJ, and
//! the hybrids.

/// Event and data-structure operation tallies for one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Ready-queue insertions.
    pub heap_pushes: u64,
    /// Ready-queue removals (live and stale).
    pub heap_pops: u64,
    /// Removals that found a stale (halted/withdrawn) entry.
    pub stale_pops: u64,
    /// Reweighting events initiated.
    pub reweight_initiations: u64,
    /// Reweighting events enacted (≤ initiations; superseded requests
    /// are skipped).
    pub reweight_enactments: u64,
    /// Subtasks halted by rule O (or withdrawn by PD²-LJ's leave).
    pub halts: u64,
    /// Subtasks scheduled.
    pub scheduled_quanta: u64,
    /// Slots in which at least one processor idled ("holes").
    pub slots_with_holes: u64,
    /// Task migrations: a task's consecutive quanta ran on different
    /// processors.
    pub migrations: u64,
    /// Preemptions: a task ran in slot `t−1`, had unfinished work, and
    /// did not run in slot `t`.
    pub preemptions: u64,
    /// Reweighting requests rejected because they involved a heavy task
    /// (weight > 1/2) — the class whose reweighting rules the paper
    /// defers to the first author's dissertation.
    pub rejected_heavy_reweights: u64,
    /// Ready-queue compaction passes (stale-entry sweeps).
    pub compactions: u64,
    /// Stale entries removed by compaction before they could be popped.
    pub compacted_stale: u64,
}

impl pfair_json::ToJson for Counters {
    fn to_json(&self) -> pfair_json::Json {
        pfair_json::obj([
            ("heap_pushes", self.heap_pushes.to_json()),
            ("heap_pops", self.heap_pops.to_json()),
            ("stale_pops", self.stale_pops.to_json()),
            ("reweight_initiations", self.reweight_initiations.to_json()),
            ("reweight_enactments", self.reweight_enactments.to_json()),
            ("halts", self.halts.to_json()),
            ("scheduled_quanta", self.scheduled_quanta.to_json()),
            ("slots_with_holes", self.slots_with_holes.to_json()),
            ("migrations", self.migrations.to_json()),
            ("preemptions", self.preemptions.to_json()),
            (
                "rejected_heavy_reweights",
                self.rejected_heavy_reweights.to_json(),
            ),
            ("compactions", self.compactions.to_json()),
            ("compacted_stale", self.compacted_stale.to_json()),
        ])
    }
}

impl pfair_json::FromJson for Counters {
    fn from_json(value: &pfair_json::Json) -> Result<Self, pfair_json::JsonError> {
        Ok(Counters {
            heap_pushes: value.field("heap_pushes")?,
            heap_pops: value.field("heap_pops")?,
            stale_pops: value.field("stale_pops")?,
            reweight_initiations: value.field("reweight_initiations")?,
            reweight_enactments: value.field("reweight_enactments")?,
            halts: value.field("halts")?,
            scheduled_quanta: value.field("scheduled_quanta")?,
            slots_with_holes: value.field("slots_with_holes")?,
            migrations: value.field("migrations")?,
            preemptions: value.field("preemptions")?,
            rejected_heavy_reweights: value.field("rejected_heavy_reweights")?,
            // Absent in traces recorded before compaction existed.
            compactions: value
                .get("compactions")
                .map_or(Ok(0), pfair_json::FromJson::from_json)?,
            compacted_stale: value
                .get("compacted_stale")
                .map_or(Ok(0), pfair_json::FromJson::from_json)?,
        })
    }
}

impl Counters {
    /// Total priority-queue work, the dominant scheduling cost.
    pub fn heap_ops(&self) -> u64 {
        self.heap_pushes + self.heap_pops
    }

    /// Per-field `self − earlier`; `None` if any counter went backwards
    /// (it cannot — counters are monotone — but the busy-span batcher
    /// bails rather than trusts).
    pub fn checked_sub(&self, earlier: &Counters) -> Option<Counters> {
        self.zip_with(earlier, u64::checked_sub)
    }

    /// Per-field `self + k · delta`, overflow-checked: the counters
    /// after `k` more spans that each moved them by `delta`.
    pub fn checked_add_scaled(&self, delta: &Counters, k: u64) -> Option<Counters> {
        self.zip_with(delta, |base, d| base.checked_add(d.checked_mul(k)?))
    }

    /// `f` applied field by field; `None` as soon as it says so.
    fn zip_with(&self, o: &Counters, f: impl Fn(u64, u64) -> Option<u64>) -> Option<Counters> {
        Some(Counters {
            heap_pushes: f(self.heap_pushes, o.heap_pushes)?,
            heap_pops: f(self.heap_pops, o.heap_pops)?,
            stale_pops: f(self.stale_pops, o.stale_pops)?,
            reweight_initiations: f(self.reweight_initiations, o.reweight_initiations)?,
            reweight_enactments: f(self.reweight_enactments, o.reweight_enactments)?,
            halts: f(self.halts, o.halts)?,
            scheduled_quanta: f(self.scheduled_quanta, o.scheduled_quanta)?,
            slots_with_holes: f(self.slots_with_holes, o.slots_with_holes)?,
            migrations: f(self.migrations, o.migrations)?,
            preemptions: f(self.preemptions, o.preemptions)?,
            rejected_heavy_reweights: f(self.rejected_heavy_reweights, o.rejected_heavy_reweights)?,
            compactions: f(self.compactions, o.compactions)?,
            compacted_stale: f(self.compacted_stale, o.compacted_stale)?,
        })
    }
}

/// Which rung of the driver ladder covered how many slots, and what the
/// busy-span state machine did on the way — what the *driver* cost, next
/// to what scheduling did ([`Counters`]). Plain tallies read through
/// `Engine::driver_mix`; deliberately not part of [`Counters`] or of a
/// run's result (the per-slot oracle never leaves its rung, and those
/// must stay bit-identical across drivers) and not persisted (a restored
/// engine re-arms from scratch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverMix {
    /// Slots that ran the full per-slot pipeline.
    pub per_slot_slots: u64,
    /// Slots skipped by quiet-span jumps.
    pub quiet_span_slots: u64,
    /// Slots enacted in closed form by busy-span jumps.
    pub busy_span_slots: u64,
    /// Busy-span snapshots armed.
    pub arms: u64,
    /// Scans of the present tasks for a candidate span period.
    pub period_scans: u64,
    /// Verifications that jumped.
    pub jumps: u64,
    /// Verifications that found only the processor placement rotating.
    pub cpu_rotations: u64,
    /// Verifications that found the state not periodic (or refused an
    /// overflowing jump).
    pub mismatches: u64,
    /// Largest multiple `q` of the base period a rotating probe reached.
    pub longest_rotation: u64,
    /// Longest wait, in slots, a failed verification imposed.
    pub longest_backoff: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span arithmetic covers every field: a `k`-fold delta added
    /// and taken away again is the identity, and neither direction
    /// wraps. Fields are set through the JSON form, so a field added to
    /// the struct is a field checked here.
    #[test]
    fn span_arithmetic_is_per_field_and_checked() {
        use pfair_json::{FromJson, Json, ToJson};
        let numbered = |scale: u64| {
            let Json::Object(mut fields) = Counters::default().to_json() else {
                panic!("counters render as an object");
            };
            for (i, (_, value)) in (1u64..).zip(&mut fields) {
                *value = (scale * i).to_json();
            }
            Counters::from_json(&Json::Object(fields)).expect("a counters image")
        };
        let (base, delta) = (numbered(100), numbered(1));
        let later = base.checked_add_scaled(&delta, 7).expect("small numbers");
        let values = |c: &Counters| -> Vec<i128> {
            let Json::Object(fields) = c.to_json() else {
                panic!("counters render as an object");
            };
            fields.iter().filter_map(|(_, v)| v.as_int()).collect()
        };
        let (was, gain, is) = (values(&base), values(&delta), values(&later));
        assert_eq!(was.len(), 13);
        for ((was, gain), is) in was.iter().zip(&gain).zip(&is) {
            assert!(*gain > 0, "a field was never set");
            assert_eq!(*is, was + 7 * gain);
        }
        assert_eq!(
            later.checked_sub(&base),
            Counters::default().checked_add_scaled(&delta, 7)
        );
        assert_eq!(
            base.checked_sub(&later),
            None,
            "counters never run backwards"
        );
        assert_eq!(later.checked_add_scaled(&delta, u64::MAX), None);
    }

    #[test]
    fn heap_ops_sums_pushes_and_pops() {
        let c = Counters {
            heap_pushes: 3,
            heap_pops: 5,
            ..Counters::default()
        };
        assert_eq!(c.heap_ops(), 8);
    }

    #[test]
    fn default_is_zeroed() {
        let c = Counters::default();
        assert_eq!(c.heap_ops(), 0);
        assert_eq!(c.migrations, 0);
    }
}
