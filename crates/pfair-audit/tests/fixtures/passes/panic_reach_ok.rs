//! Sanctioned: the same shape as `panic_reach.rs`, but every source
//! on the `SafeSched::run` call tree is either checked or carries a
//! typed allow with a reason: a `panic-reach` allow comment on the
//! index, the `#[expect]` clippy asks for on the `.expect()`.

pub struct SafeSched {
    slots: Vec<u64>,
}

impl SafeSched {
    pub fn run(&self, idx: usize) -> u64 {
        let tail = self.tail_slot();
        self.fetch_slot(idx).unwrap_or(tail).saturating_add(self.head_slot())
    }

    fn fetch_slot(&self, idx: usize) -> Option<u64> {
        self.slots.get(idx).copied()
    }

    fn head_slot(&self) -> u64 {
        self.slots[0] // audit: allow(panic-reach, the slot ring is never constructed empty)
    }

    fn tail_slot(&self) -> u64 {
        #[expect(clippy::disallowed_methods, reason = "the slot ring is never constructed empty")]
        let tail = self.slots.last().copied().expect("a non-empty ring");
        tail
    }
}
