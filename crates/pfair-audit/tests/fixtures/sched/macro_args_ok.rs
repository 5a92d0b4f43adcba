// Sanctioned twin of `macro_args.rs`: the same report line with every
// value hoisted out of the macro into a checked `let`, where the passes
// can read it, and the share kept as an exact permille integer.
pub struct MacroSchedOk {
    slots: Vec<u64>,
}

impl MacroSchedOk {
    /// One report line: ring length, head slot, share of the period.
    pub fn run(&self, share_permille: u32) -> String {
        let len = u32::try_from(self.slots.len()).unwrap_or(u32::MAX);
        let Some(head) = self.slots.first() else {
            return String::new();
        };
        format!("{len} {head} {share_permille}/1000")
    }
}
