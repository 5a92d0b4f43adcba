// Fixture: a cast, a panicking lookup and a float written inside
// `format!` arguments. A macro's token tree stays raw in the AST
// (`ExprKind::Macro { toks }`): no pass and not the call graph reads
// it, so `MacroSched::run` — a configured panic-reach entry point —
// still proves panic-free. The token lints and clippy see inside.
// Expected: no-float-in-scheduling at line 22; nothing from any pass
//           (the cast at line 20 and the unwrap at line 21 are clippy's).
pub struct MacroSched {
    slots: Vec<u64>,
}

impl MacroSched {
    /// One report line: ring length, head slot, share of the period.
    pub fn run(&self, share_permille: u32) -> String {
        if self.slots.is_empty() {
            return String::new();
        }
        format!(
            "{} {} {}",
            self.slots.len() as u32,
            self.slots.first().unwrap(),
            f64::from(share_permille)
        )
    }
}
