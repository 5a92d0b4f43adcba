// Fixture: a cast, a panicking lookup and a float written inside
// `format!` arguments. A macro's token tree stays raw in the AST
// (`ExprKind::Macro { toks }`): no pass and not the call graph reads
// it, so `MacroSched::run` — a configured panic-reach entry point —
// still proves panic-free. Only the token lints see inside.
// Expected: no-lossy-casts at line 20; no-panic-in-library at line 21;
//           no-float-in-scheduling at line 22; nothing from any pass.
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
