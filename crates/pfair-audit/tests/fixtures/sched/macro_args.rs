// Fixture: a cast, a panicking lookup and a float written inside
// `format!` arguments. The AST keeps only a macro's name
// (`ExprKind::Macro { name }`): no pass and not the call graph reads
// its arguments, so `MacroSched::run` — a configured panic-reach entry
// point — still proves panic-free. Clippy sees inside.
// Expected: nothing from any pass (the cast at line 20, the unwrap at
//           line 21 and the `f64` at line 22 are clippy's).
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
