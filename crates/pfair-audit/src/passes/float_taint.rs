//! Pass 4: float taint.
//!
//! The exactness theorems (lag/drift accounting, Theorems 3–5 of the
//! paper) hold only if `Rational`, `Priority`, and slot-count values
//! are computed in exact integer arithmetic end to end. The legacy
//! token lint bans floats from the scheduling crates outright; this
//! pass closes the laundering gap in the *float-exempt* paths
//! (simulation geometry, metrics export): a float result may exist
//! there, but it must never flow — even through an integer cast —
//! into a `Rational`/`Weight`/`Priority` constructor or a
//! slot-count-typed binding.
//!
//! Taint is tracked intra-procedurally per function, seeded by float
//! literals, `f32`/`f64`-typed parameters and casts, and calls to
//! workspace functions whose declared return type is a float. A cast
//! to an integer type *keeps* the taint (that is the laundering this
//! pass exists to catch). The analysis is flow-insensitive within
//! branches and does not track taint through fields, slices, or
//! out-of-workspace calls — those boundaries are documented in
//! DESIGN.md and covered by the blanket float ban where it applies.

use std::collections::BTreeSet;

use crate::ast::*;
use crate::config::Config;
use crate::lints::FLOAT_TAINT;
use crate::passes::Workspace;
use crate::Finding;

/// Types whose values must stay exact.
const SINK_TYPES: &[&str] = &["Rational", "Weight", "Priority", "Slot", "SlotCount"];

/// Method names that produce floats from exact values.
const FLOAT_METHODS: &[&str] = &["to_f64", "to_f32", "as_f64", "as_f32"];

/// Runs the pass over every file the `float-taint` lint scopes.
pub fn run(ws: &Workspace, cfg: &Config) -> Vec<Finding> {
    // Workspace functions with a declared float return type, by bare
    // and qualified name: calls to them are taint sources everywhere.
    let mut float_fns: BTreeSet<String> = BTreeSet::new();
    for (_, ast) in ws.ast_refs() {
        collect_float_fns(&ast.items, None, &mut float_fns);
    }

    let mut out = Vec::new();
    for file in &ws.files {
        if !cfg.lint_applies(FLOAT_TAINT, &file.path) {
            continue;
        }
        for item in &file.ast.items {
            scan_item(item, false, &float_fns, &file.path, &mut out);
        }
    }
    out.sort();
    out.dedup();
    out
}

fn collect_float_fns(items: &[Item], owner: Option<&str>, out: &mut BTreeSet<String>) {
    for item in items {
        match &item.kind {
            ItemKind::Fn(f) if f.ret.as_ref().is_some_and(TypeRef::is_float) => {
                out.insert(f.name.clone());
                if let Some(o) = owner {
                    out.insert(format!("{o}::{}", f.name));
                }
            }
            ItemKind::Impl {
                type_name, items, ..
            } => collect_float_fns(items, Some(type_name), out),
            ItemKind::Trait { name, items } => collect_float_fns(items, Some(name), out),
            ItemKind::Mod {
                items: Some(items), ..
            } => collect_float_fns(items, owner, out),
            _ => {}
        }
    }
}

fn scan_item(
    item: &Item,
    in_test: bool,
    float_fns: &BTreeSet<String>,
    path: &str,
    out: &mut Vec<Finding>,
) {
    let in_test = in_test || item.in_test;
    if in_test {
        return;
    }
    match &item.kind {
        ItemKind::Fn(f) => scan_fn(f, float_fns, path, out),
        ItemKind::Impl { items, .. } | ItemKind::Trait { items, .. } => {
            for it in items {
                scan_item(it, in_test, float_fns, path, out);
            }
        }
        ItemKind::Mod {
            items: Some(items), ..
        } => {
            for it in items {
                scan_item(it, in_test, float_fns, path, out);
            }
        }
        _ => {}
    }
}

struct FnCtx<'a> {
    /// Locals currently carrying float taint.
    tainted: BTreeSet<String>,
    float_fns: &'a BTreeSet<String>,
    /// Head of the function's declared return type, for return sinks.
    ret_head: Option<&'a str>,
    path: &'a str,
    out: &'a mut Vec<Finding>,
}

fn scan_fn(f: &FnItem, float_fns: &BTreeSet<String>, path: &str, out: &mut Vec<Finding>) {
    let Some(body) = &f.body else {
        return;
    };
    let mut ctx = FnCtx {
        tainted: BTreeSet::new(),
        float_fns,
        ret_head: f.ret.as_ref().map(|t| t.head.as_str()),
        path,
        out,
    };
    for p in &f.params {
        if let (Some(name), true) = (&p.name, p.ty.is_float()) {
            ctx.tainted.insert(name.clone());
        }
    }
    scan_block(body, &mut ctx);
    // The function's tail expression is a `return` sink when the
    // declared return type is exact.
    if let Some(head) = ctx.ret_head {
        if SINK_TYPES.contains(&head) {
            if let Some(Stmt::Expr(tail)) = body.stmts.last() {
                if is_tainted(tail, &ctx.tainted, ctx.float_fns) {
                    ctx.out.push(sink_finding(
                        path,
                        tail.line,
                        &format!("returned as `{head}`"),
                    ));
                }
            }
        }
    }
}

fn scan_block(b: &Block, ctx: &mut FnCtx<'_>) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let {
                name,
                ty,
                init,
                else_block,
                line,
            } => {
                if let Some(e) = init {
                    scan_expr_tree(e, ctx);
                    let taint = is_tainted(e, &ctx.tainted, ctx.float_fns);
                    if let Some(head) = ty.as_ref().map(|t| t.head.as_str()) {
                        if taint && SINK_TYPES.contains(&head) {
                            ctx.out.push(sink_finding(
                                ctx.path,
                                *line,
                                &format!("bound to a `{head}` local"),
                            ));
                        }
                    }
                    if let Some(n) = name {
                        let float_ty = ty.as_ref().is_some_and(TypeRef::is_float);
                        if taint || float_ty {
                            ctx.tainted.insert(n.clone());
                        } else {
                            ctx.tainted.remove(n); // shadowing kills taint
                        }
                    }
                }
                if let Some(eb) = else_block {
                    scan_block(eb, ctx);
                }
            }
            Stmt::Expr(e) => scan_expr_tree(e, ctx),
            Stmt::Item(_) => {} // nested items are scanned as items
        }
    }
}

/// Walks an expression tree looking for sinks, updating assignment
/// taint along the way.
fn scan_expr_tree(e: &Expr, ctx: &mut FnCtx<'_>) {
    match &e.kind {
        ExprKind::Assign { lhs, rhs, .. } => {
            scan_expr_tree(rhs, ctx);
            if let ExprKind::Path(segs) = &lhs.kind {
                if segs.len() == 1 {
                    if is_tainted(rhs, &ctx.tainted, ctx.float_fns) {
                        ctx.tainted.insert(segs[0].clone());
                    } else {
                        ctx.tainted.remove(&segs[0]);
                    }
                }
            }
        }
        ExprKind::Call { callee, args } => {
            // Calls into exact-type constructors are sinks.
            if let ExprKind::Path(segs) = &callee.kind {
                if let Some(ty) = segs.iter().rev().nth(1) {
                    if SINK_TYPES.contains(&ty.as_str()) {
                        for a in args {
                            if is_tainted(a, &ctx.tainted, ctx.float_fns) {
                                ctx.out.push(sink_finding(
                                    ctx.path,
                                    a.line,
                                    &format!("passed to `{ty}::{}`", segs.last().unwrap()),
                                ));
                            }
                        }
                    }
                }
            }
            scan_expr_tree(callee, ctx);
            for a in args {
                scan_expr_tree(a, ctx);
            }
        }
        ExprKind::Return(Some(inner)) => {
            if let Some(head) = ctx.ret_head {
                if SINK_TYPES.contains(&head) && is_tainted(inner, &ctx.tainted, ctx.float_fns) {
                    ctx.out.push(sink_finding(
                        ctx.path,
                        inner.line,
                        &format!("returned as `{head}`"),
                    ));
                }
            }
            scan_expr_tree(inner, ctx);
        }
        ExprKind::StructLit { path, fields, rest } => {
            if let Some(ty) = path.last() {
                if SINK_TYPES.contains(&ty.as_str()) {
                    for (fname, v) in fields {
                        if let Some(v) = v {
                            if is_tainted(v, &ctx.tainted, ctx.float_fns) {
                                ctx.out.push(sink_finding(
                                    ctx.path,
                                    v.line,
                                    &format!("assigned to field `{ty}.{fname}`"),
                                ));
                            }
                        }
                    }
                }
            }
            for (_, v) in fields {
                if let Some(v) = v {
                    scan_expr_tree(v, ctx);
                }
            }
            if let Some(r) = rest {
                scan_expr_tree(r, ctx);
            }
        }
        // Structured recursion for everything else.
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } | ExprKind::Try(expr) => {
            scan_expr_tree(expr, ctx);
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            scan_expr_tree(lhs, ctx);
            scan_expr_tree(rhs, ctx);
        }
        ExprKind::MethodCall { recv, args, .. } => {
            scan_expr_tree(recv, ctx);
            for a in args {
                scan_expr_tree(a, ctx);
            }
        }
        ExprKind::Field { recv, .. } => scan_expr_tree(recv, ctx),
        ExprKind::Index { recv, index } => {
            scan_expr_tree(recv, ctx);
            scan_expr_tree(index, ctx);
        }
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for it in items {
                scan_expr_tree(it, ctx);
            }
        }
        ExprKind::Repeat { elem, len } => {
            scan_expr_tree(elem, ctx);
            scan_expr_tree(len, ctx);
        }
        ExprKind::Block(b) | ExprKind::Loop(b) => scan_block(b, ctx),
        ExprKind::If { cond, then, els } => {
            scan_expr_tree(cond, ctx);
            scan_block(then, ctx);
            if let Some(e) = els {
                scan_expr_tree(e, ctx);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            scan_expr_tree(scrutinee, ctx);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    scan_expr_tree(g, ctx);
                }
                scan_expr_tree(&arm.body, ctx);
            }
        }
        ExprKind::While { cond, body } => {
            scan_expr_tree(cond, ctx);
            scan_block(body, ctx);
        }
        ExprKind::For { iter, body, .. } => {
            scan_expr_tree(iter, ctx);
            scan_block(body, ctx);
        }
        ExprKind::Closure { body, .. } => scan_expr_tree(body, ctx),
        ExprKind::Break(Some(inner)) => scan_expr_tree(inner, ctx),
        ExprKind::Range { lo, hi } => {
            if let Some(l) = lo {
                scan_expr_tree(l, ctx);
            }
            if let Some(h) = hi {
                scan_expr_tree(h, ctx);
            }
        }
        _ => {}
    }
}

/// True when the expression's value may derive from a float.
fn is_tainted(e: &Expr, tainted: &BTreeSet<String>, float_fns: &BTreeSet<String>) -> bool {
    match &e.kind {
        ExprKind::Float => true,
        ExprKind::Path(segs) => match segs.as_slice() {
            [one] => tainted.contains(one),
            _ => false,
        },
        // Taint survives casts, integer targets included: that is the
        // laundering path (`(w * 1e6) as i64`).
        ExprKind::Cast { expr, ty } => ty.is_float() || is_tainted(expr, tainted, float_fns),
        ExprKind::Unary { expr, .. } | ExprKind::Try(expr) => is_tainted(expr, tainted, float_fns),
        ExprKind::Binary { lhs, rhs, .. } => {
            is_tainted(lhs, tainted, float_fns) || is_tainted(rhs, tainted, float_fns)
        }
        ExprKind::Call { callee, args } => {
            let callee_float = match &callee.kind {
                ExprKind::Path(segs) => {
                    let bare = segs.last().is_some_and(|s| float_fns.contains(s));
                    let qual = segs.len() >= 2
                        && float_fns.contains(&format!(
                            "{}::{}",
                            segs[segs.len() - 2],
                            segs[segs.len() - 1]
                        ));
                    bare || qual
                }
                _ => false,
            };
            callee_float || args.iter().any(|a| is_tainted(a, tainted, float_fns))
        }
        ExprKind::MethodCall {
            recv, name, args, ..
        } => {
            FLOAT_METHODS.contains(&name.as_str())
                || float_fns.contains(name)
                || is_tainted(recv, tainted, float_fns)
                || args.iter().any(|a| is_tainted(a, tainted, float_fns))
        }
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            items.iter().any(|it| is_tainted(it, tainted, float_fns))
        }
        ExprKind::If { then, els, .. } => {
            then.stmts
                .last()
                .is_some_and(|s| matches!(s, Stmt::Expr(e) if is_tainted(e, tainted, float_fns)))
                || els
                    .as_ref()
                    .is_some_and(|e| is_tainted(e, tainted, float_fns))
        }
        ExprKind::Block(b) => b
            .stmts
            .last()
            .is_some_and(|s| matches!(s, Stmt::Expr(e) if is_tainted(e, tainted, float_fns))),
        _ => false,
    }
}

fn sink_finding(path: &str, line: u32, what: &str) -> Finding {
    Finding {
        path: path.to_string(),
        line,
        lint: FLOAT_TAINT.to_string(),
        message: format!(
            "float-derived value {what}; exact quantities must be computed \
             in integer/rational arithmetic end to end"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::analyze_source;

    fn findings(src: &str) -> Vec<Finding> {
        let ws = Workspace {
            files: vec![analyze_source("crates/s/src/lib.rs", src)],
        };
        let mut cfg = Config::default();
        cfg.lints.entry(FLOAT_TAINT.to_string()).or_default();
        run(&ws, &cfg)
    }

    #[test]
    fn laundered_float_reaching_rational_is_caught() {
        let src = "
pub fn bad(w: f64) -> u32 {
    let scaled = (w * 1000000.0) as i64;
    let r = Rational::new(scaled, 1000000);
    0
}
";
        let got = findings(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("Rational::new"));
    }

    #[test]
    fn float_returning_workspace_fn_taints_callers() {
        let src = "
fn jitter() -> f64 { 0.5 }
pub fn bad() {
    let j = jitter() as i64;
    let w: Weight = Weight::from_ratio(j, 10);
}
pub fn also_bad() {
    let s: Slot = helper(jitter() as u64);
}
fn helper(x: u64) -> u64 { x }
";
        let got = findings(src);
        // `Weight::from_ratio(j, ..)` fires both the call-arg sink and
        // the `let w: Weight` binding sink; `let s: Slot = ..` fires one.
        assert_eq!(got.len(), 3, "{got:?}");
    }

    #[test]
    fn exact_arithmetic_is_clean_and_shadowing_kills_taint() {
        let src = "
pub fn good(n: i64) -> u32 {
    let x = 0.5;
    let x = n * 2;
    let r = Rational::new(x, 2);
    0
}
";
        assert!(findings(src).is_empty());
    }

    #[test]
    fn returning_taint_as_exact_type_is_caught() {
        let src = "
pub fn bad(w: f64) -> Rational {
    Rational { num: 1, den: 2 }
}
pub fn worse(w: f64) -> Priority {
    (w as u128)
}
";
        let got = findings(src);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("returned as `Priority`"));
    }
}
