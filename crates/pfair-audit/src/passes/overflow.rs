//! Pass 2: interval/overflow analysis.
//!
//! Functions opted in with `// audit: prove(overflow-bounds)` are run
//! through an abstract interpreter over the interval domain of
//! [`crate::absint`]. Parameter ranges come from the declared integer
//! types, tightened by `// audit: assume(<name> in <lo>..=<hi>)`
//! contracts whose bounds may reference workspace constants (so
//! `-SLOT_BOUND..=SLOT_BOUND` stays in sync with `priority.rs`). The
//! pass reports every `+`, `-`, `*`, `<<`, or `abs()` whose result
//! interval escapes the result type's range, every `/`, `%`, or
//! `rem_euclid` whose divisor may be zero, and any function return
//! that cannot be bounded inside the declared return type.
//!
//! Joins are interval unions at `if`/`match` merge points; loops
//! widen every variable assigned in the body to its declared type's
//! full range before a single body pass (a one-shot widening that is
//! sound without fixpoint iteration). Branch conditions do *not*
//! refine intervals (the AST collapses comparison operators), so
//! guard-style code should either use `clamp`/`min`/`max` — which are
//! modeled precisely — or carry an `assume` contract.

use std::collections::{BTreeMap, BTreeSet};

use crate::absint::{Bound, Interval, TOP};
use crate::ast::*;
use crate::config::Config;
use crate::lexer::LexFile;
use crate::lints::{parse_assumes, parse_proves, Assume, OVERFLOW_INTERVAL};
use crate::parser::parse_file;
use crate::passes::Workspace;
use crate::Finding;

/// Workspace constant table: value plus, when the declared type is a
/// primitive integer, its (bits, signed), keyed by constant name.
pub type ConstEnv = BTreeMap<String, (i128, Option<(u32, bool)>)>;

/// The abstract value: an interval plus, when known, the expression's
/// integer type (bits, signed).
#[derive(Clone, Copy, Debug)]
struct AbsVal {
    iv: Interval,
    ty: Option<(u32, bool)>,
}

const UNKNOWN: AbsVal = AbsVal { iv: TOP, ty: None };

impl AbsVal {
    fn of_type(bits: u32, signed: bool) -> AbsVal {
        AbsVal {
            iv: Interval::of_type(bits, signed),
            ty: Some((bits, signed)),
        }
    }
}

/// Runs the pass: analyzes every `prove(overflow-bounds)` function in
/// files the `overflow-interval` lint scopes; `assume` bounds evaluate
/// against `consts`.
pub fn run(ws: &Workspace, cfg: &Config, consts: &ConstEnv) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ws.files {
        if !cfg.lint_applies(OVERFLOW_INTERVAL, &file.path) {
            continue;
        }
        analyze_file(file.path.as_str(), &file.lex, &file.ast, consts, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

fn analyze_file(
    path: &str,
    lex: &LexFile,
    ast: &SourceFile,
    consts: &ConstEnv,
    out: &mut Vec<Finding>,
) {
    // Every function item by line, for directive attachment.
    let mut fns: Vec<(u32, &FnItem, bool)> = Vec::new();
    walk_items(&ast.items, &mut |item, ctx| {
        if let ItemKind::Fn(f) = &item.kind {
            fns.push((item.line, f, ctx.in_test));
        }
    });
    fns.sort_by_key(|(line, _, _)| *line);
    let next_fn = |line: u32| fns.iter().find(|(l, _, _)| *l > line);

    let mut proven: BTreeSet<u32> = BTreeSet::new();
    for prove in parse_proves(lex) {
        if prove.property != "overflow-bounds" {
            out.push(finding(
                path,
                prove.line,
                format!(
                    "unknown prove property `{}`; supported: overflow-bounds",
                    prove.property
                ),
            ));
            continue;
        }
        match next_fn(prove.line) {
            Some((l, _, false)) => {
                proven.insert(*l);
            }
            _ => out.push(finding(
                path,
                prove.line,
                "prove(overflow-bounds) does not precede a function".to_string(),
            )),
        }
    }

    // Assume contracts attach to the nearest following function.
    let mut assumes_by_fn: BTreeMap<u32, Vec<Assume>> = BTreeMap::new();
    for assume in parse_assumes(lex) {
        if assume.lo.is_empty() || assume.hi.is_empty() {
            out.push(finding(
                path,
                assume.line,
                format!(
                    "malformed assume for `{}`; expected \
                     `audit: assume(<name> in <lo>..=<hi>)`",
                    assume.name
                ),
            ));
            continue;
        }
        match next_fn(assume.line) {
            Some((l, _, _)) if proven.contains(l) => {
                assumes_by_fn.entry(*l).or_default().push(assume);
            }
            _ => out.push(finding(
                path,
                assume.line,
                format!(
                    "assume(`{}`) does not precede a prove(overflow-bounds) function",
                    assume.name
                ),
            )),
        }
    }

    for (line, func, _) in &fns {
        if proven.contains(line) {
            let assumes = assumes_by_fn.remove(line).unwrap_or_default();
            analyze_fn(path, func, &assumes, consts, out);
        }
    }
}

struct Ctx<'a> {
    path: &'a str,
    locals: BTreeMap<String, AbsVal>,
    /// Contracts not yet bound to a parameter, applied at the first
    /// `let` of that name.
    pending_assumes: BTreeMap<String, Interval>,
    consts: &'a ConstEnv,
    ret: Option<(u32, bool)>,
    out: &'a mut Vec<Finding>,
}

fn analyze_fn(
    path: &str,
    func: &FnItem,
    assumes: &[Assume],
    consts: &ConstEnv,
    out: &mut Vec<Finding>,
) {
    let Some(body) = &func.body else {
        return;
    };
    let mut ctx = Ctx {
        path,
        locals: BTreeMap::new(),
        pending_assumes: BTreeMap::new(),
        consts,
        ret: func.ret.as_ref().and_then(|t| int_type_bits(&t.head)),
        out,
    };
    for p in &func.params {
        if let Some(name) = &p.name {
            let val = match int_type_bits(&p.ty.head) {
                Some((bits, signed)) => AbsVal::of_type(bits, signed),
                None => UNKNOWN,
            };
            ctx.locals.insert(name.clone(), val);
        }
    }
    for assume in assumes {
        let Some((lo, hi)) = eval_bound(&assume.lo, consts).zip(eval_bound(&assume.hi, consts))
        else {
            ctx.out.push(finding(
                path,
                assume.line,
                format!(
                    "assume bounds for `{}` are not constant-evaluable \
                     (`{}..={}`)",
                    assume.name, assume.lo, assume.hi
                ),
            ));
            continue;
        };
        let range = Interval::range(lo, hi);
        match ctx.locals.get_mut(&assume.name) {
            Some(val) => {
                if let Some((bits, signed)) = val.ty {
                    if !range.subset_of(&Interval::of_type(bits, signed)) {
                        ctx.out.push(finding(
                            path,
                            assume.line,
                            format!(
                                "assume range {} for `{}` exceeds the parameter's \
                                 declared type",
                                fmt_iv(range),
                                assume.name
                            ),
                        ));
                        continue;
                    }
                }
                val.iv = val.iv.intersect(range);
            }
            None => {
                ctx.pending_assumes.insert(assume.name.clone(), range);
            }
        }
    }
    let tail = eval_block(body, &mut ctx);
    check_return(&tail, body_tail_line(body).unwrap_or(body.line), &mut ctx);
}

fn body_tail_line(b: &Block) -> Option<u32> {
    match b.stmts.last()? {
        Stmt::Expr(e) => Some(e.line),
        Stmt::Let { line, .. } => Some(*line),
        Stmt::Item(i) => Some(i.line),
    }
}

fn check_return(val: &AbsVal, line: u32, ctx: &mut Ctx<'_>) {
    let Some((bits, signed)) = ctx.ret else {
        return;
    };
    let range = Interval::of_type(bits, signed);
    if !val.iv.subset_of(&range) {
        let detail = if val.iv == TOP {
            "cannot be bounded".to_string()
        } else {
            format!("lies in {}", fmt_iv(val.iv))
        };
        ctx.out.push(finding(
            ctx.path,
            line,
            format!(
                "return value {detail}, outside the declared `{}` range",
                ty_name(bits, signed)
            ),
        ));
    }
}

fn eval_block(b: &Block, ctx: &mut Ctx<'_>) -> AbsVal {
    let mut last = UNKNOWN;
    for stmt in &b.stmts {
        last = UNKNOWN;
        match stmt {
            Stmt::Let {
                name,
                ty,
                init,
                else_block,
                ..
            } => {
                let mut val = match init {
                    Some(e) => eval_expr(e, ctx),
                    None => UNKNOWN,
                };
                if let Some(declared) = ty.as_ref().and_then(|t| int_type_bits(&t.head)) {
                    // The compiler guarantees the binding's type; keep
                    // the tighter of the computed and declared ranges.
                    val.ty = Some(declared);
                    val.iv = val.iv.intersect(Interval::of_type(declared.0, declared.1));
                }
                if let Some(eb) = else_block {
                    let saved = ctx.locals.clone();
                    eval_block(eb, ctx);
                    ctx.locals = saved;
                }
                if let Some(n) = name {
                    if let Some(assumed) = ctx.pending_assumes.remove(n) {
                        val.iv = val.iv.intersect(assumed);
                    }
                    ctx.locals.insert(n.clone(), val);
                }
            }
            Stmt::Expr(e) => last = eval_expr(e, ctx),
            Stmt::Item(_) => {}
        }
    }
    last
}

/// Merges branch-local states back: every pre-existing variable takes
/// the union of its value across the branch exits.
fn merge_branches(base: &mut BTreeMap<String, AbsVal>, branches: &[BTreeMap<String, AbsVal>]) {
    for (name, val) in base.iter_mut() {
        for br in branches {
            if let Some(b) = br.get(name) {
                val.iv = val.iv.union(b.iv);
            }
        }
    }
}

fn eval_expr(e: &Expr, ctx: &mut Ctx<'_>) -> AbsVal {
    match &e.kind {
        ExprKind::Int { value, suffix } => AbsVal {
            iv: value.map_or(TOP, Interval::exact),
            ty: suffix.as_deref().and_then(int_type_bits),
        },
        ExprKind::Path(segs) => eval_path(segs, ctx),
        ExprKind::Unary { op, expr } => {
            let v = eval_expr(expr, ctx);
            match op {
                UnOp::Neg => {
                    let mut r = AbsVal {
                        iv: v.iv.neg(),
                        ty: v.ty,
                    };
                    check_op(&mut r, "-", e.line, ctx);
                    r
                }
                UnOp::Not => AbsVal {
                    iv: if v.ty.is_some() {
                        TOP
                    } else {
                        Interval::range(0, 1)
                    },
                    ty: v.ty,
                },
                UnOp::Deref | UnOp::Ref => v,
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let a = eval_expr(lhs, ctx);
            let b = eval_expr(rhs, ctx);
            eval_binop(*op, a, b, e.line, ctx)
        }
        ExprKind::Assign { op, lhs, rhs } => {
            let b = eval_expr(rhs, ctx);
            let target = match &lhs.kind {
                ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
                _ => None,
            };
            let new_val = match op {
                Some(op) => {
                    let a = target
                        .as_ref()
                        .and_then(|n| ctx.locals.get(n).copied())
                        .unwrap_or(UNKNOWN);
                    eval_binop(*op, a, b, e.line, ctx)
                }
                None => b,
            };
            if let Some(n) = target {
                if let Some(slot) = ctx.locals.get_mut(&n) {
                    let ty = slot.ty.or(new_val.ty);
                    *slot = AbsVal { iv: new_val.iv, ty };
                }
            }
            UNKNOWN
        }
        ExprKind::Cast { expr, ty } => {
            let v = eval_expr(expr, ctx);
            match int_type_bits(&ty.head) {
                Some((bits, signed)) => {
                    let range = Interval::of_type(bits, signed);
                    let iv = if v.iv.subset_of(&range) {
                        v.iv
                    } else {
                        // Lossy: `as` wraps; clippy owns the style
                        // question, the value is the full range.
                        range
                    };
                    AbsVal {
                        iv,
                        ty: Some((bits, signed)),
                    }
                }
                None => UNKNOWN,
            }
        }
        ExprKind::Call { callee, args } => {
            let vals: Vec<AbsVal> = args.iter().map(|a| eval_expr(a, ctx)).collect();
            eval_call(callee, &vals, ctx)
        }
        ExprKind::MethodCall {
            recv, name, args, ..
        } => {
            let r = eval_expr(recv, ctx);
            let vals: Vec<AbsVal> = args.iter().map(|a| eval_expr(a, ctx)).collect();
            eval_method(r, name, &vals, e.line, ctx)
        }
        ExprKind::Try(expr) | ExprKind::Field { recv: expr, .. } => {
            let _ = eval_expr(expr, ctx);
            UNKNOWN
        }
        ExprKind::Index { recv, index } => {
            let _ = eval_expr(recv, ctx);
            let _ = eval_expr(index, ctx);
            UNKNOWN
        }
        ExprKind::Tuple(items) => match items.as_slice() {
            [one] => eval_expr(one, ctx), // parenthesization
            items => {
                for it in items {
                    let _ = eval_expr(it, ctx);
                }
                UNKNOWN
            }
        },
        ExprKind::Array(items) => {
            for it in items {
                let _ = eval_expr(it, ctx);
            }
            UNKNOWN
        }
        ExprKind::Repeat { elem, len } => {
            let _ = eval_expr(elem, ctx);
            let _ = eval_expr(len, ctx);
            UNKNOWN
        }
        ExprKind::Block(b) => {
            let saved = ctx.locals.clone();
            let v = eval_block(b, ctx);
            let inner = std::mem::replace(&mut ctx.locals, saved);
            merge_branches(&mut ctx.locals, &[inner]);
            v
        }
        ExprKind::If { cond, then, els } => {
            let _ = eval_expr(cond, ctx);
            let saved = ctx.locals.clone();
            let tv = eval_block(then, ctx);
            let then_locals = std::mem::replace(&mut ctx.locals, saved);
            let ev = els.as_ref().map(|e| eval_expr(e, ctx));
            let else_locals = ctx.locals.clone();
            merge_branches(&mut ctx.locals, &[then_locals, else_locals]);
            match ev {
                Some(ev) => AbsVal {
                    iv: tv.iv.union(ev.iv),
                    ty: tv.ty.or(ev.ty),
                },
                None => UNKNOWN,
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            let _ = eval_expr(scrutinee, ctx);
            let saved = ctx.locals.clone();
            let mut exits = Vec::new();
            let mut val: Option<AbsVal> = None;
            for arm in arms {
                ctx.locals = saved.clone();
                for ident in &arm.pat_idents {
                    // Pattern binders shadow with unknown values.
                    ctx.locals.insert(ident.clone(), UNKNOWN);
                }
                if let Some(g) = &arm.guard {
                    let _ = eval_expr(g, ctx);
                }
                let av = eval_expr(&arm.body, ctx);
                val = Some(match val {
                    Some(v) => AbsVal {
                        iv: v.iv.union(av.iv),
                        ty: v.ty.or(av.ty),
                    },
                    None => av,
                });
                exits.push(std::mem::take(&mut ctx.locals));
            }
            ctx.locals = saved;
            merge_branches(&mut ctx.locals, &exits);
            val.unwrap_or(UNKNOWN)
        }
        ExprKind::While { cond, body } => {
            widen_loop_vars(body, ctx);
            let _ = eval_expr(cond, ctx);
            let _ = eval_block(body, ctx);
            UNKNOWN
        }
        ExprKind::Loop(body) => {
            widen_loop_vars(body, ctx);
            let _ = eval_block(body, ctx);
            UNKNOWN
        }
        ExprKind::For { pat, iter, body } => {
            let range = eval_expr(iter, ctx);
            widen_loop_vars(body, ctx);
            if let Some(binder) = pat {
                ctx.locals.insert(binder.clone(), range);
            }
            let _ = eval_block(body, ctx);
            UNKNOWN
        }
        ExprKind::Closure { body, .. } => {
            let _ = eval_expr(body, ctx);
            UNKNOWN
        }
        ExprKind::Return(inner) => {
            let v = inner.as_ref().map_or(UNKNOWN, |e| eval_expr(e, ctx));
            if inner.is_some() {
                check_return(&v, e.line, ctx);
            }
            UNKNOWN
        }
        ExprKind::Break(Some(inner)) => {
            let _ = eval_expr(inner, ctx);
            UNKNOWN
        }
        ExprKind::Range { lo, hi } => {
            // A range *value*: used by `for` loops; the inclusive hull
            // of both ends is a sound iteration interval.
            let l = lo.as_ref().map(|e| eval_expr(e, ctx));
            let h = hi.as_ref().map(|e| eval_expr(e, ctx));
            match (l, h) {
                (Some(l), Some(h)) => AbsVal {
                    iv: l.iv.union(h.iv),
                    ty: l.ty.or(h.ty),
                },
                _ => UNKNOWN,
            }
        }
        _ => UNKNOWN,
    }
}

fn eval_path(segs: &[String], ctx: &mut Ctx<'_>) -> AbsVal {
    if let [one] = segs {
        if let Some(v) = ctx.locals.get(one) {
            return *v;
        }
    }
    // `i64::MAX` / `u32::MIN` style associated constants.
    if segs.len() == 2 {
        if let Some((bits, signed)) = int_type_bits(&segs[0]) {
            let range = Interval::of_type(bits, signed);
            let iv = match segs[1].as_str() {
                "MAX" => Interval {
                    lo: range.hi,
                    hi: range.hi,
                },
                "MIN" => Interval {
                    lo: range.lo,
                    hi: range.lo,
                },
                _ => return UNKNOWN,
            };
            return AbsVal {
                iv,
                ty: Some((bits, signed)),
            };
        }
    }
    if let Some(name) = segs.last() {
        if let Some((v, ty)) = ctx.consts.get(name) {
            return AbsVal {
                iv: Interval::exact(*v),
                ty: *ty,
            };
        }
    }
    UNKNOWN
}

fn eval_binop(op: BinOp, a: AbsVal, b: AbsVal, line: u32, ctx: &mut Ctx<'_>) -> AbsVal {
    let ty = a.ty.or(b.ty);
    let val = |iv: Interval| AbsVal { iv, ty };
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl => {
            let iv = match op {
                BinOp::Add => a.iv.add(b.iv),
                BinOp::Sub => a.iv.sub(b.iv),
                BinOp::Mul => a.iv.mul(b.iv),
                _ => a.iv.shl(b.iv),
            };
            let mut r = val(iv);
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                _ => "<<",
            };
            check_op(&mut r, sym, line, ctx);
            r
        }
        BinOp::Div | BinOp::Rem => {
            if b.iv.contains_zero() {
                let sym = if op == BinOp::Div { "/" } else { "%" };
                ctx.out.push(finding(
                    ctx.path,
                    line,
                    format!(
                        "`{sym}` divisor may be zero (divisor interval {})",
                        fmt_iv(b.iv)
                    ),
                ));
            }
            val(if op == BinOp::Div {
                a.iv.div(b.iv)
            } else {
                a.iv.rem(b.iv)
            })
        }
        BinOp::Shr => val(a.iv.shr(b.iv)),
        BinOp::BitAnd => val(a.iv.bitand(b.iv)),
        BinOp::BitOr => val(a.iv.bitor(b.iv)),
        BinOp::BitXor => val(a.iv.bitxor(b.iv)),
        BinOp::And | BinOp::Or | BinOp::Cmp => AbsVal {
            iv: Interval::range(0, 1),
            ty: None,
        },
    }
}

/// Flags a checked operation whose result escapes its type's range,
/// then clamps the interval to keep downstream findings independent.
fn check_op(val: &mut AbsVal, sym: &str, line: u32, ctx: &mut Ctx<'_>) {
    let Some((bits, signed)) = val.ty else {
        return;
    };
    let range = Interval::of_type(bits, signed);
    if !val.iv.subset_of(&range) {
        let detail = if val.iv == TOP {
            "operands are unbounded".to_string()
        } else {
            format!("result lies in {}", fmt_iv(val.iv))
        };
        ctx.out.push(finding(
            ctx.path,
            line,
            format!("`{sym}` may overflow `{}`: {detail}", ty_name(bits, signed)),
        ));
        val.iv = val.iv.intersect(range);
    }
}

fn eval_call(callee: &Expr, args: &[AbsVal], _ctx: &mut Ctx<'_>) -> AbsVal {
    let ExprKind::Path(segs) = &callee.kind else {
        return UNKNOWN;
    };
    if segs.len() == 2 {
        if let Some((bits, signed)) = int_type_bits(&segs[0]) {
            let range = Interval::of_type(bits, signed);
            match (segs[1].as_str(), args) {
                // `T::try_from(x)`: the success payload is `x` confined
                // to `T`'s range (the failure arm diverges or defaults,
                // handled by `unwrap_or`).
                ("try_from", [x]) => {
                    return AbsVal {
                        iv: x.iv.intersect(range),
                        ty: Some((bits, signed)),
                    }
                }
                // `T::from(x)`: lossless widening.
                ("from", [x]) => {
                    return AbsVal {
                        iv: x.iv,
                        ty: Some((bits, signed)),
                    }
                }
                ("min", [a, b]) => {
                    return AbsVal {
                        iv: a.iv.min_val(b.iv),
                        ty: Some((bits, signed)),
                    }
                }
                ("max", [a, b]) => {
                    return AbsVal {
                        iv: a.iv.max_val(b.iv),
                        ty: Some((bits, signed)),
                    }
                }
                _ => {}
            }
        }
    }
    UNKNOWN
}

fn eval_method(recv: AbsVal, name: &str, args: &[AbsVal], line: u32, ctx: &mut Ctx<'_>) -> AbsVal {
    let exact = |v: &AbsVal| match (v.iv.lo, v.iv.hi) {
        (Bound::Int(a), Bound::Int(b)) if a == b => Some(a),
        _ => None,
    };
    let ty_range = |ty: Option<(u32, bool)>| ty.map_or(TOP, |(b, s)| Interval::of_type(b, s));
    match (name, args) {
        ("clamp", [lo, hi]) => match (exact(lo), exact(hi)) {
            (Some(l), Some(h)) => AbsVal {
                iv: recv.iv.clamp(l, h),
                ty: recv.ty,
            },
            _ => AbsVal {
                iv: recv.iv.intersect(Interval {
                    lo: lo.iv.lo,
                    hi: hi.iv.hi,
                }),
                ty: recv.ty,
            },
        },
        ("min", [o]) => AbsVal {
            iv: recv.iv.min_val(o.iv),
            ty: recv.ty.or(o.ty),
        },
        ("max", [o]) => AbsVal {
            iv: recv.iv.max_val(o.iv),
            ty: recv.ty.or(o.ty),
        },
        ("abs", []) => {
            let mut r = AbsVal {
                iv: recv.iv.abs(),
                ty: recv.ty,
            };
            // `i64::MIN.abs()` panics/overflows; the range check owns it.
            check_op(&mut r, "abs", line, ctx);
            r
        }
        ("rem_euclid", [o]) => {
            if o.iv.contains_zero() {
                ctx.out.push(finding(
                    ctx.path,
                    line,
                    format!(
                        "`rem_euclid` divisor may be zero (divisor interval {})",
                        fmt_iv(o.iv)
                    ),
                ));
            }
            AbsVal {
                iv: recv.iv.rem_euclid(o.iv),
                ty: recv.ty,
            }
        }
        ("saturating_add", [o]) => AbsVal {
            iv: recv.iv.add(o.iv).intersect(ty_range(recv.ty.or(o.ty))),
            ty: recv.ty.or(o.ty),
        },
        ("saturating_sub", [o]) => AbsVal {
            iv: recv.iv.sub(o.iv).intersect(ty_range(recv.ty.or(o.ty))),
            ty: recv.ty.or(o.ty),
        },
        ("saturating_mul", [o]) => AbsVal {
            iv: recv.iv.mul(o.iv).intersect(ty_range(recv.ty.or(o.ty))),
            ty: recv.ty.or(o.ty),
        },
        ("wrapping_add" | "wrapping_sub" | "wrapping_mul" | "wrapping_neg", _) => AbsVal {
            iv: ty_range(recv.ty),
            ty: recv.ty,
        },
        // `checked_*` yields the success payload (confined to the type
        // by construction); `unwrap_or` below unions in the default.
        ("checked_add", [o]) => AbsVal {
            iv: recv.iv.add(o.iv).intersect(ty_range(recv.ty.or(o.ty))),
            ty: recv.ty.or(o.ty),
        },
        ("checked_sub", [o]) => AbsVal {
            iv: recv.iv.sub(o.iv).intersect(ty_range(recv.ty.or(o.ty))),
            ty: recv.ty.or(o.ty),
        },
        ("checked_mul", [o]) => AbsVal {
            iv: recv.iv.mul(o.iv).intersect(ty_range(recv.ty.or(o.ty))),
            ty: recv.ty.or(o.ty),
        },
        ("unwrap_or", [d]) => AbsVal {
            iv: recv.iv.union(d.iv),
            ty: recv.ty.or(d.ty),
        },
        ("unwrap_or_default", []) => AbsVal {
            iv: recv.iv.union(Interval::exact(0)),
            ty: recv.ty,
        },
        ("unwrap" | "expect", _) => recv,
        ("len" | "count", []) => AbsVal::of_type(64, false),
        ("leading_zeros" | "trailing_zeros" | "count_ones", []) => AbsVal {
            iv: Interval::range(0, 128),
            ty: Some((32, false)),
        },
        ("pow", [o]) => {
            // Model x.pow(k) as repeated multiplication only for exact
            // small exponents; otherwise unknown-in-type.
            match exact(o) {
                Some(k) if (0..=8).contains(&k) => {
                    let mut iv = Interval::exact(1);
                    for _ in 0..k {
                        iv = iv.mul(recv.iv);
                    }
                    let mut r = AbsVal { iv, ty: recv.ty };
                    check_op(&mut r, "pow", line, ctx);
                    r
                }
                _ => AbsVal {
                    iv: ty_range(recv.ty),
                    ty: recv.ty,
                },
            }
        }
        _ => UNKNOWN,
    }
}

/// One-shot widening: every variable assigned anywhere in the loop
/// body jumps to its declared type's full range (or [`TOP`]).
fn widen_loop_vars(body: &Block, ctx: &mut Ctx<'_>) {
    let mut assigned = BTreeSet::new();
    walk_block(body, &mut |e| {
        if let ExprKind::Assign { lhs, .. } = &e.kind {
            if let ExprKind::Path(segs) = &lhs.kind {
                if let [one] = segs.as_slice() {
                    assigned.insert(one.clone());
                }
            }
        }
    });
    for name in assigned {
        if let Some(val) = ctx.locals.get_mut(&name) {
            val.iv = val.ty.map_or(TOP, |(b, s)| Interval::of_type(b, s));
        }
    }
}

/// Parses an assume bound's expression text and evaluates it against
/// the workspace constants.
fn eval_bound(text: &str, consts: &ConstEnv) -> Option<i128> {
    let src = format!("const __BOUND: i128 = {text};");
    let lex = LexFile::lex(&src);
    let (ast, errors) = parse_file(&lex);
    if !errors.is_empty() {
        return None;
    }
    match ast.items.into_iter().next()?.kind {
        ItemKind::Const { value: Some(e), .. } => eval_const(&e, consts),
        _ => None,
    }
}

/// Constant expression evaluation over literals, negation, the four
/// widening-checked operators, shifts, casts, and known const names.
fn eval_const(e: &Expr, env: &ConstEnv) -> Option<i128> {
    match &e.kind {
        ExprKind::Int { value, .. } => *value,
        ExprKind::Path(segs) => {
            if segs.len() == 2 {
                if let Some((bits, signed)) = int_type_bits(&segs[0]) {
                    let range = Interval::of_type(bits, signed);
                    return match (segs[1].as_str(), range.lo, range.hi) {
                        ("MAX", _, Bound::Int(v)) => Some(v),
                        ("MIN", Bound::Int(v), _) => Some(v),
                        _ => None,
                    };
                }
            }
            env.get(segs.last()?).map(|(v, _)| *v)
        }
        ExprKind::Unary {
            op: UnOp::Neg,
            expr,
        } => eval_const(expr, env)?.checked_neg(),
        ExprKind::Binary { op, lhs, rhs } => {
            let (a, b) = (eval_const(lhs, env)?, eval_const(rhs, env)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => a.checked_div(b),
                BinOp::Shl => a.checked_shl(u32::try_from(b).ok()?),
                BinOp::Shr => a.checked_shr(u32::try_from(b).ok()?),
                _ => None,
            }
        }
        ExprKind::Cast { expr, .. } => eval_const(expr, env),
        ExprKind::Tuple(items) if items.len() == 1 => eval_const(&items[0], env),
        _ => None,
    }
}

/// Workspace `const`/`static` integer values, resolved iteratively so
/// consts may reference each other across files and ahead of their
/// declaration. Both the overflow pass (`assume` bounds) and
/// panic-reach (nonzero divisors) read this one table.
pub fn collect_consts(ws: &Workspace) -> ConstEnv {
    let mut decls: Vec<(&str, &TypeRef, &Expr)> = Vec::new();
    for file in &ws.files {
        walk_items(&file.ast.items, &mut |item, _| {
            if let ItemKind::Const {
                name,
                ty,
                value: Some(e),
            } = &item.kind
            {
                decls.push((name, ty, e));
            }
        });
    }
    let mut env: ConstEnv = BTreeMap::new();
    for _ in 0..3 {
        let mut progressed = false;
        for (name, ty, value) in &decls {
            if env.contains_key(*name) {
                continue;
            }
            if let Some(v) = eval_const(value, &env) {
                env.insert(name.to_string(), (v, int_type_bits(&ty.head)));
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    env
}

fn finding(path: &str, line: u32, message: String) -> Finding {
    Finding {
        path: path.to_string(),
        line,
        lint: OVERFLOW_INTERVAL.to_string(),
        message,
    }
}

fn ty_name(bits: u32, signed: bool) -> String {
    format!("{}{bits}", if signed { "i" } else { "u" })
}

fn fmt_iv(iv: Interval) -> String {
    let b = |b: Bound| match b {
        Bound::NegInf => "-inf".to_string(),
        Bound::PosInf => "+inf".to_string(),
        Bound::Int(v) => v.to_string(),
    };
    format!("[{}, {}]", b(iv.lo), b(iv.hi))
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
        cfg.lints.entry(OVERFLOW_INTERVAL.to_string()).or_default();
        run(&ws, &cfg, &collect_consts(&ws))
    }

    #[test]
    fn packing_pattern_is_proven_in_bounds() {
        let src = "
pub const SLOT_BOUND: i64 = 1 << 46;
// audit: prove(overflow-bounds)
// audit: assume(deadline in -SLOT_BOUND..=SLOT_BOUND)
pub fn pack(deadline: i64) -> u128 {
    let biased = (deadline + SLOT_BOUND) as u128;
    (biased << 64) | 511
}
";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn unbounded_packing_overflows() {
        let src = "
// audit: prove(overflow-bounds)
pub fn pack(deadline: i64) -> u128 {
    let biased = (deadline as u128) << 80;
    biased
}
";
        let got = findings(src);
        assert!(got.iter().any(|f| f.message.contains("<<")), "{got:?}");
    }

    #[test]
    fn clamp_and_rem_euclid_bound_results() {
        let src = "
const RING: i64 = 512;
// audit: prove(overflow-bounds)
pub fn bucket_of(slot: i64) -> u32 {
    let b = slot.rem_euclid(RING);
    b as u32
}
// audit: prove(overflow-bounds)
pub fn clamped(x: i64) -> i64 {
    x.clamp(-100, 100) * 1000
}
";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn zero_divisor_and_unsigned_underflow_are_flagged() {
        let src = "
// audit: prove(overflow-bounds)
pub fn f(a: u64, b: u64) -> u64 {
    let d = a / b;
    a - b
}
";
        let got = findings(src);
        assert!(
            got.iter()
                .any(|f| f.message.contains("divisor may be zero")),
            "{got:?}"
        );
        assert!(
            got.iter().any(|f| f.message.contains("may overflow `u64`")),
            "{got:?}"
        );
    }

    #[test]
    fn assume_contracts_tighten_parameters() {
        let src = "
// audit: prove(overflow-bounds)
// audit: assume(n in 1..=64)
pub fn f(a: u64, n: u64) -> u64 {
    a / n
}
";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn malformed_and_dangling_directives_are_findings() {
        let src = "
// audit: prove(overflow-bounds)
// audit: assume(n in ..)
pub fn f(n: u64) -> u64 { n }
// audit: assume(m in 0..=4)
pub fn unproven(m: u64) -> u64 { m }
// audit: prove(termination)
pub fn g() {}
";
        let got = findings(src);
        assert!(
            got.iter().any(|f| f.message.contains("malformed assume")),
            "{got:?}"
        );
        assert!(
            got.iter()
                .any(|f| f.message.contains("does not precede a prove")),
            "{got:?}"
        );
        assert!(
            got.iter()
                .any(|f| f.message.contains("unknown prove property")),
            "{got:?}"
        );
    }

    #[test]
    fn loops_widen_and_saturating_ops_stay_in_type() {
        let src = "
// audit: prove(overflow-bounds)
pub fn f(xs_len: u64) -> u64 {
    let mut acc: u64 = 0;
    let mut i: u64 = 0;
    while i < xs_len {
        acc = acc.saturating_add(i);
        i = i.saturating_add(1);
    }
    acc
}
";
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn compound_assign_overflow_is_flagged() {
        let src = "
// audit: prove(overflow-bounds)
pub fn f(a: i64) -> i64 {
    let mut x = a;
    x += 1;
    x
}
";
        let got = findings(src);
        assert!(
            got.iter().any(|f| f.message.contains("may overflow `i64`")),
            "{got:?}"
        );
    }
}
