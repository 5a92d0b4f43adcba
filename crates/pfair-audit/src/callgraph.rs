//! A workspace-wide call graph over the parsed ASTs.
//!
//! Nodes are functions keyed by `"Type::name"` (methods, associated
//! functions) or `"name"` (free functions), prefixed with the file
//! they live in so duplicates across crates stay distinct. Edges
//! over-approximate: a call `recv.m(..)` resolves to the method `m`
//! of the receiver's inferred type when light local inference (struct
//! field types, `let` annotations, `self`, parameter types) pins it
//! down, and to *every* known method named `m` otherwise. That
//! over-approximation is the right polarity for panic-reachability —
//! it can produce false positives, never false negatives, relative to
//! the modeled sources.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::*;

/// A function in the graph.
#[derive(Debug)]
pub struct FnNode<'a> {
    /// File the function lives in (relative, `/`-separated).
    pub path: &'a str,
    /// Enclosing type name for methods/associated functions; trait
    /// default methods are owned by the trait.
    pub owner: Option<&'a str>,
    /// The function itself: name, signature and body.
    pub func: &'a FnItem,
    /// True for `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Indices of callees in [`CallGraph::nodes`].
    pub callees: BTreeSet<usize>,
}

impl FnNode<'_> {
    /// `Type::name` or `name` — the spec form entry points use.
    pub fn qualified(&self) -> String {
        match self.owner {
            Some(t) => format!("{t}::{}", self.func.name),
            None => self.func.name.clone(),
        }
    }
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph<'a> {
    /// All function nodes, in deterministic (path, line) order.
    pub nodes: Vec<FnNode<'a>>,
    /// Method name → node indices owning a method of that name.
    by_method: BTreeMap<String, Vec<usize>>,
    /// `Type::name` → node index (first definition wins).
    by_qualified: BTreeMap<String, usize>,
    /// Free-function name → node indices.
    by_free: BTreeMap<String, Vec<usize>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph over `(path, file)` pairs.
    pub fn build(files: &[(&'a str, &'a SourceFile)]) -> CallGraph<'a> {
        let mut g = CallGraph::default();
        // Field types of every struct in the workspace, for receiver
        // inference through `self.field.m()`.
        let mut fields: BTreeMap<String, BTreeMap<String, TypeRef>> = BTreeMap::new();
        // Pass 1: nodes.
        for &(path, file) in files {
            walk_items(&file.items, &mut |item, ctx| match &item.kind {
                ItemKind::Struct { name, fields: fs } => {
                    let entry = fields.entry(name.clone()).or_default();
                    for (f, ty) in fs {
                        entry.insert(f.clone(), ty.clone());
                    }
                }
                ItemKind::Fn(func) => g.nodes.push(FnNode {
                    path,
                    owner: ctx.owner,
                    func,
                    in_test: ctx.in_test,
                    callees: BTreeSet::new(),
                }),
                _ => {}
            });
        }
        for (i, node) in g.nodes.iter().enumerate() {
            let name = node.func.name.clone();
            if node.owner.is_some() {
                g.by_method.entry(name).or_default().push(i);
            } else {
                g.by_free.entry(name).or_default().push(i);
            }
            g.by_qualified.entry(node.qualified()).or_insert(i);
        }
        // Pass 2: edges.
        for i in 0..g.nodes.len() {
            let (owner, func) = (g.nodes[i].owner, g.nodes[i].func);
            let Some(body) = &func.body else {
                continue;
            };
            let mut locals: BTreeMap<String, String> = BTreeMap::new();
            if let Some(ty) = owner {
                locals.insert("self".to_string(), ty.to_string());
            }
            for p in &func.params {
                if let Some(n) = &p.name {
                    if !p.ty.head.is_empty() {
                        locals.insert(n.clone(), p.ty.head.clone());
                    }
                }
            }
            let mut callees = BTreeSet::new();
            walk_calls(body, &mut locals, &fields, &g, &mut callees);
            g.nodes[i].callees = callees;
        }
        g
    }

    /// Node index of `Type::name` / `name`, when defined in-tree.
    pub fn resolve_qualified(&self, spec: &str) -> Option<usize> {
        self.by_qualified.get(spec).copied()
    }

    /// All node indices whose owner is `type_name`.
    pub fn methods_of(&self, type_name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.owner == Some(type_name))
            .map(|(i, _)| i)
            .collect()
    }

    fn resolve_method(&self, recv_ty: Option<&str>, name: &str) -> Vec<usize> {
        if let Some(ty) = recv_ty {
            if let Some(&i) = self.by_qualified.get(&format!("{ty}::{name}")) {
                return vec![i];
            }
        }
        // Unknown receiver: every method of that name, trait default
        // methods included.
        self.by_method.get(name).cloned().unwrap_or_default()
    }
}

/// Infers the head type of `e` from locals and struct fields; `None`
/// when unknown.
fn infer_ty(
    e: &Expr,
    locals: &BTreeMap<String, String>,
    fields: &BTreeMap<String, BTreeMap<String, TypeRef>>,
) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) if segs.len() == 1 => locals.get(&segs[0]).cloned(),
        ExprKind::Field { recv, name } => {
            let recv_ty = infer_ty(recv, locals, fields)?;
            fields.get(&recv_ty)?.get(name).map(|t| t.head.clone())
        }
        ExprKind::Unary {
            op: UnOp::Ref | UnOp::Deref,
            expr,
        } => infer_ty(expr, locals, fields),
        ExprKind::StructLit { path, .. } => path.last().cloned(),
        ExprKind::Call { callee, .. } => {
            // `Type::new(..)` conventionally returns Type.
            if let ExprKind::Path(segs) = &callee.kind {
                if segs.len() >= 2 && segs[segs.len() - 1] == "new" {
                    return Some(segs[segs.len() - 2].clone());
                }
            }
            None
        }
        _ => None,
    }
}

fn walk_calls(
    block: &Block,
    locals: &mut BTreeMap<String, String>,
    fields: &BTreeMap<String, BTreeMap<String, TypeRef>>,
    g: &CallGraph,
    out: &mut BTreeSet<usize>,
) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                name,
                ty,
                init,
                else_block,
                ..
            } => {
                if let Some(e) = init {
                    walk_calls_expr(e, locals, fields, g, out);
                }
                if let Some(b) = else_block {
                    walk_calls(b, locals, fields, g, out);
                }
                if let Some(n) = name {
                    let inferred = ty
                        .as_ref()
                        .filter(|t| !t.head.is_empty())
                        .map(|t| t.head.clone())
                        .or_else(|| init.as_ref().and_then(|e| infer_ty(e, locals, fields)));
                    match inferred {
                        Some(t) => {
                            locals.insert(n.clone(), t);
                        }
                        None => {
                            // Shadowing with an unknown type must kill
                            // the old binding, not keep its stale type.
                            locals.remove(n);
                        }
                    }
                }
            }
            Stmt::Expr(e) => walk_calls_expr(e, locals, fields, g, out),
            Stmt::Item(_) => {
                // Nested items are their own graph nodes.
            }
        }
    }
}

fn walk_calls_expr(
    e: &Expr,
    locals: &mut BTreeMap<String, String>,
    fields: &BTreeMap<String, BTreeMap<String, TypeRef>>,
    g: &CallGraph,
    out: &mut BTreeSet<usize>,
) {
    match &e.kind {
        ExprKind::MethodCall {
            recv, name, args, ..
        } => {
            walk_calls_expr(recv, locals, fields, g, out);
            for a in args {
                walk_calls_expr(a, locals, fields, g, out);
            }
            let recv_ty = infer_ty(recv, locals, fields);
            for i in g.resolve_method(recv_ty.as_deref(), name) {
                out.insert(i);
            }
        }
        ExprKind::Call { callee, args } => {
            for a in args {
                walk_calls_expr(a, locals, fields, g, out);
            }
            if let ExprKind::Path(segs) = &callee.kind {
                match segs.len() {
                    1 => {
                        if let Some(is) = g.by_free.get(&segs[0]) {
                            out.extend(is.iter().copied());
                        }
                    }
                    _ => {
                        let qualified =
                            format!("{}::{}", segs[segs.len() - 2], segs[segs.len() - 1]);
                        if let Some(&i) = g.by_qualified.get(&qualified) {
                            out.insert(i);
                        } else if let Some(is) = g.by_free.get(&segs[segs.len() - 1]) {
                            // `module::helper(..)`.
                            out.extend(is.iter().copied());
                        }
                    }
                }
            } else {
                walk_calls_expr(callee, locals, fields, g, out);
            }
        }
        ExprKind::Closure { body, .. } => walk_calls_expr(body, locals, fields, g, out),
        ExprKind::Block(b) | ExprKind::Loop(b) => walk_calls(b, locals, fields, g, out),
        ExprKind::If { cond, then, els } => {
            walk_calls_expr(cond, locals, fields, g, out);
            walk_calls(then, locals, fields, g, out);
            if let Some(e) = els {
                walk_calls_expr(e, locals, fields, g, out);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            walk_calls_expr(scrutinee, locals, fields, g, out);
            for arm in arms {
                if let Some(gd) = &arm.guard {
                    walk_calls_expr(gd, locals, fields, g, out);
                }
                walk_calls_expr(&arm.body, locals, fields, g, out);
            }
        }
        ExprKind::While { cond, body } => {
            walk_calls_expr(cond, locals, fields, g, out);
            walk_calls(body, locals, fields, g, out);
        }
        ExprKind::For { iter, body, .. } => {
            walk_calls_expr(iter, locals, fields, g, out);
            walk_calls(body, locals, fields, g, out);
        }
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } | ExprKind::Try(expr) => {
            walk_calls_expr(expr, locals, fields, g, out);
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            walk_calls_expr(lhs, locals, fields, g, out);
            walk_calls_expr(rhs, locals, fields, g, out);
        }
        ExprKind::Field { recv, .. } => walk_calls_expr(recv, locals, fields, g, out),
        ExprKind::Index { recv, index } => {
            walk_calls_expr(recv, locals, fields, g, out);
            walk_calls_expr(index, locals, fields, g, out);
        }
        ExprKind::StructLit {
            fields: fs, rest, ..
        } => {
            for (_, v) in fs {
                if let Some(v) = v {
                    walk_calls_expr(v, locals, fields, g, out);
                }
            }
            if let Some(r) = rest {
                walk_calls_expr(r, locals, fields, g, out);
            }
        }
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for it in items {
                walk_calls_expr(it, locals, fields, g, out);
            }
        }
        ExprKind::Repeat { elem, len } => {
            walk_calls_expr(elem, locals, fields, g, out);
            walk_calls_expr(len, locals, fields, g, out);
        }
        ExprKind::Return(Some(e)) | ExprKind::Break(Some(e)) => {
            walk_calls_expr(e, locals, fields, g, out);
        }
        ExprKind::Range { lo, hi } => {
            if let Some(l) = lo {
                walk_calls_expr(l, locals, fields, g, out);
            }
            if let Some(h) = hi {
                walk_calls_expr(h, locals, fields, g, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::LexFile;
    use crate::parser::parse_file;

    /// The graph of one file, which the test keeps alive to its end.
    fn graph(src: &str) -> CallGraph<'static> {
        let lex = LexFile::lex(src);
        let (file, errs) = parse_file(&lex);
        assert!(errs.is_empty(), "{errs:?}");
        CallGraph::build(&[("src/lib.rs", Box::leak(Box::new(file)))])
    }

    #[test]
    fn typed_receiver_resolves_to_one_method() {
        let g = graph(
            "struct Q { h: H }\nstruct H;\nimpl H { fn pop(&self) {} }\nimpl Q { fn go(&self) { self.h.pop(); } }\nstruct Z;\nimpl Z { fn pop(&self) { loop {} } }",
        );
        let go = g.resolve_qualified("Q::go").unwrap();
        let callees: Vec<String> = g.nodes[go]
            .callees
            .iter()
            .map(|&i| g.nodes[i].qualified())
            .collect();
        assert_eq!(callees, vec!["H::pop".to_string()]);
    }

    #[test]
    fn unknown_receiver_fans_out_to_all_same_name_methods() {
        let g =
            graph("impl A { fn m(&self) {} }\nimpl B { fn m(&self) {} }\nfn f(x: &X) { x.m(); }");
        let f = g.resolve_qualified("f").unwrap();
        assert_eq!(g.nodes[f].callees.len(), 2);
    }

    #[test]
    fn qualified_and_free_calls_resolve() {
        let g = graph(
            "fn helper() {}\nimpl T { fn new() -> T { T } fn run(&self) { helper(); T::new(); } }",
        );
        let run = g.resolve_qualified("T::run").unwrap();
        let callees: Vec<String> = g.nodes[run]
            .callees
            .iter()
            .map(|&i| g.nodes[i].qualified())
            .collect();
        assert_eq!(callees, vec!["helper".to_string(), "T::new".to_string()]);
    }

    #[test]
    fn let_annotations_pin_receiver_types() {
        let g = graph(
            "impl R { fn tick(&self) {} }\nimpl S { fn tick(&self) {} }\nfn f() { let r: R = make(); r.tick(); }",
        );
        let f = g.resolve_qualified("f").unwrap();
        let callees: Vec<String> = g.nodes[f]
            .callees
            .iter()
            .map(|&i| g.nodes[i].qualified())
            .collect();
        assert_eq!(callees, vec!["R::tick".to_string()]);
    }
}
