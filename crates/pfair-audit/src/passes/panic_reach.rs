//! Pass 1: panic-reachability over the workspace call graph.
//!
//! The scheduling core's entry points (configured as
//! `entry-points = [..]` under `[lint.panic-reach]` in `audit.toml`)
//! must not *transitively* reach a panic source: a panic-family macro,
//! `.unwrap()`/`.expect()`, an unchecked `[..]` index, or a
//! division/remainder whose divisor is not provably nonzero. The call
//! graph over-approximates edges (see [`crate::callgraph`]), so a
//! clean result is a proof relative to the modeled sources, while each
//! reported site may be a false positive — survivors are discharged
//! with a typed `// audit: allow(panic-reach, <reason>)` at the site,
//! or, for an `unwrap`/`expect`/`panic!`, by the reasoned
//! `#[expect(clippy::…)]` clippy already asks for there.
//!
//! Soundness boundary: macro-generated code, trait-object dispatch to
//! methods defined outside the workspace, and panics inside the
//! standard library (beyond the modeled sources) are not seen.
//! Debug-only `debug_assert!` family macros are intentionally *not*
//! sources: the release gate is what runs unattended. Arithmetic
//! overflow panics (debug builds) are covered by the overflow pass.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::ast::*;
use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lints::{CLIPPY_METHODS, CLIPPY_PANIC, PANIC_REACH};
use crate::passes::overflow::ConstEnv;
use crate::passes::Workspace;
use crate::Finding;

/// Macros whose expansion unconditionally panics when reached.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Methods that panic on the error/none variant.
const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Resolution and verdict for one configured entry point.
#[derive(Clone, Debug)]
pub struct EntryStatus {
    /// The spec as written in `audit.toml`.
    pub spec: String,
    /// True when the spec resolved to at least one in-tree function.
    pub resolved: bool,
    /// True when no un-discharged panic source is reachable. (Allows
    /// are discharged by the central driver, so this field reflects
    /// the *raw* analysis; the report layer recomputes it after
    /// discharge.)
    pub panic_free: bool,
    /// Reachable functions, by qualified name — the proof obligation's
    /// extent, surfaced in the JSON report.
    pub reachable: Vec<String>,
}

/// One reachable panic source behind a finding, and the clippy lint
/// that flags it too: an `#[expect]` of that lint with a reason
/// discharges the finding when it covers every source on the line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PanicToken {
    /// File of the source site.
    pub path: String,
    /// Line of the `panic-reach` finding (where its expression starts).
    pub line: u32,
    /// [`CLIPPY_METHODS`] for `unwrap` / `expect`, [`CLIPPY_PANIC`] for
    /// `panic!`; `None` for the sources clippy does not flag (asserts,
    /// indexing, division).
    pub clippy: Option<&'static str>,
}

/// The pass's full output.
#[derive(Debug, Default)]
pub struct PanicReachReport {
    /// One finding per reachable panic source site.
    pub findings: Vec<Finding>,
    /// Per-entry resolution status, in config order.
    pub entry_points: Vec<EntryStatus>,
    /// Every source behind a finding, for `discharge_file`.
    pub tokens: Vec<PanicToken>,
}

/// Runs the pass. Entry points come from the `panic-reach` lint scope;
/// with none configured the pass is a no-op. `consts` proves divisors
/// nonzero.
pub fn run(ws: &Workspace, cfg: &Config, consts: &ConstEnv) -> PanicReachReport {
    let mut report = PanicReachReport::default();
    let specs = match cfg.lints.get(PANIC_REACH) {
        Some(scope) if !scope.entry_points.is_empty() => scope.entry_points.clone(),
        _ => return report,
    };
    let graph = CallGraph::build(&ws.ast_refs());
    // `(owner, method)` pairs defined in-tree: `self.expect(..)` on a
    // type with its own `expect` is that method, not `Option::expect`.
    let own_methods: BTreeSet<(&str, &str)> = graph
        .nodes
        .iter()
        .filter_map(|n| Some((n.owner?, n.func.name.as_str())))
        .collect();

    // Panic sources per node, computed once.
    let sources: Vec<Vec<(u32, Option<&'static str>, String)>> = graph
        .nodes
        .iter()
        .map(|node| {
            node.func
                .body
                .as_ref()
                .map(|b| panic_sites(b, consts, node.owner, &own_methods))
                .unwrap_or_default()
        })
        .collect();

    // Per-entry BFS with a parent map for witness chains; findings are
    // deduplicated per source site across entries (the first entry to
    // reach a site names it).
    let mut reported: BTreeSet<(usize, u32)> = BTreeSet::new();
    for spec in specs {
        let roots = resolve_spec(&graph, &spec);
        if roots.is_empty() {
            report.findings.push(Finding {
                path: "audit.toml".to_string(),
                line: 0,
                lint: PANIC_REACH.to_string(),
                message: format!("entry point `{spec}` does not resolve to any workspace function"),
            });
            report.entry_points.push(EntryStatus {
                spec,
                resolved: false,
                panic_free: false,
                reachable: Vec::new(),
            });
            continue;
        }
        let (reach, parent) = bfs(&graph, &roots);
        let mut panic_free = true;
        for &idx in &reach {
            if sources[idx].is_empty() {
                continue;
            }
            panic_free = false;
            let chain = witness_chain(&graph, &parent, idx);
            for (line, clippy, desc) in &sources[idx] {
                // Every source links (one finding can stand for two
                // calls of one chain); findings are one per line.
                report.tokens.push(PanicToken {
                    path: graph.nodes[idx].path.to_string(),
                    line: *line,
                    clippy: *clippy,
                });
                if !reported.insert((idx, *line)) {
                    continue;
                }
                report.findings.push(Finding {
                    path: graph.nodes[idx].path.to_string(),
                    line: *line,
                    lint: PANIC_REACH.to_string(),
                    message: format!("{desc} reachable from entry `{spec}` via {chain}"),
                });
            }
        }
        let mut reachable: Vec<String> =
            reach.iter().map(|&i| graph.nodes[i].qualified()).collect();
        reachable.sort();
        reachable.dedup();
        report.entry_points.push(EntryStatus {
            spec,
            resolved: true,
            panic_free,
            reachable,
        });
    }
    report.findings.sort();
    report.tokens.sort();
    report.tokens.dedup();
    report
}

/// `Type::*` expands to every method of `Type`; otherwise the spec is
/// a qualified or free-function name.
fn resolve_spec(graph: &CallGraph, spec: &str) -> Vec<usize> {
    if let Some(ty) = spec.strip_suffix("::*") {
        let mut v: Vec<usize> = graph
            .methods_of(ty)
            .into_iter()
            .filter(|&i| !graph.nodes[i].in_test)
            .collect();
        v.sort_unstable();
        return v;
    }
    graph
        .resolve_qualified(spec)
        .filter(|&i| !graph.nodes[i].in_test)
        .into_iter()
        .collect()
}

/// Breadth-first closure over callees, skipping test-only nodes;
/// returns the reached set and each node's BFS predecessor.
fn bfs(graph: &CallGraph, roots: &[usize]) -> (BTreeSet<usize>, BTreeMap<usize, usize>) {
    let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
    let mut parent = BTreeMap::new();
    let mut queue: VecDeque<usize> = roots.iter().copied().collect();
    while let Some(i) = queue.pop_front() {
        for &j in &graph.nodes[i].callees {
            if graph.nodes[j].in_test || !seen.insert(j) {
                continue;
            }
            parent.insert(j, i);
            queue.push_back(j);
        }
    }
    (seen, parent)
}

/// `entry -> a -> b` call chain ending at `idx`.
fn witness_chain(graph: &CallGraph, parent: &BTreeMap<usize, usize>, idx: usize) -> String {
    let mut names = vec![graph.nodes[idx].qualified()];
    let mut cur = idx;
    while let Some(&p) = parent.get(&cur) {
        names.push(graph.nodes[p].qualified());
        cur = p;
        if names.len() > 24 {
            names.push("..".to_string());
            break;
        }
    }
    names.reverse();
    names.join(" -> ")
}

/// All panic source sites in a function body, as `(line, clippy lint
/// that also flags it, description)`.
fn panic_sites(
    body: &Block,
    consts: &ConstEnv,
    self_ty: Option<&str>,
    own_methods: &BTreeSet<(&str, &str)>,
) -> Vec<(u32, Option<&'static str>, String)> {
    let mut out = Vec::new();
    walk_block(body, &mut |e| match &e.kind {
        ExprKind::Macro { name, .. } if PANIC_MACROS.contains(&name.as_str()) => {
            let clippy = (name == "panic").then_some(CLIPPY_PANIC);
            out.push((e.line, clippy, format!("`{name}!` macro")));
        }
        ExprKind::MethodCall { recv, name, .. } if PANIC_METHODS.contains(&name.as_str()) => {
            // `self.expect(..)` where the owning type defines its own
            // `expect` is that method (its body is analyzed on its
            // own), not the panicking `Option`/`Result` adapter.
            let shadowed = self_ty.is_some_and(|ty| {
                matches!(&recv.kind, ExprKind::Path(segs) if segs.as_slice() == ["self"])
                    && own_methods.contains(&(ty, name.as_str()))
            });
            if !shadowed {
                let clippy = matches!(name.as_str(), "unwrap" | "expect").then_some(CLIPPY_METHODS);
                out.push((e.line, clippy, format!("`.{name}()` call")));
            }
        }
        ExprKind::Index { .. } => {
            out.push((e.line, None, "unchecked `[..]` index".to_string()));
        }
        ExprKind::Binary {
            op: op @ (BinOp::Div | BinOp::Rem),
            rhs,
            ..
        } if !provably_nonzero(rhs, consts) => {
            let sym = if *op == BinOp::Div { "/" } else { "%" };
            out.push((
                e.line,
                None,
                format!("`{sym}` with unproven-nonzero divisor"),
            ));
        }
        ExprKind::Assign {
            op: Some(BinOp::Div | BinOp::Rem),
            rhs,
            ..
        } if !provably_nonzero(rhs, consts) => {
            out.push((
                e.line,
                None,
                "compound divide with unproven-nonzero divisor".to_string(),
            ));
        }
        _ => {}
    });
    out.sort();
    out.dedup();
    out
}

/// Conservative nonzero proof for a divisor expression.
fn provably_nonzero(e: &Expr, consts: &ConstEnv) -> bool {
    match &e.kind {
        ExprKind::Int { value, .. } => value.is_some_and(|v| v != 0),
        ExprKind::Path(segs) => segs
            .last()
            .and_then(|n| consts.get(n))
            .is_some_and(|(v, _)| *v != 0),
        ExprKind::Unary {
            op: UnOp::Neg,
            expr,
        } => provably_nonzero(expr, consts),
        ExprKind::Cast { expr, ty } => {
            // A nonzero value stays nonzero through a widening cast;
            // narrowing can truncate to zero, so require >= 64 bits.
            int_type_bits(&ty.head).is_some_and(|(bits, _)| bits >= 64)
                && provably_nonzero(expr, consts)
        }
        ExprKind::Tuple(items) if items.len() == 1 => provably_nonzero(&items[0], consts),
        // `x.max(k)` with k nonzero-positive, the idiomatic guard.
        ExprKind::MethodCall { name, args, .. } if name == "max" && args.len() == 1 => {
            positive(&args[0], consts)
        }
        // `1 << k`: nonzero for literal in-range shifts; the overflow
        // pass owns the general range question.
        ExprKind::Binary {
            op: BinOp::Shl,
            lhs,
            rhs,
        } => matches!(
            (&lhs.kind, &rhs.kind),
            (ExprKind::Int { value: Some(a), .. }, ExprKind::Int { value: Some(b), .. })
                if *a != 0 && (0..127).contains(b)
        ),
        _ => false,
    }
}

fn positive(e: &Expr, consts: &ConstEnv) -> bool {
    match &e.kind {
        ExprKind::Int { value, .. } => value.is_some_and(|v| v > 0),
        ExprKind::Path(segs) => segs
            .last()
            .and_then(|n| consts.get(n))
            .is_some_and(|(v, _)| *v > 0),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{analyze_source, overflow::collect_consts};

    fn ws(src: &str) -> Workspace {
        Workspace {
            files: vec![analyze_source("src/lib.rs", src)],
        }
    }

    fn run(ws: &Workspace, cfg: &Config) -> PanicReachReport {
        super::run(ws, cfg, &collect_consts(ws))
    }

    fn cfg(entries: &[&str]) -> Config {
        let mut cfg = Config::default();
        let scope = cfg.lints.entry(PANIC_REACH.to_string()).or_default();
        scope.entry_points = entries
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        cfg
    }

    #[test]
    fn transitive_unwrap_is_reported_with_a_chain() {
        let src = "
pub struct Engine;
impl Engine {
    pub fn run(&self) { helper(); }
}
fn helper() { deep(); }
fn deep(x: Option<u32>) { x.unwrap(); }
";
        let report = run(&ws(src), &cfg(&["Engine::run"]));
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert!(f.message.contains("`.unwrap()`"), "{}", f.message);
        assert!(
            f.message.contains("Engine::run -> helper -> deep"),
            "{}",
            f.message
        );
        assert!(!report.entry_points[0].panic_free);
    }

    #[test]
    fn panic_free_entry_is_proven() {
        let src = "
pub struct Engine;
impl Engine {
    pub fn run(&self) -> Option<u32> { helper() }
}
fn helper() -> Option<u32> { Some(5 / 5) }
fn unrelated() { panic!(\"not reachable\"); }
";
        let report = run(&ws(src), &cfg(&["Engine::run"]));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.entry_points[0].panic_free);
        assert!(report.entry_points[0]
            .reachable
            .contains(&"helper".to_string()));
    }

    #[test]
    fn wildcard_and_unresolved_entries() {
        let src = "
pub struct Q;
impl Q {
    pub fn push(&self) { let _ = self.items[0]; }
    pub fn pop(&self) {}
}
";
        let report = run(&ws(src), &cfg(&["Q::*", "Ghost::run"]));
        assert_eq!(report.entry_points.len(), 2);
        assert!(report.entry_points[0].resolved);
        assert!(!report.entry_points[0].panic_free);
        assert!(!report.entry_points[1].resolved);
        assert!(report
            .findings
            .iter()
            .any(|f| f.message.contains("does not resolve")));
        assert!(report
            .findings
            .iter()
            .any(|f| f.message.contains("unchecked `[..]` index")));
    }

    #[test]
    fn nonzero_divisors_are_proven_safe() {
        let src = "
const QUANTUM: u64 = 512;
pub fn entry(t: u64, n: u64) -> u64 {
    let a = t / QUANTUM;
    let b = t % 8;
    let c = t / n.max(1);
    a + b + c + t / n
}
";
        let report = run(&ws(src), &cfg(&["entry"]));
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].message.contains("`/`"));
    }

    /// The shared constant table resolves names declared later, `/`,
    /// `>>` and `T::MAX`, none of which a single in-order pass saw.
    #[test]
    fn derived_and_forward_constants_prove_divisors() {
        let src = "
pub fn entry(t: u64) -> u64 {
    t / HALF + t % LANES + t / TOP
}
const HALF: u64 = FULL / 2;
const FULL: u64 = 1 << 10;
const LANES: u64 = u64::MAX >> 60;
const TOP: u64 = HALF - 512;
";
        let report = run(&ws(src), &cfg(&["entry"]));
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].message.contains("`/`"));
    }

    #[test]
    fn own_expect_method_is_not_a_panic_source() {
        let src = "
pub struct P;
impl P {
    pub fn parse(&mut self) -> Result<(), E> { self.expect(b'[') }
    fn expect(&mut self, b: u8) -> Result<(), E> { Ok(()) }
}
";
        let report = run(&ws(src), &cfg(&["P::parse"]));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.entry_points[0].panic_free);
    }

    #[test]
    fn test_code_is_not_traversed() {
        let src = "
pub fn entry() { shared(); }
fn shared() {}
#[cfg(test)]
mod tests {
    fn t() { super::shared(); panic!(\"test only\"); }
}
";
        let report = run(&ws(src), &cfg(&["entry"]));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.entry_points[0].panic_free);
    }
}
