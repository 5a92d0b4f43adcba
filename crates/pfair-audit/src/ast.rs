//! The abstract syntax tree produced by [`crate::parser`].
//!
//! The tree is deliberately *analysis-shaped* rather than
//! fidelity-shaped: it keeps exactly the structure the audit passes
//! consume — item nesting, function signatures, struct field types,
//! and expressions with resolved operator precedence — and collapses
//! what they do not (patterns beyond simple binders, lifetimes,
//! generic arguments, attribute bodies, macro arguments, and the items
//! no pass reads). Every node carries the 1-based
//! source line of its first token so findings and `audit: allow`
//! annotations line up with the original file.

/// One parsed source file.
#[derive(Debug, Default)]
pub struct SourceFile {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// Any item, at any nesting depth.
#[derive(Debug)]
pub struct Item {
    /// 1-based line of the item's first token (attributes excluded).
    pub line: u32,
    /// True when the item (or an enclosing item) is test-only:
    /// `#[test]`, `#[bench]`, or `#[cfg(test)]`/`#[cfg(...)bench...]`.
    pub in_test: bool,
    /// The item's payload.
    pub kind: ItemKind,
}

/// Item payloads, as fine-grained as the passes need.
#[derive(Debug)]
pub enum ItemKind {
    /// A free function, method, or trait default method.
    Fn(FnItem),
    /// `impl Type { .. }` or `impl Trait for Type { .. }`.
    Impl {
        /// Head of the self type (`Engine` in `impl<P> Engine<P>`).
        type_name: String,
        /// Associated items (functions, consts).
        items: Vec<Item>,
    },
    /// `mod name;` or `mod name { .. }`.
    Mod {
        /// Inline body, `None` for out-of-line modules.
        items: Option<Vec<Item>>,
    },
    /// `struct Name { .. }` / tuple / unit struct, or a `union`.
    Struct {
        /// Type name.
        name: String,
        /// Named fields with their types (empty for tuple/unit forms).
        fields: Vec<(String, TypeRef)>,
    },
    /// `trait Name { .. }` with its associated items.
    Trait {
        /// Trait name.
        name: String,
        /// Associated items; default methods carry bodies.
        items: Vec<Item>,
    },
    /// `const NAME: Ty = expr;` or `static NAME: Ty = expr;`.
    Const {
        /// Constant name.
        name: String,
        /// Declared type.
        ty: TypeRef,
        /// Initializer, when parseable.
        value: Option<Expr>,
    },
    /// An item no pass reads, skipped structurally: `use`, `enum`,
    /// `type`, a macro definition or invocation, `extern crate`,
    /// `extern "C" { .. }`.
    Other,
}

/// A function item: signature plus (optionally) a body.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Non-`self` parameters.
    pub params: Vec<Param>,
    /// Declared return type, `None` for `()`.
    pub ret: Option<TypeRef>,
    /// Body block; `None` for trait method declarations.
    pub body: Option<Block>,
}

/// One function parameter.
#[derive(Debug)]
pub struct Param {
    /// Binder name when the pattern is a simple (possibly `mut`)
    /// identifier; `None` for destructuring patterns and `_`.
    pub name: Option<String>,
    /// Declared type.
    pub ty: TypeRef,
}

/// A type reference, reduced to what resolution and the interval
/// analysis consume: the head path segment.
#[derive(Debug, Clone, Default)]
pub struct TypeRef {
    /// Last segment of the main path with generics stripped
    /// (`Vec` in `std::vec::Vec<TaskId>`, `i64` in `&mut i64`, `[]`
    /// for a slice or array). Empty when the type is a tuple or
    /// inferred.
    pub head: String,
}

/// Bit width and signedness of a primitive integer type name;
/// `usize`/`isize` are modeled as 64-bit (the supported targets).
pub fn int_type_bits(name: &str) -> Option<(u32, bool)> {
    match name {
        "i8" => Some((8, true)),
        "i16" => Some((16, true)),
        "i32" => Some((32, true)),
        "i64" | "isize" => Some((64, true)),
        "i128" => Some((128, true)),
        "u8" => Some((8, false)),
        "u16" => Some((16, false)),
        "u32" => Some((32, false)),
        "u64" | "usize" => Some((64, false)),
        "u128" => Some((128, false)),
        _ => None,
    }
}

/// A `{ .. }` block: statements plus an optional tail expression.
#[derive(Debug, Default)]
pub struct Block {
    /// 1-based line of the opening brace.
    pub line: u32,
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let pat (: ty)? (= init)? (else block)?;`
    Let {
        /// Binder name for simple identifier patterns.
        name: Option<String>,
        /// Declared type annotation.
        ty: Option<TypeRef>,
        /// Initializer.
        init: Option<Expr>,
        /// `let .. else` diverging block.
        else_block: Option<Block>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// An expression statement (with or without trailing `;`).
    Expr(Expr),
    /// A nested item.
    Item(Item),
}

/// An expression with its source line.
#[derive(Debug)]
pub struct Expr {
    /// 1-based line of the expression's first token.
    pub line: u32,
    /// The expression's payload.
    pub kind: ExprKind,
}

impl Expr {
    /// Shorthand constructor.
    pub fn new(line: u32, kind: ExprKind) -> Expr {
        Expr { line, kind }
    }
}

/// Binary operators (compound assignment is represented by
/// [`ExprKind::Assign`] with an operator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `==`, `!=`, `<`, `<=`, `>`, `>=`
    Cmp,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `*`
    Deref,
    /// `&` / `&mut`
    Ref,
}

/// Expression payloads.
#[derive(Debug)]
pub enum ExprKind {
    /// Integer literal; `value` is `None` when it exceeds `i128`.
    Int {
        /// Parsed value.
        value: Option<i128>,
        /// Explicit type suffix.
        suffix: Option<String>,
    },
    /// A path: `a::b::c` (turbofish generics dropped). Single-segment
    /// paths are local variables or type names.
    Path(Vec<String>),
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs = rhs` or `lhs op= rhs`.
    Assign {
        /// Compound operator, `None` for plain `=`.
        op: Option<BinOp>,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// `expr as Ty`.
    Cast {
        /// Source expression.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeRef,
    },
    /// `callee(args)`.
    Call {
        /// Called expression (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `recv.name(args)`.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `recv.name` (also tuple indexing `recv.0`).
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name or tuple index.
        name: String,
    },
    /// `recv[index]`.
    Index {
        /// Indexed expression.
        recv: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `expr?`.
    Try(Box<Expr>),
    /// `name!(..)` / `name![..]` / `name!{..}`; its arguments are
    /// skipped.
    Macro {
        /// Macro name (last path segment).
        name: String,
    },
    /// `Path { field: expr, .. }`.
    StructLit {
        /// The struct path.
        path: Vec<String>,
        /// Field initializers (shorthand fields carry `None`).
        fields: Vec<(String, Option<Expr>)>,
        /// `..base` functional-update expression.
        rest: Option<Box<Expr>>,
    },
    /// `(a, b, ..)` — also plain parenthesization (one element).
    Tuple(Vec<Expr>),
    /// `[a, b, ..]`.
    Array(Vec<Expr>),
    /// `[elem; len]`.
    Repeat {
        /// Repeated element.
        elem: Box<Expr>,
        /// Length expression.
        len: Box<Expr>,
    },
    /// A block expression (incl. `unsafe` blocks).
    Block(Block),
    /// `if cond { .. } else ..`; `if let` keeps the scrutinee as
    /// `cond` with the pattern dropped.
    If {
        /// Condition or `if let` scrutinee.
        cond: Box<Expr>,
        /// Then-branch.
        then: Block,
        /// Else-branch (a `Block` or nested `If`).
        els: Option<Box<Expr>>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// Arms in order.
        arms: Vec<Arm>,
    },
    /// `while cond { .. }`; `while let` keeps the scrutinee.
    While {
        /// Condition or scrutinee.
        cond: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `loop { .. }`.
    Loop(Block),
    /// `for pat in iter { .. }`.
    For {
        /// Binder name for simple identifier patterns.
        pat: Option<String>,
        /// Iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `|params| body` / `move |params| body`.
    Closure {
        /// Closure body.
        body: Box<Expr>,
    },
    /// `return expr?`.
    Return(Option<Box<Expr>>),
    /// `break expr?`.
    Break(Option<Box<Expr>>),
    /// `lo..hi`, `lo..=hi`, with either side optional.
    Range {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// An expression no pass looks into: a literal other than an
    /// integer, `continue`, or a sub-tree the parser could not shape.
    /// The last is kept instead of failing the file, so one exotic
    /// expression does not hide a whole function from the passes.
    Unknown,
}

/// One match arm.
#[derive(Debug)]
pub struct Arm {
    /// Identifiers appearing in the arm's pattern (binders and path
    /// segments alike — the passes only probe for type names).
    pub pat_idents: Vec<String>,
    /// `if` guard.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// Parses the retained digit text of an integer literal (`0x` / `0o` /
/// `0b` prefixes, `_` separators) into its value.
pub fn parse_int_text(text: &str) -> Option<i128> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(hex) = clean.strip_prefix("0x") {
        (hex, 16)
    } else if let Some(oct) = clean.strip_prefix("0o") {
        (oct, 8)
    } else if let Some(bin) = clean.strip_prefix("0b") {
        (bin, 2)
    } else {
        (clean.as_str(), 10)
    };
    // u128 first: literals like `u64::MAX`'s expansion or `1 << 127`
    // masks exceed i128 but still fit unsigned.
    u128::from_str_radix(digits, radix)
        .ok()
        .and_then(|v| i128::try_from(v).ok())
}

/// Walks every expression in a block, depth-first, invoking `f` on
/// each. Closures and nested items' bodies are included.
pub fn walk_block(block: &Block, f: &mut impl FnMut(&Expr)) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Let {
                init, else_block, ..
            } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = else_block {
                    walk_block(b, f);
                }
            }
            Stmt::Expr(e) => walk_expr(e, f),
            Stmt::Item(item) => {
                walk_items(std::slice::from_ref(item), &mut |it, _| match &it.kind {
                    ItemKind::Fn(FnItem { body: Some(b), .. }) => walk_block(b, f),
                    ItemKind::Const { value: Some(e), .. } => walk_expr(e, f),
                    _ => {}
                });
            }
        }
    }
}

/// Where [`walk_items`] found an item.
#[derive(Clone, Copy, Debug, Default)]
pub struct ItemCtx<'a> {
    /// The enclosing `impl`'s self type or `trait`'s name, for
    /// associated items.
    pub owner: Option<&'a str>,
    /// True when the item or an enclosing one is test-only.
    pub in_test: bool,
}

/// Visits every item depth-first in source order, parents before
/// children, descending into `impl`, `trait` and inline `mod` bodies
/// (not into function bodies).
pub fn walk_items<'a>(items: &'a [Item], f: &mut impl FnMut(&'a Item, ItemCtx<'a>)) {
    walk_items_in(items, ItemCtx::default(), f);
}

fn walk_items_in<'a>(
    items: &'a [Item],
    outer: ItemCtx<'a>,
    f: &mut impl FnMut(&'a Item, ItemCtx<'a>),
) {
    for item in items {
        let ctx = ItemCtx {
            in_test: outer.in_test || item.in_test,
            ..outer
        };
        f(item, ctx);
        let (owner, inner) = match &item.kind {
            ItemKind::Impl {
                type_name, items, ..
            } => (Some(type_name.as_str()), items),
            ItemKind::Trait { name, items } => (Some(name.as_str()), items),
            ItemKind::Mod {
                items: Some(items), ..
            } => (ctx.owner, items),
            _ => continue,
        };
        walk_items_in(inner, ItemCtx { owner, ..ctx }, f);
    }
}

/// Depth-first expression walk; `f` sees parents before children.
pub fn walk_expr(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } | ExprKind::Try(expr) => {
            walk_expr(expr, f);
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        ExprKind::Call { callee, args } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Field { recv, .. } => walk_expr(recv, f),
        ExprKind::Index { recv, index } => {
            walk_expr(recv, f);
            walk_expr(index, f);
        }
        ExprKind::StructLit { fields, rest, .. } => {
            for (_, v) in fields {
                if let Some(v) = v {
                    walk_expr(v, f);
                }
            }
            if let Some(r) = rest {
                walk_expr(r, f);
            }
        }
        ExprKind::Tuple(items) | ExprKind::Array(items) => {
            for it in items {
                walk_expr(it, f);
            }
        }
        ExprKind::Repeat { elem, len } => {
            walk_expr(elem, f);
            walk_expr(len, f);
        }
        ExprKind::Block(b) | ExprKind::Loop(b) => walk_block(b, f),
        ExprKind::If { cond, then, els } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        ExprKind::Match { scrutinee, arms } => {
            walk_expr(scrutinee, f);
            for arm in arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, f);
                }
                walk_expr(&arm.body, f);
            }
        }
        ExprKind::While { cond, body } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        ExprKind::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        ExprKind::Closure { body, .. } => walk_expr(body, f),
        ExprKind::Return(Some(e)) | ExprKind::Break(Some(e)) => walk_expr(e, f),
        ExprKind::Range { lo, hi } => {
            if let Some(l) = lo {
                walk_expr(l, f);
            }
            if let Some(h) = hi {
                walk_expr(h, f);
            }
        }
        ExprKind::Int { .. }
        | ExprKind::Path(_)
        | ExprKind::Macro { .. }
        | ExprKind::Return(None)
        | ExprKind::Break(None)
        | ExprKind::Unknown => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::LexFile;
    use crate::parser::parse_file;

    #[test]
    fn walk_items_reports_owner_and_test_state() {
        let lex = LexFile::lex(
            "fn free() {}\nimpl A { fn m(&self) {} }\ntrait T { fn d(&self) {} }\n#[cfg(test)]\nmod tests { fn t() {} impl B { fn n() {} } }",
        );
        let (file, errs) = parse_file(&lex);
        assert!(errs.is_empty(), "{errs:?}");
        let mut fns = Vec::new();
        walk_items(&file.items, &mut |item, ctx| {
            if let ItemKind::Fn(f) = &item.kind {
                fns.push((f.name.as_str(), ctx.owner, ctx.in_test));
            }
        });
        assert_eq!(
            fns,
            [
                ("free", None, false),
                ("m", Some("A"), false),
                ("d", Some("T"), false),
                ("t", None, true),
                ("n", Some("B"), true),
            ]
        );
    }
}
