//! A tolerant recursive-descent parser over [`crate::lexer`] tokens.
//!
//! The parser covers the Rust subset the workspace actually uses:
//! items (functions, impls, traits, modules, structs, consts; the rest
//! skipped as [`ItemKind::Other`]), function signatures, and full
//! expressions with operator precedence. It is
//! *tolerant*: an unparseable construct degrades to
//! [`ExprKind::Unknown`] or [`ItemKind::Other`] and is recorded as a
//! [`ParseError`], never a hard failure — one exotic expression must
//! not hide a whole file from the audit passes.
//!
//! The lexer keeps most punctuation single-character (only `->`, `=>`,
//! `::`, `..`, `..=` are joined); the parser re-joins the rest (`==`,
//! `<<`, `+=`, `&&`, …) by peeking at adjacent tokens, which also
//! sidesteps the classic `>>`-closes-two-generics problem.

use crate::ast::*;
use crate::lexer::{LexFile, Tok, TokKind};

/// A recovered parse error with its source line.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// Parses a lexed file into a [`SourceFile`], accumulating recovered
/// errors instead of failing.
pub fn parse_file(lex: &LexFile) -> (SourceFile, Vec<ParseError>) {
    let mut p = Parser {
        toks: &lex.toks,
        in_test: &lex.in_test,
        pos: 0,
        errors: Vec::new(),
    };
    let items = p.parse_items_until(None);
    (SourceFile { items }, p.errors)
}

struct Parser<'a> {
    toks: &'a [Tok],
    in_test: &'a [bool],
    pos: usize,
    errors: Vec<ParseError>,
}

/// Binding powers for the Pratt loop, loosest first.
const PREC_ASSIGN: u8 = 1;
const PREC_RANGE: u8 = 2;
const PREC_OR: u8 = 3;
const PREC_AND: u8 = 4;
const PREC_CMP: u8 = 5;
const PREC_BITOR: u8 = 6;
const PREC_BITXOR: u8 = 7;
const PREC_BITAND: u8 = 8;
const PREC_SHIFT: u8 = 9;
const PREC_ADD: u8 = 10;
const PREC_MUL: u8 = 11;

/// An infix operator recognized by peeking: its meaning, precedence,
/// and how many raw tokens it spans.
enum Infix {
    Bin(BinOp, u8, usize),
    CompoundAssign(BinOp, usize),
    Assign,
    Range { inclusive: bool },
}

impl<'a> Parser<'a> {
    // ----- token plumbing -------------------------------------------------

    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + off)
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn line(&self) -> u32 {
        self.peek().map_or(0, |t| t.line)
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek()
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }

    fn punct_at(&self, off: usize, s: &str) -> bool {
        self.peek_at(off)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek()
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, s: &str, ctx: &str) -> bool {
        if self.eat_punct(s) {
            true
        } else {
            self.error(format!("expected `{s}` {ctx}"));
            false
        }
    }

    fn error(&mut self, message: String) {
        self.errors.push(ParseError {
            line: self.line(),
            message,
        });
    }

    fn cur_in_test(&self) -> bool {
        self.in_test.get(self.pos).copied().unwrap_or(false)
    }

    /// Takes any identifier, or reports `ctx` and returns a placeholder.
    fn ident(&mut self, ctx: &str) -> String {
        match self.peek() {
            Some(t) if t.kind == TokKind::Ident => {
                self.pos += 1;
                t.text.clone()
            }
            _ => {
                self.error(format!("expected identifier {ctx}"));
                String::new()
            }
        }
    }

    /// Skips tokens until the matching close delimiter of `open`,
    /// assuming the opener has already been consumed.
    fn skip_balanced(&mut self, open: &str) {
        if !matches!(open, "(" | "[" | "{") {
            return;
        }
        let mut depth = 1u32;
        while let Some(t) = self.bump() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            return;
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Skips attributes (`#[..]` / `#![..]`) before an item/statement.
    fn skip_attrs(&mut self) {
        loop {
            if self.at_punct("#")
                && (self.punct_at(1, "[") || (self.punct_at(1, "!") && self.punct_at(2, "[")))
            {
                self.bump(); // #
                self.eat_punct("!");
                self.bump(); // [
                self.skip_balanced("[");
            } else {
                return;
            }
        }
    }

    /// Skips `<...>` generics after an item name or in a path. Assumes
    /// the `<` has NOT been consumed; no-op when absent. Uses angle
    /// depth with bail-outs on delimiters that cannot appear in
    /// generics at depth 0.
    fn skip_generics(&mut self) {
        if !self.at_punct("<") {
            return;
        }
        self.bump();
        let mut depth = 1i32;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            self.bump();
                            return;
                        }
                    }
                    "(" | "[" | "{" => {
                        let open = t.text.clone();
                        self.bump();
                        self.skip_balanced(&open);
                        continue;
                    }
                    ";" | "}" => return, // runaway; bail
                    "-" if self.punct_at(1, ">") => {
                        // `fn(..) -> T` inside generics: consume both.
                        self.bump();
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Skips a `where` clause up to (not including) `{` or `;`.
    fn skip_where(&mut self) {
        if !self.at_ident("where") {
            return;
        }
        self.bump();
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" | ";" => return,
                    "(" | "[" => {
                        let open = t.text.clone();
                        self.bump();
                        self.skip_balanced(&open);
                        continue;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    // ----- items ----------------------------------------------------------

    /// Parses items until `closer` (e.g. `}`) or end of input.
    fn parse_items_until(&mut self, closer: Option<&str>) -> Vec<Item> {
        let mut items = Vec::new();
        loop {
            self.skip_attrs();
            match (closer, self.peek()) {
                (_, None) => return items,
                (Some(c), Some(t)) if t.kind == TokKind::Punct && t.text == c => {
                    self.bump();
                    return items;
                }
                _ => {}
            }
            let before = self.pos;
            let item = self.parse_item();
            items.push(item);
            if self.pos == before {
                // Always make progress.
                self.bump();
            }
        }
    }

    fn parse_item(&mut self) -> Item {
        let line = self.line();
        let in_test = self.cur_in_test();
        // Leading visibility / qualifiers.
        if self.at_ident("pub") {
            self.bump();
            if self.at_punct("(") {
                self.bump();
                self.skip_balanced("(");
            }
        }
        while self.at_ident("const")
            && self.peek_at(1).is_some_and(|t| {
                t.text == "fn" || t.text == "unsafe" || t.text == "extern" || t.text == "async"
            })
            || self.at_ident("unsafe")
            || self.at_ident("async")
            || self.at_ident("default")
        {
            self.bump();
        }
        if self.at_ident("extern") && self.peek_at(1).is_some_and(|t| t.kind == TokKind::Str) {
            self.bump();
            self.bump();
            if self.at_punct("{") {
                self.bump();
                self.skip_balanced("{");
                return Item {
                    line,
                    in_test,
                    kind: ItemKind::Other,
                };
            }
        }

        let kind = match self.peek() {
            Some(t) if t.kind == TokKind::Ident => t.text.as_str(),
            _ => {
                self.error("expected item".to_string());
                self.recover_item();
                return Item {
                    line,
                    in_test,
                    kind: ItemKind::Other,
                };
            }
        };

        let kind = match kind {
            "fn" => ItemKind::Fn(self.parse_fn()),
            "impl" => self.parse_impl(),
            "mod" => self.parse_mod(),
            "struct" | "union" => self.parse_struct(),
            "trait" => self.parse_trait(),
            "const" | "static" => self.parse_const(),
            "enum" | "use" | "type" | "macro_rules" => self.skip_item(),
            "extern" => {
                // `extern crate name;`
                self.recover_item();
                ItemKind::Other
            }
            _ => {
                // A macro invocation item (`proptest! { .. }`) or
                // something we do not model.
                if self.peek_at(1).is_some_and(|t| t.text == "!")
                    || self.peek_at(1).is_some_and(|t| t.text == "::")
                {
                    self.skip_item()
                } else {
                    self.error(format!("unrecognized item starting with `{kind}`"));
                    self.recover_item();
                    ItemKind::Other
                }
            }
        };
        Item {
            line,
            in_test,
            kind,
        }
    }

    /// Skips to the end of an unparseable item: a top-level `;`, or the
    /// `}` closing the first brace-balanced block.
    fn recover_item(&mut self) {
        let mut depth = 0i32;
        let mut saw_brace = false;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" => {
                        depth += 1;
                        saw_brace = true;
                    }
                    "}" => {
                        if depth == 0 {
                            return; // closes our enclosing scope
                        }
                        depth -= 1;
                        if saw_brace && depth == 0 {
                            self.bump();
                            return;
                        }
                    }
                    ";" if depth == 0 => {
                        self.bump();
                        return;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Skips an item no pass reads: through the first `;` outside
    /// delimiters, or through a brace block and a `;` after it.
    fn skip_item(&mut self) -> ItemKind {
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct && t.text == "}" {
                break; // closes our enclosing scope
            }
            self.bump();
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text.as_str() {
                ";" => break,
                open @ ("(" | "[") => self.skip_balanced(open),
                "{" => {
                    self.skip_balanced("{");
                    self.eat_punct(";");
                    break;
                }
                _ => {}
            }
        }
        ItemKind::Other
    }

    fn parse_fn(&mut self) -> FnItem {
        self.bump(); // fn
        let name = self.ident("after `fn`");
        self.skip_generics();
        let mut params = Vec::new();
        if self.expect_punct("(", "to open parameter list") {
            self.parse_params(&mut params);
        }
        let ret = if self.at_punct("->") {
            self.bump();
            Some(self.parse_type())
        } else {
            None
        };
        self.skip_where();
        let body = if self.at_punct("{") {
            Some(self.parse_block())
        } else {
            self.eat_punct(";");
            None
        };
        FnItem {
            name,
            params,
            ret,
            body,
        }
    }

    fn parse_params(&mut self, params: &mut Vec<Param>) {
        // Leading self receiver: `self`, `&self`, `&mut self`,
        // `&'a self`, `mut self`, `self: Ty`.
        let save = self.pos;
        while self.at_punct("&")
            || self.peek().is_some_and(|t| t.kind == TokKind::Lifetime)
            || self.at_ident("mut")
        {
            self.bump();
        }
        if self.at_ident("self") {
            self.bump();
            if self.eat_punct(":") {
                self.parse_type();
            }
            self.eat_punct(",");
        } else {
            self.pos = save;
        }
        loop {
            if self.at_punct(")") {
                self.bump();
                return;
            }
            if self.peek().is_none() {
                return;
            }
            if self.at_punct("{") {
                // An unclosed parameter list ran into the body; bail so
                // recovery can resume at the block.
                self.error("unclosed parameter list".to_string());
                return;
            }
            self.skip_attrs();
            let name = self.parse_pattern_binder();
            if !self.expect_punct(":", "after parameter pattern") {
                // Recover to `,` or `)`.
                self.skip_to_list_sep();
                continue;
            }
            let ty = self.parse_type();
            params.push(Param { name, ty });
            if !self.eat_punct(",") && !self.at_punct(")") {
                self.error("expected `,` or `)` in parameter list".to_string());
                self.skip_to_list_sep();
            }
        }
    }

    /// Skips to the next top-level `,` (consumed) or `)` (left).
    fn skip_to_list_sep(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            return;
                        }
                        depth -= 1;
                    }
                    "," if depth == 0 => {
                        self.bump();
                        return;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Parses a pattern loosely, returning the binder name when it is a
    /// simple (possibly `ref`/`mut`) identifier. Stops before a
    /// top-level `:`, `=`, `;`, `,`, `)`, `=>`, `if`, or `in`.
    fn parse_pattern_binder(&mut self) -> Option<String> {
        let mut simple: Option<String> = None;
        let mut count = 0usize;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if depth == 0 {
                if t.kind == TokKind::Punct
                    && matches!(
                        t.text.as_str(),
                        ":" | "=" | ";" | "," | ")" | "]" | "=>" | "|"
                    )
                {
                    break;
                }
                if t.kind == TokKind::Ident && (t.text == "if" || t.text == "in") {
                    break;
                }
            }
            match (&t.kind, t.text.as_str()) {
                (TokKind::Punct, "(" | "[" | "{") => depth += 1,
                (TokKind::Punct, ")" | "]" | "}") => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                (TokKind::Ident, "ref" | "mut") => {}
                (TokKind::Ident, _) if depth == 0 => {
                    count += 1;
                    simple = Some(t.text.clone());
                }
                _ => {
                    count += 2; // any punctuation/literal makes it non-simple
                }
            }
            self.bump();
        }
        if count == 1 {
            simple.filter(|s| s != "_")
        } else {
            None
        }
    }

    fn parse_impl(&mut self) -> ItemKind {
        self.bump(); // impl
        self.skip_generics();
        let mut type_name = self.parse_type().head;
        if self.eat_ident("for") {
            type_name = self.parse_type().head;
        }
        self.skip_where();
        let items = if self.at_punct("{") {
            self.bump();
            self.parse_items_until(Some("}"))
        } else {
            self.eat_punct(";");
            Vec::new()
        };
        ItemKind::Impl { type_name, items }
    }

    fn parse_mod(&mut self) -> ItemKind {
        self.bump(); // mod
        self.ident("after `mod`");
        if self.eat_punct(";") {
            ItemKind::Mod { items: None }
        } else if self.at_punct("{") {
            self.bump();
            let items = self.parse_items_until(Some("}"));
            ItemKind::Mod { items: Some(items) }
        } else {
            self.error("expected `;` or `{` after module name".to_string());
            ItemKind::Mod { items: None }
        }
    }

    fn parse_struct(&mut self) -> ItemKind {
        self.bump(); // struct / union
        let name = self.ident("after `struct`");
        self.skip_generics();
        self.skip_where();
        let mut fields = Vec::new();
        if self.at_punct("{") {
            self.bump();
            loop {
                self.skip_attrs();
                if self.eat_punct("}") || self.peek().is_none() {
                    break;
                }
                if self.at_ident("pub") {
                    self.bump();
                    if self.at_punct("(") {
                        self.bump();
                        self.skip_balanced("(");
                    }
                }
                let fname = self.ident("as field name");
                if !self.expect_punct(":", "after field name") {
                    self.skip_to_list_sep();
                    continue;
                }
                let ty = self.parse_type();
                fields.push((fname, ty));
                if !self.eat_punct(",") && !self.at_punct("}") {
                    self.skip_to_list_sep();
                }
            }
        } else if self.at_punct("(") {
            self.bump();
            self.skip_balanced("(");
            self.skip_where();
            self.eat_punct(";");
        } else {
            self.eat_punct(";");
        }
        ItemKind::Struct { name, fields }
    }

    fn parse_trait(&mut self) -> ItemKind {
        self.bump(); // trait
        let name = self.ident("after `trait`");
        self.skip_generics();
        // Supertraits.
        if self.eat_punct(":") {
            while let Some(t) = self.peek() {
                if t.kind == TokKind::Punct && (t.text == "{" || t.text == ";") {
                    break;
                }
                if t.kind == TokKind::Ident && t.text == "where" {
                    break;
                }
                if t.kind == TokKind::Punct && t.text == "<" {
                    self.skip_generics();
                    continue;
                }
                self.bump();
            }
        }
        self.skip_where();
        let items = if self.at_punct("{") {
            self.bump();
            self.parse_items_until(Some("}"))
        } else {
            self.eat_punct(";");
            Vec::new()
        };
        ItemKind::Trait { name, items }
    }

    fn parse_const(&mut self) -> ItemKind {
        self.bump(); // const / static
        self.eat_ident("mut");
        let name = self.ident("after `const`");
        let ty = if self.eat_punct(":") {
            self.parse_type()
        } else {
            TypeRef::default()
        };
        let value = if self.eat_punct("=") {
            Some(self.parse_expr())
        } else {
            None
        };
        self.eat_punct(";");
        ItemKind::Const { name, ty, value }
    }

    // ----- types ----------------------------------------------------------

    /// Parses a type, reducing it to a [`TypeRef`]. Stops at tokens
    /// that cannot continue a type in the positions we parse them
    /// (`,`, `)`, `{`, `;`, `=`, `>`, `where`).
    fn parse_type(&mut self) -> TypeRef {
        let mut ty = TypeRef::default();
        // Reference / pointer prefix, stripped: the head is what the
        // passes resolve.
        loop {
            if self.at_punct("&") {
                self.bump();
                if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.bump();
                }
                self.eat_ident("mut");
                continue;
            }
            if self.at_punct("*") {
                self.bump();
                if !self.eat_ident("const") {
                    self.eat_ident("mut");
                }
                continue;
            }
            break;
        }
        match self.peek() {
            Some(t) if t.kind == TokKind::Punct && t.text == "(" => {
                // Tuple type or parenthesized type.
                self.bump();
                let mut heads = Vec::new();
                loop {
                    if self.eat_punct(")") || self.peek().is_none() {
                        break;
                    }
                    heads.push(self.parse_type().head);
                    if !self.eat_punct(",") && !self.at_punct(")") {
                        self.skip_to_list_sep();
                    }
                }
                if let [head] = heads.as_mut_slice() {
                    // `(T)` is just T.
                    ty.head = std::mem::take(head);
                }
                ty
            }
            Some(t) if t.kind == TokKind::Punct && t.text == "[" => {
                // Slice or array type.
                self.bump();
                self.parse_type();
                if self.eat_punct(";") {
                    // Length expression; skip to `]`.
                    let mut depth = 0i32;
                    while let Some(t) = self.peek() {
                        if t.kind == TokKind::Punct {
                            match t.text.as_str() {
                                "[" | "(" | "{" => depth += 1,
                                "]" if depth == 0 => break,
                                "]" | ")" | "}" => depth -= 1,
                                _ => {}
                            }
                        }
                        self.bump();
                    }
                }
                self.eat_punct("]");
                ty.head = "[]".to_string();
                ty
            }
            Some(t) if t.kind == TokKind::Punct && t.text == "<" => {
                // Qualified path `<T as Trait>::Assoc`.
                self.bump();
                let inner = self.parse_type();
                if self.eat_ident("as") {
                    self.parse_type();
                }
                self.eat_punct(">");
                while self.eat_punct("::") {
                    let seg = self.ident("in qualified path");
                    ty.head = seg;
                }
                if ty.head.is_empty() {
                    ty.head = inner.head;
                }
                ty
            }
            Some(t) if t.kind == TokKind::Ident => {
                match t.text.as_str() {
                    "dyn" | "impl" => {
                        self.bump();
                        let inner = self.parse_type();
                        // `impl Fn(..) -> T + Send`: fold bounds away.
                        while self.at_punct("+") {
                            self.bump();
                            if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                                self.bump();
                            } else {
                                self.parse_type();
                            }
                        }
                        return inner;
                    }
                    "fn" | "Fn" | "FnMut" | "FnOnce" => {
                        let head = t.text.clone();
                        self.bump();
                        if self.at_punct("(") {
                            self.bump();
                            self.skip_balanced("(");
                        }
                        if self.at_punct("->") {
                            self.bump();
                            self.parse_type();
                        }
                        ty.head = head;
                        return ty;
                    }
                    _ => {}
                }
                // A path type: `a::b::C<args>`.
                let mut head = t.text.clone();
                self.bump();
                loop {
                    if self.at_punct("<") {
                        self.skip_generics();
                        if self.eat_punct("::") {
                            head = self.ident("in type path");
                            continue;
                        }
                        break;
                    }
                    if self.eat_punct("::") {
                        if self.at_punct("<") {
                            // Turbofish in type position.
                            continue;
                        }
                        head = self.ident("in type path");
                        continue;
                    }
                    break;
                }
                ty.head = head;
                ty
            }
            Some(t) if t.kind == TokKind::Punct && t.text == "!" => {
                self.bump();
                ty.head = "!".to_string();
                ty
            }
            Some(t) if t.kind == TokKind::Punct && t.text == "_" => {
                self.bump();
                ty
            }
            _ => {
                // `_` lexes as an Ident; anything else here is exotic.
                if self.at_ident("_") {
                    self.bump();
                }
                ty
            }
        }
    }

    // ----- statements / blocks --------------------------------------------

    /// Parses a `{ .. }` block; the `{` has not been consumed.
    fn parse_block(&mut self) -> Block {
        let line = self.line();
        let mut block = Block {
            line,
            stmts: Vec::new(),
        };
        if !self.expect_punct("{", "to open block") {
            return block;
        }
        loop {
            self.skip_attrs();
            match self.peek() {
                None => return block,
                Some(t) if t.kind == TokKind::Punct && t.text == "}" => {
                    self.bump();
                    return block;
                }
                Some(t) if t.kind == TokKind::Punct && t.text == ";" => {
                    self.bump();
                    continue;
                }
                _ => {}
            }
            let before = self.pos;
            let stmt = self.parse_stmt();
            block.stmts.push(stmt);
            if self.pos == before {
                self.bump();
            }
        }
    }

    fn parse_stmt(&mut self) -> Stmt {
        if self.at_ident("let") {
            return self.parse_let();
        }
        // Item statements.
        if let Some(t) = self.peek() {
            if t.kind == TokKind::Ident {
                let is_item_kw = matches!(
                    t.text.as_str(),
                    "fn" | "struct"
                        | "enum"
                        | "impl"
                        | "trait"
                        | "mod"
                        | "use"
                        | "type"
                        | "macro_rules"
                ) || (t.text == "const"
                    && self.peek_at(1).is_some_and(|t2| {
                        t2.kind == TokKind::Ident
                            && t2.text != "fn"
                            && !matches!(t2.text.as_str(), "unsafe" | "extern" | "async")
                    })
                    && !self.punct_at(1, "{"))
                    || (t.text == "static"
                        && self.peek_at(1).is_some_and(|t2| t2.kind == TokKind::Ident));
                let pub_item = t.text == "pub";
                if is_item_kw || pub_item {
                    return Stmt::Item(self.parse_item());
                }
            }
        }
        let e = self.parse_expr();
        // Block-like statement expressions need no `;`; expression
        // statements do, but a missing one (tail expression) is fine.
        self.eat_punct(";");
        Stmt::Expr(e)
    }

    fn parse_let(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // let
        let name = self.parse_pattern_binder();
        let ty = if self.eat_punct(":") {
            Some(self.parse_type())
        } else {
            None
        };
        let init = if self.eat_punct("=") {
            Some(self.parse_expr())
        } else {
            None
        };
        let else_block = if self.at_ident("else") {
            self.bump();
            Some(self.parse_block())
        } else {
            None
        };
        self.eat_punct(";");
        Stmt::Let {
            name,
            ty,
            init,
            else_block,
            line,
        }
    }

    // ----- expressions ----------------------------------------------------

    /// Parses a full expression (struct literals allowed).
    pub fn parse_expr(&mut self) -> Expr {
        self.parse_expr_bp(0, true)
    }

    /// Parses an expression where a `{` terminates it rather than
    /// opening a struct literal (if/while/match/for headers).
    fn parse_expr_no_struct(&mut self) -> Expr {
        self.parse_expr_bp(0, false)
    }

    /// Classifies the infix operator at the current position, if any.
    fn peek_infix(&self) -> Option<Infix> {
        let t = self.peek()?;
        if t.kind != TokKind::Punct {
            return None;
        }
        let eq1 = self.punct_at(1, "=");
        Some(match t.text.as_str() {
            "=" if eq1 => Infix::Bin(BinOp::Cmp, PREC_CMP, 2),
            "=" => Infix::Assign,
            "!" if eq1 => Infix::Bin(BinOp::Cmp, PREC_CMP, 2),
            "<" => {
                if self.punct_at(1, "<") {
                    if self.punct_at(2, "=") {
                        Infix::CompoundAssign(BinOp::Shl, 3)
                    } else {
                        Infix::Bin(BinOp::Shl, PREC_SHIFT, 2)
                    }
                } else if eq1 {
                    Infix::Bin(BinOp::Cmp, PREC_CMP, 2)
                } else {
                    Infix::Bin(BinOp::Cmp, PREC_CMP, 1)
                }
            }
            ">" => {
                if self.punct_at(1, ">") {
                    if self.punct_at(2, "=") {
                        Infix::CompoundAssign(BinOp::Shr, 3)
                    } else {
                        Infix::Bin(BinOp::Shr, PREC_SHIFT, 2)
                    }
                } else if eq1 {
                    Infix::Bin(BinOp::Cmp, PREC_CMP, 2)
                } else {
                    Infix::Bin(BinOp::Cmp, PREC_CMP, 1)
                }
            }
            "&" => {
                if self.punct_at(1, "&") {
                    Infix::Bin(BinOp::And, PREC_AND, 2)
                } else if eq1 {
                    Infix::CompoundAssign(BinOp::BitAnd, 2)
                } else {
                    Infix::Bin(BinOp::BitAnd, PREC_BITAND, 1)
                }
            }
            "|" => {
                if self.punct_at(1, "|") {
                    Infix::Bin(BinOp::Or, PREC_OR, 2)
                } else if eq1 {
                    Infix::CompoundAssign(BinOp::BitOr, 2)
                } else {
                    Infix::Bin(BinOp::BitOr, PREC_BITOR, 1)
                }
            }
            "^" if eq1 => Infix::CompoundAssign(BinOp::BitXor, 2),
            "^" => Infix::Bin(BinOp::BitXor, PREC_BITXOR, 1),
            "+" if eq1 => Infix::CompoundAssign(BinOp::Add, 2),
            "+" => Infix::Bin(BinOp::Add, PREC_ADD, 1),
            "-" if eq1 => Infix::CompoundAssign(BinOp::Sub, 2),
            "-" => Infix::Bin(BinOp::Sub, PREC_ADD, 1),
            "*" if eq1 => Infix::CompoundAssign(BinOp::Mul, 2),
            "*" => Infix::Bin(BinOp::Mul, PREC_MUL, 1),
            "/" if eq1 => Infix::CompoundAssign(BinOp::Div, 2),
            "/" => Infix::Bin(BinOp::Div, PREC_MUL, 1),
            "%" if eq1 => Infix::CompoundAssign(BinOp::Rem, 2),
            "%" => Infix::Bin(BinOp::Rem, PREC_MUL, 1),
            ".." => Infix::Range { inclusive: false },
            "..=" => Infix::Range { inclusive: true },
            _ => return None,
        })
    }

    /// True when `e` is block-like: in statement position it needs no
    /// `;` and must not absorb a following unary `-`/`*`/`&` as a
    /// binary operator.
    fn is_block_like(e: &Expr) -> bool {
        matches!(
            e.kind,
            ExprKind::Block(_)
                | ExprKind::If { .. }
                | ExprKind::Match { .. }
                | ExprKind::While { .. }
                | ExprKind::Loop(_)
                | ExprKind::For { .. }
        )
    }

    fn parse_expr_bp(&mut self, min_bp: u8, allow_struct: bool) -> Expr {
        let mut lhs = self.parse_unary(allow_struct);
        // A block-like expression in statement position terminates;
        // only method calls / fields / `?` may chain, which
        // parse_unary's postfix loop already consumed.
        if Self::is_block_like(&lhs) && min_bp == 0 {
            return lhs;
        }
        loop {
            // `as` cast binds tighter than any binary operator.
            if self.at_ident("as") {
                self.bump();
                let ty = self.parse_type();
                let line = lhs.line;
                lhs = Expr::new(
                    line,
                    ExprKind::Cast {
                        expr: Box::new(lhs),
                        ty,
                    },
                );
                continue;
            }
            let Some(op) = self.peek_infix() else { break };
            match op {
                Infix::Assign => {
                    if PREC_ASSIGN < min_bp {
                        break;
                    }
                    self.bump();
                    let rhs = self.parse_expr_bp(PREC_ASSIGN, allow_struct);
                    let line = lhs.line;
                    lhs = Expr::new(
                        line,
                        ExprKind::Assign {
                            op: None,
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                    );
                }
                Infix::CompoundAssign(bin, n) => {
                    if PREC_ASSIGN < min_bp {
                        break;
                    }
                    for _ in 0..n {
                        self.bump();
                    }
                    let rhs = self.parse_expr_bp(PREC_ASSIGN, allow_struct);
                    let line = lhs.line;
                    lhs = Expr::new(
                        line,
                        ExprKind::Assign {
                            op: Some(bin),
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                    );
                }
                Infix::Range { inclusive } => {
                    let _ = inclusive;
                    if PREC_RANGE < min_bp {
                        break;
                    }
                    self.bump();
                    let hi = if self.range_has_rhs() {
                        Some(Box::new(self.parse_expr_bp(PREC_RANGE + 1, allow_struct)))
                    } else {
                        None
                    };
                    let line = lhs.line;
                    lhs = Expr::new(
                        line,
                        ExprKind::Range {
                            lo: Some(Box::new(lhs)),
                            hi,
                        },
                    );
                }
                Infix::Bin(bin, bp, n) => {
                    if bp < min_bp {
                        break;
                    }
                    for _ in 0..n {
                        self.bump();
                    }
                    let rhs = self.parse_expr_bp(bp + 1, allow_struct);
                    let line = lhs.line;
                    lhs = Expr::new(
                        line,
                        ExprKind::Binary {
                            op: bin,
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                    );
                }
            }
        }
        lhs
    }

    /// True when the token after `..` starts an expression (rather than
    /// closing the range: `a..`, `..` before `)` `]` `}` `,` `;` `=`).
    /// `{` never begins a range rhs: in every position a range can
    /// appear, a following brace opens the enclosing block or body.
    fn range_has_rhs(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => !matches!(
                (&t.kind, t.text.as_str()),
                (TokKind::Punct, ")" | "]" | "}" | "," | ";" | "=>" | "{")
                    | (TokKind::Ident, "else")
            ),
        }
    }

    fn parse_unary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        // Prefix operators.
        if self.at_punct("-") {
            self.bump();
            let e = self.parse_unary(allow_struct);
            return Expr::new(
                line,
                ExprKind::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                },
            );
        }
        if self.at_punct("!") {
            self.bump();
            let e = self.parse_unary(allow_struct);
            return Expr::new(
                line,
                ExprKind::Unary {
                    op: UnOp::Not,
                    expr: Box::new(e),
                },
            );
        }
        if self.at_punct("*") {
            self.bump();
            let e = self.parse_unary(allow_struct);
            return Expr::new(
                line,
                ExprKind::Unary {
                    op: UnOp::Deref,
                    expr: Box::new(e),
                },
            );
        }
        if self.at_punct("&") {
            self.bump();
            self.eat_punct("&"); // `&&x` = two refs
            self.eat_ident("mut");
            let e = self.parse_unary(allow_struct);
            return Expr::new(
                line,
                ExprKind::Unary {
                    op: UnOp::Ref,
                    expr: Box::new(e),
                },
            );
        }
        // Leading `..`/`..=` range.
        if self.at_punct("..") || self.at_punct("..=") {
            self.bump();
            let hi = if self.range_has_rhs() {
                Some(Box::new(self.parse_expr_bp(PREC_RANGE + 1, allow_struct)))
            } else {
                None
            };
            return Expr::new(line, ExprKind::Range { lo: None, hi });
        }
        let mut e = self.parse_primary(allow_struct);
        // Block-like expressions take no postfix in statement position,
        // but `match x {}.foo()` is legal; we allow postfix chaining
        // uniformly — the statement-termination rule in parse_expr_bp
        // handles the statement case before any operator is consumed.
        loop {
            if self.at_punct(".") {
                // `.await`, `.0`, `.field`, `.method(..)`.
                self.bump();
                match self.peek() {
                    Some(t) if t.kind == TokKind::Ident => {
                        let name = t.text.clone();
                        self.bump();
                        // Turbofish: `.collect::<Vec<_>>()`.
                        if self.at_punct("::") && self.punct_at(1, "<") {
                            self.bump();
                            self.skip_generics();
                        }
                        if self.at_punct("(") {
                            self.bump();
                            let args = self.parse_call_args();
                            e = Expr::new(
                                e.line,
                                ExprKind::MethodCall {
                                    recv: Box::new(e),
                                    name,
                                    args,
                                },
                            );
                        } else {
                            e = Expr::new(
                                e.line,
                                ExprKind::Field {
                                    recv: Box::new(e),
                                    name,
                                },
                            );
                        }
                    }
                    Some(t) if matches!(t.kind, TokKind::Int { .. }) => {
                        let name = t.text.clone();
                        self.bump();
                        e = Expr::new(
                            e.line,
                            ExprKind::Field {
                                recv: Box::new(e),
                                name,
                            },
                        );
                    }
                    Some(t) if matches!(t.kind, TokKind::Float) => {
                        // `x.0.1` lexes the `.0.1` as a float; model as
                        // an opaque field access.
                        self.bump();
                        e = Expr::new(
                            e.line,
                            ExprKind::Field {
                                recv: Box::new(e),
                                name: "0".to_string(),
                            },
                        );
                    }
                    _ => {
                        self.error("expected field or method name after `.`".to_string());
                        break;
                    }
                }
                continue;
            }
            if self.at_punct("(") && !Self::is_block_like(&e) {
                self.bump();
                let args = self.parse_call_args();
                e = Expr::new(
                    e.line,
                    ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                );
                continue;
            }
            if self.at_punct("[") && !Self::is_block_like(&e) {
                self.bump();
                let index = self.parse_expr();
                self.expect_punct("]", "to close index expression");
                e = Expr::new(
                    e.line,
                    ExprKind::Index {
                        recv: Box::new(e),
                        index: Box::new(index),
                    },
                );
                continue;
            }
            if self.at_punct("?") {
                self.bump();
                e = Expr::new(e.line, ExprKind::Try(Box::new(e)));
                continue;
            }
            break;
        }
        e
    }

    /// Parses `a, b, c)` call arguments; the `(` has been consumed.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        loop {
            if self.eat_punct(")") || self.peek().is_none() {
                return args;
            }
            args.push(self.parse_expr());
            if !self.eat_punct(",") && !self.at_punct(")") {
                self.error("expected `,` or `)` in call arguments".to_string());
                self.skip_to_list_sep();
            }
        }
    }

    fn parse_primary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.peek() else {
            self.error("unexpected end of input in expression".to_string());
            return Expr::new(line, ExprKind::Unknown);
        };
        match (&t.kind, t.text.as_str()) {
            (TokKind::Int { suffix }, text) => {
                let value = parse_int_text(text);
                let suffix = suffix.clone();
                self.bump();
                Expr::new(line, ExprKind::Int { value, suffix })
            }
            (TokKind::Float | TokKind::Str | TokKind::Char, _) => {
                self.bump();
                Expr::new(line, ExprKind::Unknown)
            }
            (TokKind::Lifetime, _) => {
                // A loop label: `'outer: loop { .. }`.
                self.bump();
                self.eat_punct(":");
                self.parse_primary(allow_struct)
            }
            (TokKind::Punct, "(") => {
                self.bump();
                let mut items = Vec::new();
                let mut trailing_comma = false;
                loop {
                    if self.eat_punct(")") || self.peek().is_none() {
                        break;
                    }
                    items.push(self.parse_expr());
                    if self.eat_punct(",") {
                        trailing_comma = true;
                    } else if !self.at_punct(")") {
                        self.error("expected `,` or `)` in tuple".to_string());
                        self.skip_to_list_sep();
                    } else {
                        trailing_comma = false;
                    }
                }
                if items.len() == 1 && !trailing_comma {
                    // Plain parenthesization.
                    items.pop().unwrap()
                } else {
                    Expr::new(line, ExprKind::Tuple(items))
                }
            }
            (TokKind::Punct, "[") => {
                self.bump();
                let mut items = Vec::new();
                loop {
                    if self.eat_punct("]") || self.peek().is_none() {
                        break;
                    }
                    let e = self.parse_expr();
                    if self.eat_punct(";") {
                        let len = self.parse_expr();
                        self.expect_punct("]", "to close array repeat");
                        return Expr::new(
                            line,
                            ExprKind::Repeat {
                                elem: Box::new(e),
                                len: Box::new(len),
                            },
                        );
                    }
                    items.push(e);
                    if !self.eat_punct(",") && !self.at_punct("]") {
                        self.error("expected `,` or `]` in array".to_string());
                        self.skip_to_list_sep();
                    }
                }
                Expr::new(line, ExprKind::Array(items))
            }
            (TokKind::Punct, "{") => Expr::new(line, ExprKind::Block(self.parse_block())),
            (TokKind::Punct, "|") => self.parse_closure(line),
            (TokKind::Punct, "<") => {
                // Qualified path expression `<T as Trait>::method(..)`.
                self.bump();
                self.parse_type();
                if self.eat_ident("as") {
                    self.parse_type();
                }
                self.eat_punct(">");
                let mut path = Vec::new();
                while self.eat_punct("::") {
                    if self.at_punct("<") {
                        self.skip_generics();
                        continue;
                    }
                    path.push(self.ident("in qualified path expression"));
                }
                Expr::new(line, ExprKind::Path(path))
            }
            (TokKind::Ident, kw) => match kw {
                "if" => self.parse_if(line),
                "match" => self.parse_match(line),
                "while" => self.parse_while(line),
                "loop" => {
                    self.bump();
                    Expr::new(line, ExprKind::Loop(self.parse_block()))
                }
                "for" => self.parse_for(line),
                "unsafe" => {
                    self.bump();
                    Expr::new(line, ExprKind::Block(self.parse_block()))
                }
                "return" => {
                    self.bump();
                    let val = if self.expr_follows() {
                        Some(Box::new(self.parse_expr_bp(PREC_ASSIGN, allow_struct)))
                    } else {
                        None
                    };
                    Expr::new(line, ExprKind::Return(val))
                }
                "break" => {
                    self.bump();
                    if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.bump();
                    }
                    let val = if self.expr_follows() {
                        Some(Box::new(self.parse_expr_bp(PREC_ASSIGN, allow_struct)))
                    } else {
                        None
                    };
                    Expr::new(line, ExprKind::Break(val))
                }
                "continue" => {
                    self.bump();
                    if self.peek().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.bump();
                    }
                    Expr::new(line, ExprKind::Unknown)
                }
                "move" => {
                    self.bump();
                    if self.at_punct("|") {
                        self.parse_closure(line)
                    } else if self.punct_at(0, "{") {
                        Expr::new(line, ExprKind::Block(self.parse_block()))
                    } else {
                        self.error("expected closure or block after `move`".to_string());
                        Expr::new(line, ExprKind::Unknown)
                    }
                }
                "true" | "false" => {
                    self.bump();
                    Expr::new(line, ExprKind::Path(vec![kw.to_string()]))
                }
                "let" => {
                    // `if let` scrutinee position handles patterns; a
                    // bare `let` chain (let-else in conditions).
                    self.bump();
                    self.parse_pattern_binder();
                    if self.eat_punct("=") {
                        self.parse_expr_bp(PREC_OR + 1, allow_struct)
                    } else {
                        Expr::new(line, ExprKind::Unknown)
                    }
                }
                _ => self.parse_path_expr(line, allow_struct),
            },
            (TokKind::Punct, p) => {
                self.error(format!("unexpected token `{p}` in expression"));
                self.bump();
                Expr::new(line, ExprKind::Unknown)
            }
        }
    }

    /// True when the current token can begin an expression (used after
    /// `return` / `break`).
    fn expr_follows(&self) -> bool {
        match self.peek() {
            None => false,
            Some(t) => !matches!(
                (&t.kind, t.text.as_str()),
                (TokKind::Punct, ";" | "," | ")" | "]" | "}" | "=>") | (TokKind::Ident, "else")
            ),
        }
    }

    fn parse_closure(&mut self, line: u32) -> Expr {
        self.bump(); // |
        loop {
            if self.eat_punct("|") || self.peek().is_none() {
                break;
            }
            self.parse_pattern_binder();
            if self.eat_punct(":") {
                self.parse_type();
            }
            if !self.eat_punct(",") && !self.at_punct("|") {
                // Patterns like `|Reverse(e)|` end here already; any
                // other stall means the pattern skipper stopped at a
                // token it does not own. Bail on the closure header.
                if !self.at_punct("|") {
                    break;
                }
            }
        }
        if self.at_punct("->") {
            self.bump();
            self.parse_type();
            // Typed closures require a block body.
            let body = Expr::new(self.line(), ExprKind::Block(self.parse_block()));
            return Expr::new(
                line,
                ExprKind::Closure {
                    body: Box::new(body),
                },
            );
        }
        let body = self.parse_expr_bp(PREC_ASSIGN, true);
        Expr::new(
            line,
            ExprKind::Closure {
                body: Box::new(body),
            },
        )
    }

    fn parse_if(&mut self, line: u32) -> Expr {
        self.bump(); // if
        let cond = if self.at_ident("let") {
            self.bump();
            self.skip_if_let_pattern();
            if self.eat_punct("=") {
                self.parse_expr_no_struct()
            } else {
                self.error("expected `=` in `if let`".to_string());
                Expr::new(self.line(), ExprKind::Unknown)
            }
        } else {
            self.parse_expr_no_struct()
        };
        let then = self.parse_block();
        let els = if self.at_ident("else") {
            self.bump();
            if self.at_ident("if") {
                Some(Box::new(self.parse_if(self.line())))
            } else {
                let l = self.line();
                Some(Box::new(Expr::new(l, ExprKind::Block(self.parse_block()))))
            }
        } else {
            None
        };
        Expr::new(
            line,
            ExprKind::If {
                cond: Box::new(cond),
                then,
                els,
            },
        )
    }

    /// Skips an `if let` / `while let` pattern up to the top-level `=`.
    fn skip_if_let_pattern(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth == 0 {
                            return;
                        }
                        depth -= 1;
                    }
                    "=" if depth == 0 => return,
                    _ => {}
                }
            }
            self.bump();
        }
    }

    fn parse_match(&mut self, line: u32) -> Expr {
        self.bump(); // match
        let scrutinee = self.parse_expr_no_struct();
        let mut arms = Vec::new();
        if !self.expect_punct("{", "to open match body") {
            return Expr::new(
                line,
                ExprKind::Match {
                    scrutinee: Box::new(scrutinee),
                    arms,
                },
            );
        }
        loop {
            self.skip_attrs();
            if self.eat_punct("}") || self.peek().is_none() {
                break;
            }
            let pat_idents = self.parse_arm_pattern();
            let guard = if self.at_ident("if") {
                self.bump();
                // Unlike scrutinees, guards end at `=>`, so struct
                // literals are legal in them.
                Some(self.parse_expr())
            } else {
                None
            };
            if !self.expect_punct("=>", "after match pattern") {
                // Recover to next arm or close.
                self.skip_to_arm_end();
                continue;
            }
            let body = self.parse_expr();
            let block_like = Self::is_block_like(&body);
            arms.push(Arm {
                pat_idents,
                guard,
                body,
            });
            if !self.eat_punct(",") && !block_like && !self.at_punct("}") {
                self.error("expected `,` after match arm".to_string());
                self.skip_to_arm_end();
            }
        }
        Expr::new(
            line,
            ExprKind::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            },
        )
    }

    /// Collects identifiers from a match-arm pattern, stopping before
    /// the top-level `=>` or `if` guard.
    fn parse_arm_pattern(&mut self) -> Vec<String> {
        let mut idents = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match (&t.kind, t.text.as_str()) {
                (TokKind::Punct, "(" | "[" | "{") => depth += 1,
                (TokKind::Punct, ")" | "]" | "}") => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                (TokKind::Punct, "=>") if depth == 0 => break,
                (TokKind::Ident, "if") if depth == 0 => break,
                (TokKind::Ident, name) => idents.push(name.to_string()),
                _ => {}
            }
            self.bump();
        }
        idents
    }

    /// Skips to the end of a broken match arm: past the next top-level
    /// `,`, or before the closing `}`.
    fn skip_to_arm_end(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        if depth == 0 {
                            return;
                        }
                        depth -= 1;
                    }
                    "," if depth == 0 => {
                        self.bump();
                        return;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    fn parse_while(&mut self, line: u32) -> Expr {
        self.bump(); // while
        let cond = if self.at_ident("let") {
            self.bump();
            self.skip_if_let_pattern();
            if self.eat_punct("=") {
                self.parse_expr_no_struct()
            } else {
                Expr::new(self.line(), ExprKind::Unknown)
            }
        } else {
            self.parse_expr_no_struct()
        };
        let body = self.parse_block();
        Expr::new(
            line,
            ExprKind::While {
                cond: Box::new(cond),
                body,
            },
        )
    }

    fn parse_for(&mut self, line: u32) -> Expr {
        self.bump(); // for
        let pat = self.parse_pattern_binder();
        if !self.eat_ident("in") {
            self.error("expected `in` in `for` loop".to_string());
        }
        let iter = self.parse_expr_no_struct();
        let body = self.parse_block();
        Expr::new(
            line,
            ExprKind::For {
                pat,
                iter: Box::new(iter),
                body,
            },
        )
    }

    /// Parses a path expression and its immediate continuations: a
    /// macro invocation, a struct literal, or the bare path.
    fn parse_path_expr(&mut self, line: u32, allow_struct: bool) -> Expr {
        let mut path = vec![self.ident("at start of path")];
        loop {
            if self.at_punct("!") && !self.punct_at(1, "=") {
                // Macro invocation.
                self.bump();
                let open = match self.peek() {
                    Some(t)
                        if t.kind == TokKind::Punct
                            && matches!(t.text.as_str(), "(" | "[" | "{") =>
                    {
                        t.text.clone()
                    }
                    _ => {
                        self.error("expected macro delimiter".to_string());
                        return Expr::new(line, ExprKind::Unknown);
                    }
                };
                self.bump();
                self.skip_balanced(&open);
                let name = path.pop().unwrap_or_default();
                return Expr::new(line, ExprKind::Macro { name });
            }
            if self.eat_punct("::") {
                if self.at_punct("<") {
                    // Turbofish.
                    self.skip_generics();
                    continue;
                }
                if self.at_punct("{") {
                    // `use`-like braces never appear here; treat as end.
                    break;
                }
                path.push(self.ident("in path"));
                continue;
            }
            break;
        }
        if allow_struct && self.at_punct("{") && self.struct_lit_follows() {
            return self.parse_struct_lit(line, path);
        }
        Expr::new(line, ExprKind::Path(path))
    }

    /// Heuristic confirming `{` opens a struct literal: the token after
    /// `{` is `}`, `..`, or an identifier followed by `:`/`,`/`}`.
    fn struct_lit_follows(&self) -> bool {
        match self.peek_at(1) {
            None => false,
            Some(t) if t.kind == TokKind::Punct && (t.text == "}" || t.text == "..") => true,
            Some(t) if t.kind == TokKind::Ident => match self.peek_at(2) {
                Some(t2) if t2.kind == TokKind::Punct => {
                    matches!(t2.text.as_str(), ":" | "," | "}")
                        // `Foo { x: ..` but not `Foo { x::y` (a block
                        // starting with a path).
                        && !(t2.text == ":" && self.punct_at(3, ":"))
                }
                _ => false,
            },
            _ => false,
        }
    }

    fn parse_struct_lit(&mut self, line: u32, path: Vec<String>) -> Expr {
        self.bump(); // {
        let mut fields = Vec::new();
        let mut rest = None;
        loop {
            if self.eat_punct("}") || self.peek().is_none() {
                break;
            }
            if self.at_punct("..") {
                self.bump();
                rest = Some(Box::new(self.parse_expr()));
                self.eat_punct(",");
                continue;
            }
            let name = self.ident("as struct literal field");
            let value = if self.eat_punct(":") {
                Some(self.parse_expr())
            } else {
                None // shorthand
            };
            fields.push((name, value));
            if !self.eat_punct(",") && !self.at_punct("}") {
                self.error("expected `,` or `}` in struct literal".to_string());
                self.skip_to_list_sep();
            }
        }
        Expr::new(line, ExprKind::StructLit { path, fields, rest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::LexFile;

    fn parse_ok(src: &str) -> SourceFile {
        let lex = LexFile::lex(src);
        let (file, errs) = parse_file(&lex);
        assert!(errs.is_empty(), "parse errors: {errs:?}\nsource: {src}");
        file
    }

    fn first_fn(file: &SourceFile) -> &FnItem {
        for item in &file.items {
            if let ItemKind::Fn(f) = &item.kind {
                return f;
            }
        }
        panic!("no fn item");
    }

    #[test]
    fn precedence_shapes_the_tree() {
        let file = parse_ok("fn f() -> i64 { 1 + 2 * 3 }");
        let f = first_fn(&file);
        let body = f.body.as_ref().unwrap();
        let Stmt::Expr(e) = &body.stmts[0] else {
            panic!("expected expression statement")
        };
        let ExprKind::Binary { op, rhs, .. } = &e.kind else {
            panic!("expected binary, got {e:?}")
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn shifts_and_comparisons_join() {
        let file = parse_ok("fn f(x: u128) -> bool { (x << 2) >= 4 && x != 0 || x <= 1 }");
        let f = first_fn(&file);
        assert!(f.body.is_some());
    }

    #[test]
    fn generics_do_not_eat_shr() {
        let file = parse_ok(
            "fn f() { let v: Vec<Vec<u64>> = Vec::new(); let x = 1u64 >> 2; let _ = (v, x); }",
        );
        let f = first_fn(&file);
        assert_eq!(f.body.as_ref().unwrap().stmts.len(), 3);
    }

    #[test]
    fn struct_literals_suppressed_in_conditions() {
        let file = parse_ok("fn f(c: bool) { if c { g(); } for i in 0..n { h(i); } }");
        let f = first_fn(&file);
        let Stmt::Expr(e) = &f.body.as_ref().unwrap().stmts[0] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::If { .. }));
    }

    #[test]
    fn struct_literal_in_plain_expression() {
        let file = parse_ok("fn f() -> P { P { x: 1, y } }");
        let f = first_fn(&file);
        let Stmt::Expr(e) = &f.body.as_ref().unwrap().stmts[0] else {
            panic!()
        };
        let ExprKind::StructLit { path, fields, .. } = &e.kind else {
            panic!("expected struct literal, got {e:?}")
        };
        assert_eq!(path, &vec!["P".to_string()]);
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn method_chains_turbofish_and_try() {
        parse_ok(
            "fn f() -> Result<Vec<u64>, E> { let v = xs.iter().map(|x| x + 1).collect::<Vec<_>>(); g(v)?; Ok(v) }",
        );
    }

    #[test]
    fn impl_blocks_carry_methods() {
        let file = parse_ok(
            "impl Ord for Priority { fn cmp(&self, other: &Self) -> Ordering { self.key.cmp(&other.key) } }",
        );
        let ItemKind::Impl { type_name, items } = &file.items[0].kind else {
            panic!()
        };
        assert_eq!(type_name, "Priority");
        let ItemKind::Fn(f) = &items[0].kind else {
            panic!()
        };
        assert_eq!(f.name, "cmp");
        // The `self` receiver is not a parameter.
        assert_eq!(f.params.len(), 1);
    }

    #[test]
    fn match_arms_with_guards_and_paths() {
        parse_ok(
            "fn f(x: Option<u64>) -> u64 { match x { Some(v) if v > 3 => v, Some(_) | None => 0 } }",
        );
    }

    #[test]
    fn let_else_and_if_let() {
        parse_ok(
            "fn f(x: Option<u64>) -> u64 { let Some(v) = x else { return 0; }; if let Some(w) = g(v) { w } else { v } }",
        );
    }

    #[test]
    fn casts_bind_tighter_than_binary() {
        let file = parse_ok("fn f(x: u32) -> u64 { x as u64 + 1 }");
        let f = first_fn(&file);
        let Stmt::Expr(e) = &f.body.as_ref().unwrap().stmts[0] else {
            panic!()
        };
        let ExprKind::Binary {
            op: BinOp::Add,
            lhs,
            ..
        } = &e.kind
        else {
            panic!("expected add at top, got {e:?}")
        };
        assert!(matches!(lhs.kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn const_values_parse_with_shifts() {
        let file = parse_ok("pub const SLOT_BOUND: i64 = 1i64 << 46;");
        let ItemKind::Const { name, value, .. } = &file.items[0].kind else {
            panic!()
        };
        assert_eq!(name, "SLOT_BOUND");
        let Some(Expr {
            kind: ExprKind::Binary { op: BinOp::Shl, .. },
            ..
        }) = value
        else {
            panic!("expected shl, got {value:?}")
        };
    }

    #[test]
    fn macros_keep_their_names() {
        let file = parse_ok("fn f() { assert_eq!(a, b); panic!(\"boom {x}\"); }");
        let f = first_fn(&file);
        let mut names = Vec::new();
        crate::ast::walk_block(f.body.as_ref().unwrap(), &mut |e| {
            if let ExprKind::Macro { name, .. } = &e.kind {
                names.push(name.clone());
            }
        });
        assert_eq!(names, vec!["assert_eq", "panic"]);
    }

    #[test]
    fn closures_and_higher_order_params() {
        parse_ok(
            "fn f(mut g: impl FnMut(&QueueEntry) -> bool, h: &dyn Fn(u64) -> u64) { g(&e); h(1); }",
        );
    }

    #[test]
    fn ranges_parse_in_for_and_index() {
        parse_ok("fn f(xs: &[u64]) { for i in 0..xs.len() { let _ = &xs[1..=i]; } }");
    }

    #[test]
    fn qualified_paths_and_ufcs() {
        parse_ok("fn f() { let x = <u64 as TryFrom<i64>>::try_from(1); u64::try_from(x); }");
    }

    #[test]
    fn statement_block_then_unary_minus() {
        // `{ .. } - 1` in statement position is two statements, not a
        // subtraction.
        let file = parse_ok("fn f() { if c { g(); } -1; }");
        let f = first_fn(&file);
        assert_eq!(f.body.as_ref().unwrap().stmts.len(), 2);
    }

    #[test]
    fn labeled_loops_and_breaks() {
        parse_ok("fn f() { 'outer: loop { while t { break 'outer; } continue 'outer; } }");
    }

    #[test]
    fn struct_fields_record_types() {
        let file = parse_ok("struct Ring { base: i64, buckets: Vec<Vec<Subtask>> }");
        let ItemKind::Struct { fields, .. } = &file.items[0].kind else {
            panic!()
        };
        assert_eq!(fields[0].0, "base");
        assert_eq!(fields[0].1.head, "i64");
        assert_eq!(fields[1].1.head, "Vec");
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn unread_items_are_skipped_whole() {
        let file = parse_ok(
            "use a::{b, c::d};\nenum E<T> { A(T), B }\ntype T = [u8; 4];\nmacro_rules! m { () => {} }\nproptest! { fn p() {} }\nthread_local!(static X: u8 = 0);\nfn after() {}",
        );
        let kinds: Vec<bool> = file
            .items
            .iter()
            .map(|i| matches!(i.kind, ItemKind::Other))
            .collect();
        assert_eq!(kinds, [true, true, true, true, true, true, false]);
    }

    #[test]
    fn tolerant_recovery_keeps_later_items() {
        let lex = LexFile::lex("fn broken( { } fn ok() { 1; }");
        let (file, errs) = parse_file(&lex);
        assert!(!errs.is_empty());
        assert!(file
            .items
            .iter()
            .any(|i| matches!(&i.kind, ItemKind::Fn(f) if f.name == "ok")));
    }

    #[test]
    fn test_regions_flow_into_items() {
        let file = parse_ok("fn lib() {}\n#[cfg(test)]\nmod tests { fn t() {} }");
        assert!(!file.items[0].in_test);
        assert!(file.items[1].in_test);
    }
}
