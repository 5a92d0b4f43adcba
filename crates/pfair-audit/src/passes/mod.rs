//! The AST/call-graph analysis passes.
//!
//! Each pass consumes the parsed workspace ([`Workspace`]) and emits
//! [`crate::Finding`]s under its own lint name; the central driver in
//! the crate root then discharges findings against typed
//! `// audit: allow(<lint>, <reason>)` annotations. See DESIGN.md
//! "Audit v2" for each pass's soundness boundary.

pub mod determinism;
pub mod float_taint;
pub mod overflow;
pub mod panic_reach;

use crate::ast::SourceFile;
use crate::config::Config;
use crate::lexer::LexFile;
use crate::parser::ParseError;
use crate::Finding;

/// One analyzed source file: its lexed tokens (for comments and
/// directive annotations), AST, and any recovered parse errors.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Path relative to the audited root, `/`-separated.
    pub path: String,
    /// Lexed tokens and comments.
    pub lex: LexFile,
    /// Parsed tree.
    pub ast: SourceFile,
    /// Recovered parse errors (analysis blind spots).
    pub errors: Vec<ParseError>,
}

/// The whole parsed workspace, in deterministic path order.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Analyzed files.
    pub files: Vec<AnalyzedFile>,
}

impl Workspace {
    /// `(path, ast)` pairs, the shape [`crate::callgraph`] consumes.
    pub fn ast_refs(&self) -> Vec<(&str, &SourceFile)> {
        self.files
            .iter()
            .map(|f| (f.path.as_str(), &f.ast))
            .collect()
    }
}

/// Lexes and parses one file into its analyzed form.
pub fn analyze_source(path: &str, src: &str) -> AnalyzedFile {
    let lex = LexFile::lex(src);
    let (ast, errors) = crate::parser::parse_file(&lex);
    AnalyzedFile {
        path: path.to_string(),
        lex,
        ast,
        errors,
    }
}

/// Combined output of the four passes.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Raw findings, before allow-discharge.
    pub findings: Vec<Finding>,
    /// Panic-reach entry-point statuses (raw: `panic_free` before
    /// discharge; the report layer recomputes it afterwards).
    pub entry_points: Vec<panic_reach::EntryStatus>,
    /// Token lines of the reported panic-reach sites.
    pub panic_tokens: Vec<panic_reach::PanicToken>,
}

/// Runs all four passes in a fixed order.
pub fn run_all(ws: &Workspace, cfg: &Config) -> PassOutput {
    let reach = panic_reach::run(ws, cfg);
    let mut findings = reach.findings;
    findings.extend(determinism::run(ws, cfg));
    findings.extend(overflow::run(ws, cfg));
    findings.extend(float_taint::run(ws, cfg));
    PassOutput {
        findings,
        entry_points: reach.entry_points,
        panic_tokens: reach.tokens,
    }
}
