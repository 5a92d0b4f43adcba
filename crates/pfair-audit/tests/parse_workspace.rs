//! Acceptance gate: the hand-rolled parser must shape every `.rs`
//! file in the workspace without a single recovered error. The audit
//! passes reason over the AST, so a parse error is a blind spot.

use std::path::{Path, PathBuf};

use pfair_audit::ast::{walk_items, ItemKind};
use pfair_audit::lexer::LexFile;
use pfair_audit::parser::parse_file;

fn workspace_root() -> PathBuf {
    // crates/pfair-audit -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let entry = entry.expect("dir entry");
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Every in-tree source file — including the audit's own fixtures,
/// the vendored stubs, and this very test — parses cleanly.
#[test]
fn whole_workspace_parses_without_errors() {
    let root = workspace_root();
    let mut files = Vec::new();
    collect(&root, &mut files);
    files.sort();
    assert!(
        files.len() > 30,
        "workspace walk looks wrong: only {} files under {}",
        files.len(),
        root.display()
    );
    let mut failures = Vec::new();
    let mut parsed_fns = 0usize;
    for path in &files {
        let src = std::fs::read_to_string(path).expect("read source");
        let lex = LexFile::lex(&src);
        let (file, errors) = parse_file(&lex);
        walk_items(&file.items, &mut |item, _| {
            parsed_fns += usize::from(matches!(item.kind, ItemKind::Fn(_)));
        });
        for e in errors {
            failures.push(format!("{}:{}: {}", path.display(), e.line, e.message));
        }
    }
    assert!(
        failures.is_empty(),
        "parser errors in {} location(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Sanity check the parser is actually extracting structure, not
    // recovering everything into `Other`.
    assert!(
        parsed_fns > 300,
        "suspiciously few functions parsed: {parsed_fns}"
    );
}
