//! `audit.toml` configuration.
//!
//! The offline build environment has no `toml` crate, so this module
//! parses the small TOML subset the config actually uses: `[section]`
//! headers (dotted names allowed), `key = "string"`, and
//! `key = ["array", "of", "strings"]` possibly spanning several lines,
//! with `#` comments and trailing commas.

use std::collections::BTreeMap;
use std::fmt;

use crate::lints::canonical_lint;

/// Scope of one lint: where it applies and what it starts from.
#[derive(Clone, Debug, Default)]
pub struct LintScope {
    /// Path prefixes (relative to the audited root, `/`-separated) the
    /// lint applies to. Empty means the whole tree.
    pub paths: Vec<String>,
    /// For the panic-reach pass: the functions whose transitive call
    /// trees must be panic-free, as `Type::method`, `Type::*`, or a
    /// free-function name.
    pub entry_points: Vec<String>,
}

/// Parsed `audit.toml`.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Path prefixes skipped entirely (generated output, vendored
    /// stubs, the audit's own known-bad fixtures).
    pub exclude: Vec<String>,
    /// Per-lint scopes, keyed by canonical lint name.
    pub lints: BTreeMap<String, LintScope>,
}

/// A configuration syntax error with its 1-based line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// True when `path` (relative, `/`-separated) falls under the `prefix`
/// pattern: an exact file match or a directory prefix.
pub fn path_matches(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    match path.strip_prefix(prefix) {
        Some(rest) => rest.is_empty() || rest.starts_with('/'),
        None => false,
    }
}

impl Config {
    /// True when `path` is excluded from the audit altogether.
    pub fn is_excluded(&self, path: &str) -> bool {
        self.exclude.iter().any(|p| path_matches(path, p))
    }

    /// True when the lint named `lint` applies to `path`.
    pub fn lint_applies(&self, lint: &str, path: &str) -> bool {
        let Some(scope) = self.lints.get(lint) else {
            return false;
        };
        scope.paths.is_empty() || scope.paths.iter().any(|p| path_matches(path, p))
    }

    /// Parses the `audit.toml` subset described in the module docs.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = src.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: "unterminated section header".into(),
                })?;
                section = name.trim().to_string();
                // A bare `[lint.x]` header enables the lint tree-wide;
                // it must not require a paths key to exist.
                // Unknown lint names are configuration rot and are
                // rejected here, with the header's line.
                if let Some(lint) = section.strip_prefix("lint.") {
                    let canonical = canonical_lint(lint).ok_or_else(|| ConfigError {
                        line: lineno,
                        message: format!(
                            "unknown lint `{lint}` (run `pfair-audit list-lints` for the catalog)"
                        ),
                    })?;
                    section = format!("lint.{canonical}");
                    cfg.lints.entry(canonical.to_string()).or_default();
                }
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected `key = value`, found `{line}`"),
            })?;
            let key = key.trim().to_string();
            let mut value = value.trim().to_string();
            // Gather a multi-line array.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_comment(cont);
                    value.push(' ');
                    value.push_str(cont.trim());
                    if cont.trim_end().ends_with(']') {
                        break;
                    }
                }
            }
            let values = parse_value(&value).map_err(|message| ConfigError {
                line: lineno,
                message,
            })?;
            cfg.apply(&section, &key, values, lineno)?;
        }
        Ok(cfg)
    }

    fn apply(
        &mut self,
        section: &str,
        key: &str,
        values: Vec<String>,
        line: usize,
    ) -> Result<(), ConfigError> {
        if section == "audit" {
            if key == "exclude" {
                self.exclude = values;
                return Ok(());
            }
            return Err(ConfigError {
                line,
                message: format!("unknown key `{key}` in [audit]"),
            });
        }
        if let Some(lint) = section.strip_prefix("lint.") {
            let scope = self.lints.entry(lint.to_string()).or_default();
            match key {
                "paths" => scope.paths = values,
                "entry-points" => scope.entry_points = values,
                _ => {
                    return Err(ConfigError {
                        line,
                        message: format!("unknown key `{key}` in [lint.{lint}]"),
                    })
                }
            }
            return Ok(());
        }
        Err(ConfigError {
            line,
            message: format!("unknown section `[{section}]`"),
        })
    }
}

/// Strips a `#` comment, respecting `"` quoting.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `"str"` or `["a", "b"]` into a list of strings.
fn parse_value(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut out = Vec::new();
        for item in inner.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue; // trailing comma
            }
            out.push(parse_string(item)?);
        }
        return Ok(out);
    }
    Ok(vec![parse_string(value)?])
}

fn parse_string(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, found `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let cfg = Config::parse(
            r#"
# the audit config
[audit]
exclude = ["target", "stubs"]

[lint.overflow-interval]
paths = [
    "crates/pfair-core/src",  # the rational fast paths
    "crates/pfair-sched/src",
]
"#,
        )
        .unwrap();
        assert_eq!(cfg.exclude, vec!["target", "stubs"]);
        assert!(cfg.lint_applies("overflow-interval", "crates/pfair-core/src/lag.rs"));
        assert!(!cfg.lint_applies("overflow-interval", "crates/pfair-core/tests/t.rs"));
        assert!(!cfg.lint_applies("panic-reach", "crates/pfair-core/src/lag.rs"));
    }

    #[test]
    fn path_matching_is_component_wise() {
        assert!(path_matches(
            "crates/pfair-core/src/lib.rs",
            "crates/pfair-core"
        ));
        assert!(path_matches("crates/pfair-core", "crates/pfair-core"));
        assert!(!path_matches(
            "crates/pfair-core2/src/lib.rs",
            "crates/pfair-core"
        ));
        assert!(path_matches("a/b.rs", "a/"));
    }

    #[test]
    fn bare_lint_header_enables_the_lint_tree_wide() {
        let cfg = Config::parse("[lint.panic-reach]").unwrap();
        assert!(cfg.lint_applies("panic-reach", "crates/x/src/lib.rs"));
    }

    #[test]
    fn entry_points_parse_and_unknown_lint_headers_are_spanned() {
        let cfg = Config::parse(
            "[lint.panic-reach]\nentry-points = [\"Engine::run\", \"ReadyQueue::*\"]",
        )
        .unwrap();
        assert_eq!(cfg.lints["panic-reach"].entry_points.len(), 2);
        let err = Config::parse("\n\n[lint.no-such-lint]").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("no-such-lint"));
        // Alias headers canonicalize.
        let cfg = Config::parse("[lint.overflow]\npaths = [\"src\"]").unwrap();
        assert!(cfg.lints.contains_key(crate::lints::OVERFLOW_INTERVAL));
        // Floats are clippy's: no float lint is left to configure.
        assert!(Config::parse("[lint.float-taint]").is_err());
    }

    #[test]
    fn rejects_unknown_keys() {
        assert!(Config::parse("[audit]\nfoo = \"x\"").is_err());
        assert!(Config::parse("[bogus]\npaths = [\"x\"]").is_err());
        assert!(Config::parse("[lint.x]\npaths = 3").is_err());
    }
}
