//! # pfair-cli
//!
//! Library backing the `pfair` command-line tool: parse a workload file
//! ([`parser`]), run it through the PD² engine, and render reports
//! ([`report`]). The binary in `main.rs` is a thin shell over
//! [`run_file`].

// The CLI computes nothing in floats; it formats the report floats the
// engine hands it. A float type or float arithmetic is clippy's to flag
// (`clippy.toml` lists `f64` and `f32`).
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::float_arithmetic))]

pub mod parser;
pub mod persistcmd;
pub mod report;
pub mod slocmd;
pub mod tracecmd;

use pfair_sched::engine::simulate;
use pfair_sched::trace::SimResult;
use pfair_sched::verify::verify;

/// Options for a CLI run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOptions {
    /// Print window diagrams after the summary.
    pub render: bool,
    /// Run the independent schedule verifier and report violations.
    pub verify: bool,
}

/// Parses and runs a workload file's contents; returns the formatted
/// report and the raw result.
pub fn run_str(input: &str, opts: RunOptions) -> Result<(String, SimResult), parser::ParseError> {
    let spec = parser::parse(input)?;
    let result = simulate(spec.config, &spec.workload);
    let mut out = report::summary(&result);
    if opts.render {
        out.push('\n');
        out.push_str(&report::diagrams(&result));
    }
    if opts.verify {
        let violations = verify(&result);
        if violations.is_empty() {
            out.push_str("\nverification: OK (windows, schedule, capacity, misses, lag)\n");
        } else {
            out.push_str("\nverification FAILED:\n");
            for violation in violations {
                out.push_str(&format!("  - {violation}\n"));
            }
        }
    }
    Ok((out, result))
}

/// [`run_str`] over a file path.
pub fn run_file(path: &str, opts: RunOptions) -> Result<(String, SimResult), String> {
    let input = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    run_str(&input, opts).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_runs_clean() {
        let (out, result) = run_str(
            parser::EXAMPLE,
            RunOptions {
                render: true,
                verify: true,
            },
        )
        .unwrap();
        assert!(result.is_miss_free());
        assert!(out.contains("verification: OK"));
        assert!(out.contains("T0"));
        assert!(out.contains('['), "diagrams rendered");
    }

    #[test]
    fn parse_errors_surface() {
        let e = run_str("junk\n", RunOptions::default()).unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn json_export_parses_to_the_result() {
        use pfair_json::{Json, ToJson};
        let (_, result) = run_str(parser::EXAMPLE, RunOptions::default()).unwrap();
        let parsed = Json::parse(&result.to_json_pretty()).unwrap();
        assert_eq!(parsed.field::<i64>("horizon").unwrap(), result.horizon);
        let Some(Json::Array(tasks)) = parsed.get("tasks") else {
            panic!("tasks missing");
        };
        assert_eq!(tasks.len(), result.tasks.len());
        let misses = parsed.get("misses").expect("misses");
        assert_eq!(misses.to_json_compact(), result.misses.to_json_compact());
    }

    #[test]
    fn lj_scheme_runs() {
        let input = "processors 1\nhorizon 40\nscheme lj\njoin 0 0 1/4\nreweight 0 5 1/2\n";
        let (_, result) = run_str(input, RunOptions::default()).unwrap();
        assert!(result.is_miss_free());
        assert_eq!(result.counters.reweight_initiations, 1);
    }
}
