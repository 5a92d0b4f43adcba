//! `run`, `aa` and `spread`: every workload, each in a child process of its own
//! (so `peak_rss_mb` is the workload's and one workload's allocator
//! state cannot leak into the next), gathered into one results file.

use crate::compare;
use crate::json::Json;
use crate::spec;
use crate::stats;
use crate::{detail_path, out_dir, write_out, Flags, DEFAULT_SECONDS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Seconds per workload of `run --smoke` (the reduced sizes finish three
/// repetitions in less).
const SMOKE_SECONDS: f64 = 0.5;

struct Set {
    seed: u64,
    seconds: f64,
    smoke: bool,
}

/// First line of a command's stdout, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers were measured on.
fn stamp(set: &Set) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        ("nproc", Json::Num(nproc as f64)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(set.seed as f64)),
        ("seconds", Json::Num(set.seconds)),
        ("size", Json::str(if set.smoke { "Smoke" } else { "Full" })),
    ])
}

/// Runs each of `workloads` once per entry of `traced`, each in a child
/// process, and gathers the detail files the children leave.
fn run_set(set: &Set, traced: &[bool], workloads: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut runs = Vec::new();
    for &trace in traced {
        for &workload in workloads {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload])
                .args(["--seed", &set.seed.to_string()])
                .args(["--seconds", &set.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if set.smoke {
                child.args(["--smoke", "1"]);
            }
            let status = child
                .status()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            if !status.success() {
                return Err(format!("workload {workload} exited with {status}"));
            }
            let path = detail_path(workload, trace);
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.push(Json::parse(&text)?);
        }
    }
    Ok(Json::obj([
        ("stamp", stamp(set)),
        ("runs", Json::Arr(runs)),
    ]))
}

/// Reports the runs that failed a check; `true` when none did.
fn all_correct(docs: &[Json]) -> bool {
    let failed: Vec<&str> = docs
        .iter()
        .flat_map(|doc| doc.get("runs").map_or(&[][..], Json::as_arr))
        .filter(|r| r.get("correct") != Some(&Json::Bool(true)))
        .map(|r| r.get("workload").and_then(Json::as_str).unwrap_or("?"))
        .collect();
    if !failed.is_empty() {
        eprintln!("checks failed on: {}", failed.join(", "));
    }
    failed.is_empty()
}

fn parse_set(flags: &Flags) -> Result<Set, String> {
    let smoke = flags.on("smoke");
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    };
    Ok(Set {
        seed: flags.seed()?,
        seconds: flags.number("seconds", default_seconds)?,
        smoke,
    })
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "trace", "smoke", "out"])?;
    let set = parse_set(&flags)?;
    let doc = run_set(&set, &[flags.on("trace")], &spec::WORKLOADS)?;
    let out = flags
        .get("out")
        .map_or_else(|| out_dir().join("results.json"), PathBuf::from);
    write_out(&out, &doc.render_pretty())?;
    println!("results written to {}", out.display());
    Ok(exit_code(all_correct(&[doc])))
}

fn exit_code(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two full sets (untraced and traced) of the same build, back to back,
/// through `compare`: what the bounds in `BENCHMARK.json` must absorb.
pub fn aa(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["seed", "seconds", "smoke"])?;
    let set = parse_set(&flags)?;
    let paths = [out_dir().join("aa.a.json"), out_dir().join("aa.b.json")];
    let mut docs = Vec::new();
    for path in &paths {
        let doc = run_set(&set, &[false, true], &spec::WORKLOADS)?;
        write_out(path, &doc.render_pretty())?;
        docs.push(doc);
    }
    let bounds = compare::load_bounds()?;
    let rows = compare::compare_docs(&docs[0], &docs[1], &bounds);
    compare::print_rows(&rows);
    let observed = out_dir().join("aa.json");
    write_out(&observed, &compare::rows_to_json(&rows).render_pretty())?;
    println!(
        "A/A deltas and repetition spreads beside each bound: {}",
        observed.display()
    );
    Ok(exit_code(all_correct(&docs) && compare::passes(&rows)))
}

/// The contract's own steadiness test: every workload `runs` times, each
/// with another seed, and per end-to-end metric the distance between the
/// first and third quartile as a share of the median.
pub fn spread(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["runs", "seed", "seconds", "smoke"])?;
    let set = parse_set(&flags)?;
    let runs: u64 = flags.number("runs", 10)?;
    let bounds = compare::load_bounds()?;
    let mut steady = true;
    let mut lines = Vec::new();
    for workload in spec::WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for i in 0..runs {
            let one = Set {
                seed: set.seed + i,
                ..set
            };
            let doc = run_set(&one, &[false], &[workload])?;
            let run = &doc.get("runs").map_or(&[][..], Json::as_arr)[0];
            for (metric, values) in spec::END_TO_END.iter().zip(&mut values) {
                let sample = compare::sample(run, metric.name)
                    .ok_or_else(|| format!("{workload}: no {}", metric.name))?;
                values.push(sample.value);
            }
        }
        for (metric, values) in spec::END_TO_END.iter().zip(&values) {
            let spread = stats::quartile_spread(values);
            let bound = bounds.get(metric.name).copied().unwrap_or(0.0);
            // `setup_s` is exempt from the spread rule (not from the
            // median rule).
            let ok = spread <= bound / 3.0 || metric.name == "setup_s";
            steady &= ok;
            lines.push(format!(
                "{workload:<15} {:<14} median {:>16.6} {:<4} quartile spread {:>6.2}%  bound {:>3.0}%  {}",
                metric.name,
                stats::median(values),
                metric.unit,
                spread * 100.0,
                bound * 100.0,
                if ok { "steady" } else { "above a third of the bound" }
            ));
        }
    }
    println!(
        "\n{runs} runs per workload, seeds {}..{}",
        set.seed,
        set.seed + runs
    );
    for line in lines {
        println!("{line}");
    }
    Ok(exit_code(steady))
}
