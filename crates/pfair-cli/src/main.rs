//! The `pfair` command-line tool.
//!
//! ```text
//! pfair run <workload-file> [--render] [--verify]
//! pfair trace [--whisper SEED] [--scheme oi|lj] [--horizon N] [--top K] [--out FILE]
//!             [--flight FILE]
//! pfair slo [--whisper SEED] [--scheme oi|lj] [--horizon N] [--window W]
//!           [--max-misses K] [--drift-budget N[/D]] [--max-reweight-latency L]
//!           [--out FILE]
//! pfair snapshot <workload-file> [--at K] --out FILE [--metrics-out FILE]
//! pfair resume <snapshot-file> [--until K --snapshot-out FILE]
//!              [--metrics-in FILE] [--metrics-out FILE] [--json OUT]
//! pfair example                 # print a documented sample file
//! ```

use pfair_cli::slocmd::parse_budget;
use pfair_cli::tracecmd::parse_scheme;
use pfair_cli::{parser, run_file, RunOptions};
use std::str::FromStr;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let Some(path) = args.get(1) else {
                die("run needs a workload file");
            };
            let opts = RunOptions {
                render: args.iter().any(|a| a == "--render"),
                verify: args.iter().any(|a| a == "--verify"),
            };
            let json_path = args
                .iter()
                .position(|a| a == "--json")
                .and_then(|i| args.get(i + 1))
                .cloned();
            let svg_path = args
                .iter()
                .position(|a| a == "--svg")
                .and_then(|i| args.get(i + 1))
                .cloned();
            match run_file(path, opts) {
                Ok((report, result)) => {
                    print!("{report}");
                    if let Some(p) = json_path {
                        std::fs::write(&p, pfair_cli::to_json(&result))
                            .unwrap_or_else(|e| die(&format!("writing {p}: {e}")));
                        println!("wrote {p}");
                    }
                    if let Some(p) = svg_path {
                        let svg = pfair_sched::svg::render_svg(&result, result.horizon);
                        std::fs::write(&p, svg)
                            .unwrap_or_else(|e| die(&format!("writing {p}: {e}")));
                        println!("wrote {p}");
                    }
                    if !result.is_miss_free() {
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("trace") => {
            let mut opts = pfair_cli::tracecmd::TraceOptions::default();
            let mut out_path = String::from("trace.json");
            let mut flight_path: Option<String> = None;
            let mut it = args.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--whisper" => opts.seed = value(&mut it, "--whisper", "a seed number"),
                    "--scheme" => {
                        opts.scheme = parsed(&mut it, "--scheme", "'oi' or 'lj'", parse_scheme);
                    }
                    "--horizon" => opts.horizon = positive(&mut it, "--horizon"),
                    "--top" => opts.top = value(&mut it, "--top", "a number"),
                    "--out" => out_path = file_path(&mut it, "--out"),
                    "--flight" => {
                        opts.flight = true;
                        flight_path = Some(file_path(&mut it, "--flight"));
                    }
                    other => die(&format!("unknown trace option {other}")),
                }
            }
            let (report, chrome, flight) = pfair_cli::tracecmd::run_trace(&opts);
            print!("{report}");
            std::fs::write(&out_path, chrome.to_string_pretty())
                .unwrap_or_else(|e| die(&format!("writing {out_path}: {e}")));
            println!("wrote {out_path} (load in Perfetto or chrome://tracing)");
            if let (Some(p), Some(dump)) = (flight_path, flight) {
                std::fs::write(&p, dump.to_string_pretty())
                    .unwrap_or_else(|e| die(&format!("writing {p}: {e}")));
                println!("wrote {p} (flight-recorder dump)");
            }
        }
        Some("slo") => {
            let mut opts = pfair_cli::slocmd::SloOptions::default();
            let mut out_path: Option<String> = None;
            let mut it = args.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--whisper" => opts.seed = value(&mut it, "--whisper", "a seed number"),
                    "--scheme" => {
                        opts.scheme = parsed(&mut it, "--scheme", "'oi' or 'lj'", parse_scheme);
                    }
                    "--horizon" => opts.horizon = positive(&mut it, "--horizon"),
                    "--window" => opts.window = positive(&mut it, "--window"),
                    "--max-misses" => opts.max_misses = value(&mut it, "--max-misses", "a number"),
                    "--drift-budget" => {
                        opts.drift_budget =
                            Some(parsed(&mut it, "--drift-budget", "N or N/D", parse_budget));
                    }
                    "--max-reweight-latency" => {
                        opts.max_reweight_latency =
                            Some(value(&mut it, "--max-reweight-latency", "a number"));
                    }
                    "--out" => out_path = Some(file_path(&mut it, "--out")),
                    other => die(&format!("unknown slo option {other}")),
                }
            }
            let (report, json) = pfair_cli::slocmd::run_slo(&opts);
            print!("{report}");
            if let Some(p) = out_path {
                std::fs::write(&p, json.to_string_pretty())
                    .unwrap_or_else(|e| die(&format!("writing {p}: {e}")));
                println!("wrote {p} (SLO dump)");
            }
        }
        Some("snapshot") => {
            let Some(path) = args.get(1) else {
                die("snapshot needs a workload file");
            };
            let mut opts = pfair_cli::persistcmd::SnapshotOptions::default();
            let mut it = args.iter().skip(2);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--at" => opts.at = Some(value(&mut it, "--at", "a slot number")),
                    "--out" => opts.out = file_path(&mut it, "--out"),
                    "--metrics-out" => opts.metrics_out = Some(file_path(&mut it, "--metrics-out")),
                    other => die(&format!("unknown snapshot option {other}")),
                }
            }
            if opts.out.is_empty() {
                die("snapshot needs --out FILE");
            }
            match pfair_cli::persistcmd::snapshot_file(path, &opts) {
                Ok(report) => print!("{report}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("resume") => {
            let Some(path) = args.get(1) else {
                die("resume needs a snapshot file");
            };
            let mut opts = pfair_cli::persistcmd::ResumeOptions::default();
            let mut it = args.iter().skip(2);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--until" => opts.until = Some(value(&mut it, "--until", "a slot number")),
                    "--snapshot-out" => {
                        opts.snapshot_out = Some(file_path(&mut it, "--snapshot-out"));
                    }
                    "--metrics-in" => opts.metrics_in = Some(file_path(&mut it, "--metrics-in")),
                    "--metrics-out" => opts.metrics_out = Some(file_path(&mut it, "--metrics-out")),
                    "--json" => opts.json_out = Some(file_path(&mut it, "--json")),
                    other => die(&format!("unknown resume option {other}")),
                }
            }
            match pfair_cli::persistcmd::resume_file(path, &opts) {
                Ok((report, _)) => print!("{report}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            }
        }
        Some("example") => print!("{}", parser::EXAMPLE),
        Some("--help") | Some("-h") | None => usage(),
        Some(other) => {
            eprintln!("error: unknown command '{other}'");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    println!("usage: pfair run <workload-file> [--render] [--verify] [--json OUT] [--svg OUT]");
    println!(
        "       pfair trace [--whisper SEED] [--scheme oi|lj] [--horizon N] [--top K] [--out FILE]"
    );
    println!("                   [--flight FILE]");
    println!("       pfair slo [--whisper SEED] [--scheme oi|lj] [--horizon N] [--window W]");
    println!("                 [--max-misses K] [--drift-budget N[/D]] [--max-reweight-latency L]");
    println!("                 [--out FILE]");
    println!("       pfair snapshot <workload-file> [--at K] --out FILE [--metrics-out FILE]");
    println!("       pfair resume <snapshot-file> [--until K --snapshot-out FILE]");
    println!("                    [--metrics-in FILE] [--metrics-out FILE] [--json OUT]");
    println!("       pfair example");
}

/// The argument after `flag` as `parse` reads it; without one, or with
/// one it rejects, the run ends with `<flag> needs <what>`.
fn parsed<'a, T>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    what: &str,
    parse: impl FnOnce(&'a str) -> Option<T>,
) -> T {
    it.next()
        .and_then(|v| parse(v))
        .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
}

fn value<'a, T: FromStr>(it: &mut impl Iterator<Item = &'a String>, flag: &str, what: &str) -> T {
    parsed(it, flag, what, |v| v.parse().ok())
}

fn positive<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> i64 {
    parsed(it, flag, "a positive number", |v| {
        v.parse().ok().filter(|&n| n > 0)
    })
}

fn file_path<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> String {
    value(it, flag, "a file path")
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2)
}
