//! Experiment driver: regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md's experiment index).
//!
//! ```text
//! pfair-experiments all                # everything below but `room`
//! pfair-experiments fig11-speed        # Fig. 11 (a) + (b)
//! pfair-experiments fig11-radius       # Fig. 11 (c) + (d)
//! pfair-experiments counterexamples    # Figs. 6, 8, 9 with exact drift values
//! pfair-experiments windows            # Figs. 1, 3/7 ideal-allocation tables
//! pfair-experiments tradeoff           # hybrid efficiency-vs-accuracy ladder
//! pfair-experiments baselines          # EDF / partitioned comparison
//! pfair-experiments extensions         # Whisper with the §5 assumptions relaxed
//! pfair-experiments scaling            # system-size scaling, tie-break ablation
//! pfair-experiments sharding           # ShardSet scale-out sweep
//! pfair-experiments room               # Fig. 10's room, written to whisper_room.svg
//!
//! options: --runs N     (default 61, the paper's replication count)
//!          --csv DIR    (also write the Fig. 11 curves as CSV files)
//!          --threads N  (worker threads; default: available parallelism)
//! ```

mod baselines;
mod counterexamples;
mod csv_out;
mod extensions;
mod fig11;
mod runner;
mod scaling;
mod sharding;
mod tradeoff;
mod windows;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut runs: u64 = 61;
    let mut csv: Option<std::path::PathBuf> = None;
    let mut command = String::from("all");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--runs" => {
                runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--runs needs a number"));
            }
            "--csv" => {
                csv = Some(
                    it.next()
                        .map_or_else(|| die("--csv needs a directory"), std::path::PathBuf::from),
                );
            }
            "--threads" => {
                runner::set_threads(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--threads needs a number >= 1")),
                );
            }
            "--help" | "-h" => {
                print_help();
                return;
            }
            c if !c.starts_with('-') => command = c.to_string(),
            other => die(&format!("unknown option {other}")),
        }
    }

    match command.as_str() {
        "all" => {
            windows::run_all();
            counterexamples::run_all();
            fig11::run_speed_insets_csv(runs, csv.as_deref());
            fig11::run_radius_insets_csv(runs, csv.as_deref());
            tradeoff::run(runs);
            baselines::run(runs);
            extensions::run(runs);
            scaling::run(runs);
            sharding::run(runs);
        }
        "fig11-speed" | "fig11a" | "fig11b" => fig11::run_speed_insets_csv(runs, csv.as_deref()),
        "fig11-radius" | "fig11c" | "fig11d" => fig11::run_radius_insets_csv(runs, csv.as_deref()),
        "counterexamples" => counterexamples::run_all(),
        "windows" => windows::run_all(),
        "tradeoff" => tradeoff::run(runs),
        "baselines" => baselines::run(runs),
        "extensions" => extensions::run(runs),
        "scaling" => scaling::run(runs),
        "sharding" => sharding::run(runs),
        "room" => {
            // Fig. 10: the simulated Whisper room, written as SVG.
            let sc = whisper_sim::Scenario::new(2.9, 0.25, true, 7);
            let svg = whisper_sim::room_svg::render_room(&sc, 0);
            let path = "whisper_room.svg";
            std::fs::write(path, svg).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
            println!("wrote {path} (Fig. 10: room, microphones, pole, trajectories)");
        }
        other => die(&format!("unknown command {other}")),
    }
}

fn print_help() {
    println!(
        "usage: pfair-experiments [all|fig11-speed|fig11-radius|counterexamples|windows|tradeoff|baselines|extensions|scaling|sharding|room] [--runs N] [--threads N] [--csv DIR]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    print_help();
    std::process::exit(2)
}
