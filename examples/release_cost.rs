//! What one subtask release costs the ideal trackers.
//!
//! The engine's release path is: synchronize the task's `I_SW` and
//! `I_PS` trackers to the release slot, compute the window, register the
//! subtask with `I_SW`, push it on the ready queue and the calendar.
//! This replays the tracker and window part of that protocol stand-alone
//! — one task per weight of the `reweight_storm` benchmark (`1/d` and
//! `3/(2d)` for the divisors `d` of 480), released back to back — and
//! prints the rows of DESIGN.md's one-release table: the window alone,
//! with the `I_PS` synchronization, with the `I_SW` synchronization and
//! registration, and all three. Each figure is the mean over the weights
//! of the fastest of seven passes.
//!
//! ```text
//! cargo run --release --example release_cost
//! ```

use pfair_core::ideal::{IswTracker, PsTracker};
use pfair_core::rational::rat;
use pfair_core::weight::Weight;
use pfair_core::window::window_and_group_deadline;
use std::hint::black_box;
use std::time::Instant;

const STORM_DENS: [i128; 18] = [
    8, 10, 12, 15, 16, 20, 24, 30, 32, 40, 48, 60, 80, 96, 120, 160, 240, 480,
];
const RELEASES: u64 = 400_000;

/// Nanoseconds per release of one task of weight `w`.
fn ns_per_release(w: Weight, isw_on: bool, ps_on: bool) -> f64 {
    let mut isw = IswTracker::new(w.value(), 0);
    let mut ps = PsTracker::new(w.value(), 0);
    let (mut t, mut pred_b, mut completions) = (0, false, 0u64);
    let start = Instant::now();
    for k in 1..=RELEASES {
        if isw_on {
            isw.sync_to(t, |_, _| completions += 1);
        }
        if ps_on {
            ps.sync_to(t);
        }
        let (window, group_deadline) = window_and_group_deadline(black_box(w), k, t);
        black_box(group_deadline);
        if isw_on {
            isw.add_subtask(k, t, k == 1, pred_b);
        }
        pred_b = window.b;
        t = window.next_release();
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / RELEASES as f64;
    black_box((isw.isw_total(), ps.total(), completions));
    ns
}

fn main() {
    let weights: Vec<Weight> = STORM_DENS
        .iter()
        .flat_map(|&d| [rat(1, d), rat(3, 2 * d)])
        .map(Weight::new)
        .collect();
    let rows = [
        ("window", false, false),
        ("window + I_PS sync", false, true),
        ("window + I_SW sync and add", true, false),
        ("window + both trackers", true, true),
    ];
    for (name, isw_on, ps_on) in rows {
        let fastest = |&w: &Weight| {
            (0..7)
                .map(|_| ns_per_release(w, isw_on, ps_on))
                .fold(f64::MAX, f64::min)
        };
        let mean = weights.iter().map(fastest).sum::<f64>() / weights.len() as f64;
        println!("{name:28} {mean:6.1} ns per release");
    }
}
