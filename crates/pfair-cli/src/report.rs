//! Human-readable run reports for the CLI.

use pfair_core::rational::Rational;
use pfair_sched::overhead::DriverMix;
use pfair_sched::render::{render_task, ruler};
use pfair_sched::trace::SimResult;
use std::fmt::Write as _;

/// Formats the per-task summary table and run totals.
pub fn summary(result: &SimResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} processors, {} slots, {} deadline miss(es)",
        result.processors,
        result.horizon,
        result.misses.len()
    );
    let _ = writeln!(
        out,
        "{:<6} {:>9} {:>12} {:>12} {:>14} {:>12}",
        "task", "quanta", "ideal (IPS)", "% of ideal", "drift(end)", "max |Δdrift|"
    );
    for task in &result.tasks {
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>12} {:>12} {:>14} {:>12}",
            task.id.to_string(),
            task.scheduled_count,
            format_rat(task.ps_total),
            task.pct_of_ideal()
                .map_or_else(|| "-".into(), |p| format!("{p:.2}")),
            format_rat(task.drift.at(result.horizon)),
            format_rat(task.drift.max_abs_delta()),
        );
    }
    let c = &result.counters;
    let _ = writeln!(
        out,
        "events: {} initiated, {} enacted, {} halts; heap ops {}; migrations {}; preemptions {}",
        c.reweight_initiations,
        c.reweight_enactments,
        c.halts,
        c.heap_ops(),
        c.migrations,
        c.preemptions
    );
    let _ = writeln!(
        out,
        "queue: {} stale pops; {} compaction(s) dropping {} stale entries",
        c.stale_pops, c.compactions, c.compacted_stale
    );
    out
}

/// Which rung of the driver ladder covered the run, and what the
/// busy-span verifier did (`pfair resume`) — empty unless a span rung
/// ran at all. History runs, `pfair run` among them, step every slot.
pub fn driver_mix(mix: &DriverMix) -> String {
    if mix.quiet_span_slots + mix.busy_span_slots == 0 {
        return String::new();
    }
    format!(
        "driver: {} slots stepped, {} skipped (quiet spans), {} jumped (busy spans)\n\
         busy spans: {} armed on {} period scans; {} jumped, {} rotating (longest ×{}), \
         {} mismatched (longest wait {} slots)\n",
        mix.per_slot_slots,
        mix.quiet_span_slots,
        mix.busy_span_slots,
        mix.arms,
        mix.period_scans,
        mix.jumps,
        mix.cpu_rotations,
        mix.longest_rotation,
        mix.mismatches,
        mix.longest_backoff,
    )
}

/// Formats the window diagrams of every task (history mode required).
pub fn diagrams(result: &SimResult) -> String {
    let mut out = String::new();
    let horizon = result.horizon.min(120); // keep lines terminal-sized
    let _ = writeln!(out, "{}", ruler(horizon));
    for task in &result.tasks {
        if let Some(hist) = &task.history {
            out.push_str(&render_task(&task.id.to_string(), hist, horizon));
        }
    }
    out
}

fn format_rat(r: Rational) -> String {
    if r.is_integer() {
        format!("{}", r.numer())
    } else {
        format!("{:.3}", r.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_sched::engine::{simulate, Engine, SimConfig};
    use pfair_sched::event::Workload;

    #[test]
    fn summary_contains_each_task_and_totals() {
        let mut w = Workload::new();
        w.join(0, 0, 1, 2);
        w.join(1, 0, 1, 4);
        w.reweight(1, 8, 1, 2);
        let r = simulate(SimConfig::oi(1, 40).with_history(), &w);
        let s = summary(&r);
        assert!(s.contains("T0"));
        assert!(s.contains("T1"));
        assert!(s.contains("0 deadline miss(es)"));
        assert!(s.contains("1 initiated"));
        assert!(s.contains("stale pops"));
        assert!(s.contains("compaction(s)"));
    }

    /// Only event-driven runs leave the per-slot rung; their report says
    /// where the slots went.
    #[test]
    fn driver_mix_is_reported_once_a_span_rung_ran() {
        let mut w = Workload::new();
        for id in 0..4 {
            w.join(id, 0, 1, 2);
        }
        let mut stepped = Engine::new(SimConfig::oi(2, 400).with_history(), &w);
        stepped.run();
        assert_eq!(driver_mix(&stepped.driver_mix()), "");
        let mut spans = Engine::new(SimConfig::oi(2, 400), &w);
        spans.run();
        let line = driver_mix(&spans.driver_mix());
        assert!(line.starts_with("driver: "), "{line}");
        assert!(line.contains("jumped (busy spans)") && line.contains(" armed on "));
        assert!(!line.contains("driver: 400 slots stepped"), "{line}");
    }

    #[test]
    fn diagrams_render_windows() {
        let mut w = Workload::new();
        w.join(0, 0, 2, 5);
        let r = simulate(SimConfig::oi(1, 20).with_history(), &w);
        let d = diagrams(&r);
        // A lone task is scheduled at each release, so the 'X' marks
        // overwrite the '[' marks; the deadline marks survive.
        assert!(d.contains(')'));
        assert!(d.contains('X'));
    }
}
