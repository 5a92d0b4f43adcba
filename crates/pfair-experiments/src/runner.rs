//! Deterministic scoped-thread fan-out for independent simulation runs.
//!
//! Every experiment in this crate is an embarrassingly parallel sweep:
//! a list of independent, seeded configurations, each simulated by a
//! pure function of its inputs. The pool itself now lives in
//! [`pfair_core::pool`] (the shard supervisor in `pfair-sched` drives
//! the same machinery); this module keeps the experiment-facing CLI
//! policy: the `--threads` override.
//!
//! The worker count comes from the `--threads` CLI override, else the
//! machine's available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};

use pfair_core::pool::par_map_threads;

/// Process-wide override set by the `--threads` CLI flag (0 = unset).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Installs a process-wide worker-count override (the `--threads` CLI
/// flag).
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.max(1), Ordering::Relaxed);
}

/// Resolves the worker-thread count: CLI override, else the machine's
/// available parallelism.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced >= 1 {
        return forced;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on the configured worker pool, returning
/// results in input order (identical to `items.into_iter().map(f)`).
///
/// Panics in `f` are propagated to the caller, as they would be
/// serially — a failed assertion inside one run still aborts the sweep.
pub fn par_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    par_map_threads(threads(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mixed PD²-OI / PD²-LJ / hybrid job list over phase-staggered
    /// sawtooth workloads: 12 jobs, three schemes × four periods.
    fn mixed_scheme_jobs() -> Vec<(SimConfig, pfair_sched::event::Workload)> {
        use pfair_sched::reweight::{HybridPolicy, Scheme};
        let horizon = 400;
        let mut jobs = Vec::new();
        for period in [90i64, 100, 110, 120] {
            let w = workloads::sawtooth(12, (1, 24), (1, 6), period, horizon);
            jobs.push((SimConfig::oi(4, horizon), w.clone()));
            jobs.push((SimConfig::leave_join(4, horizon), w.clone()));
            jobs.push((
                SimConfig::oi(4, horizon).with_scheme(Scheme::Hybrid(HybridPolicy::EveryNth(2))),
                w,
            ));
        }
        jobs
    }

    fn render(results: &[pfair_sched::trace::SimResult]) -> Vec<String> {
        use pfair_json::ToJson;
        results.iter().map(ToJson::to_json_compact).collect()
    }

    use pfair_sched::engine::{simulate, SimConfig};
    use pfair_sched::workloads;

    #[test]
    fn parallel_sim_results_are_byte_identical_to_serial() {
        // Ground truth: a plain serial map over the job list.
        let serial: Vec<String> = mixed_scheme_jobs()
            .into_iter()
            .map(|(cfg, w)| simulate(cfg, &w))
            .map(|r| render(&[r]).remove(0))
            .collect();
        // The same jobs through worker pools of several widths must
        // reproduce every SimResult — drift tracks, misses, counters,
        // subtask histories — byte for byte, in the same order.
        for workers in [1, 2, 4, 8] {
            let results =
                par_map_threads(workers, mixed_scheme_jobs(), |(cfg, w)| simulate(cfg, &w));
            assert_eq!(
                render(&results),
                serial,
                "parallel output diverged at {workers} workers"
            );
        }
        // And through the default-width entry point used by sweeps.
        let swept = par_map(mixed_scheme_jobs(), |(cfg, w)| simulate(cfg, &w));
        assert_eq!(render(&swept), serial);
    }

    #[test]
    fn probed_runs_are_byte_identical_across_pool_widths() {
        use pfair_sched::engine::simulate_with;
        use pfair_sched::prelude::{Fanout, MetricsProbe, TraceRecorder};

        // Each job's full observability output — the ordered event
        // stream, the Chrome trace, and the canonical metrics snapshot
        // — rendered to one string.
        let observe =
            |jobs: Vec<(SimConfig, pfair_sched::event::Workload)>, workers: usize| -> Vec<String> {
                par_map_threads(workers, jobs, |(cfg, w)| {
                    let (_, Fanout(rec, metrics)) =
                        simulate_with(cfg, &w, Fanout(TraceRecorder::new(), MetricsProbe::new()));
                    let events: Vec<String> = rec
                        .events()
                        .iter()
                        .map(pfair_json::ToJson::to_json_compact)
                        .collect();
                    format!(
                        "{}\n{}\n{}",
                        events.join("\n"),
                        rec.chrome_trace(),
                        metrics.registry().snapshot_text()
                    )
                })
            };
        let serial = observe(mixed_scheme_jobs(), 1);
        assert!(serial.iter().any(|s| s.contains("reweight_initiated")));
        let wide = observe(mixed_scheme_jobs(), 4);
        assert_eq!(serial, wide, "probe output diverged across pool widths");
    }
}
