//! The metric names this benchmark fixes, with unit and direction.
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step); the README says which end-to-end metric each per-layer metric
//! should move, and on which workload.

pub const WORKLOADS: [&str; 4] = [
    "population",
    "reweight_storm",
    "steady_spans",
    "whisper_sweep",
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Deterministic given the seed: `compare` demands equality, never a
    /// speed-up.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: false,
        exact: true,
    }
}

/// An exact figure where more is better (share of the ideal received).
const fn exact_share(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: true,
        exact: true,
    }
}

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [MetricSpec; 3] = [
    timing("setup_s", "s"),
    rate("quanta_per_s", "1/s"),
    timing("peak_rss_mb", "MB"),
];

/// Single layers; from the traced run. A metric that a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [MetricSpec; 88] = [
    // → setup_s
    timing("workloads.generate_s", "s"),
    timing("shard.new_s", "s"),
    timing("engine.new_s", "s"),
    timing("whisper.generate_s", "s"),
    // → quanta_per_s on population
    timing("shard.place_s", "s"),
    timing("shard.step_s", "s"),
    timing("shard.merge_s", "s"),
    timing("shard.render_s", "s"),
    exact("shard.render_bytes", "bytes"),
    exact("shard.max_share", "ratio"),
    exact("shard.migrations", "count"),
    timing("obs.registry_merge_ns", "ns"),
    timing("queue.radix_push_pop_ns.n64k", "ns"),
    timing("queue.heap_push_pop_ns.n64k", "ns"),
    timing("calendar.insert_take_ns", "ns"),
    timing("admission.request_ns", "ns"),
    // → quanta_per_s on reweight_storm
    timing("engine.step_ns_p50", "ns"),
    timing("engine.step_ns_p99", "ns"),
    timing("engine.step_ns_max", "ns"),
    exact("engine.step_samples", "count"),
    timing("engine.step_timing_ratio", "ratio"),
    timing("engine.static_twin_s", "s"),
    timing("reweight.event_cost_ns", "ns"),
    timing("engine.finish_s", "s"),
    timing("queue.radix_push_pop_ns.n4k", "ns"),
    timing("queue.heap_push_pop_ns.n4k", "ns"),
    exact("queue.ops_per_quantum", "ratio"),
    exact("queue.stale_pop_ratio", "ratio"),
    exact("queue.compactions", "count"),
    timing("shard.route_overhead_ratio", "ratio"),
    timing("obs.metrics_probe_ratio", "ratio"),
    timing("obs.trace_probe_ratio", "ratio"),
    exact("obs.probe_events", "count"),
    // The efficiency-versus-accuracy frontier on reweight_storm.
    timing("reweight.oi.run_s", "s"),
    exact("reweight.oi.max_event_drift_milli", "milliquanta"),
    exact("reweight.oi.max_drift_milli", "milliquanta"),
    exact_share("reweight.oi.pct_of_ideal", "%"),
    exact("reweight.oi.queue_ops_per_event", "ratio"),
    exact("reweight.oi.enact_ratio", "ratio"),
    timing("reweight.lj.run_s", "s"),
    exact("reweight.lj.max_event_drift_milli", "milliquanta"),
    exact("reweight.lj.max_drift_milli", "milliquanta"),
    exact_share("reweight.lj.pct_of_ideal", "%"),
    exact("reweight.lj.queue_ops_per_event", "ratio"),
    exact("reweight.lj.enact_ratio", "ratio"),
    timing("reweight.hybrid.run_s", "s"),
    exact("reweight.hybrid.max_event_drift_milli", "milliquanta"),
    exact("reweight.hybrid.max_drift_milli", "milliquanta"),
    exact_share("reweight.hybrid.pct_of_ideal", "%"),
    exact("reweight.hybrid.queue_ops_per_event", "ratio"),
    exact("reweight.hybrid.enact_ratio", "ratio"),
    // → quanta_per_s on steady_spans only
    rate("engine.driver.per_slot_slots_per_s.saturated", "1/s"),
    rate("engine.driver.tickless_slots_per_s.saturated", "1/s"),
    rate("engine.driver.busy_span_slots_per_s.saturated", "1/s"),
    rate("engine.driver.per_slot_slots_per_s.sparse", "1/s"),
    rate("engine.driver.tickless_slots_per_s.sparse", "1/s"),
    rate("engine.driver.busy_span_slots_per_s.sparse", "1/s"),
    timing("engine.busy_span.rearm_us_per_event", "us"),
    // → quanta_per_s on whisper_sweep (core.*: also reweight_storm)
    timing("core.rational_add_ns", "ns"),
    timing("core.rational_mul_ns", "ns"),
    timing("core.rational_cmp_ns", "ns"),
    timing("core.window_ns", "ns"),
    timing("core.isw_advance_ns_per_slot", "ns"),
    timing("core.ps_advance_ns_per_slot", "ns"),
    timing("queue.radix_push_pop_ns.n64", "ns"),
    timing("queue.heap_push_pop_ns.n64", "ns"),
    timing("whisper.sim_s", "s"),
    timing("whisper.summarize_s", "s"),
    timing("pool.dispatch_ns_per_item", "ns"),
    // Exact per workload: compared between commits, never a speed-up.
    exact("counters.heap_pushes", "count"),
    exact("counters.heap_pops", "count"),
    exact("counters.stale_pops", "count"),
    exact("counters.halts", "count"),
    exact("counters.reweight_initiations", "count"),
    exact("counters.reweight_enactments", "count"),
    exact("counters.preemptions", "count"),
    exact("counters.migrations", "count"),
    exact("counters.slots_with_holes", "count"),
    exact("counters.scheduled_quanta", "count"),
    exact("sched.deadline_misses", "count"),
    exact("accuracy.oi_max_event_drift_milli", "milliquanta"),
    exact("accuracy.oi_max_drift_milli", "milliquanta"),
    // The benchmark about itself.
    timing("bench.trace_overhead_ratio", "ratio"),
    timing("bench.span_coverage", "ratio"),
    timing("bench.run_s_spread", "ratio"),
    rate("bench.reps", "count"),
    rate("bench.machine_speed", "ratio"),
    rate("bench.wall_quanta_per_s", "1/s"),
];

pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// file does, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).unwrap().as_arr();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (entry, spec) in listed.iter().zip(specs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(spec.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(spec.unit),
                    "{}",
                    spec.name
                );
                let better = if spec.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(better),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
