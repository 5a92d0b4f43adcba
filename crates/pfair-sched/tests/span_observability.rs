//! Span-level observability at the engine boundary.
//!
//! Three contracts pinned here:
//!
//! 1. **One stream** — the per-entity event stream a probe receives
//!    from the default driver is bit-identical to the per-slot
//!    oracle's; only the clock differs, and there slot starts and quiet
//!    spans together cover every slot exactly once.
//! 2. **Exactness** — a `MetricsProbe` attached to a saturated
//!    100k-slot busy-span run scales its registry across the jumps
//!    bit-identically to the per-slot oracle, while the batcher
//!    actually jumps — alone and inside a `Fanout`, whose recorder half
//!    holds one `SpanArmed` per arming and one `BusySpanJump` per jump.
//! 3. **Overhead** — that same probed busy-span run stays within 3× of
//!    the `NoopProbe` busy-span run (generous floor for noisy CI
//!    machines; `benchmark/`'s `obs.metrics_probe_ratio` is the
//!    interleaved measurement of what the probe costs slot by slot).

use pfair_core::rational::rat;
use pfair_core::time::Slot;
use pfair_obs::{
    Fanout, FlightRecorder, FlightTrigger, MetricsProbe, NoopProbe, ObsEvent, Probe, SloConfig,
    SloMonitor, TraceRecorder,
};
use pfair_sched::admission::AdmissionPolicy;
use pfair_sched::engine::{simulate_with, Engine, SimConfig};
use pfair_sched::event::Workload;
use std::time::Instant;

/// A saturated uniform workload: `tasks` tasks of weight
/// `num/den` joining at slot 0. With `tasks * num == m * den` the
/// system is exactly saturated and periodic with period `den`.
fn uniform(tasks: u32, num: i128, den: i128) -> Workload {
    let mut w = Workload::new();
    for i in 0..tasks {
        w.join(i, 0, num, den);
    }
    w
}

// ---------------------------------------------------------------------
// 1. One stream: per-entity events are driver-independent.
// ---------------------------------------------------------------------

/// Keeps the clock (slot starts, quiet spans, busy-span armings and
/// jumps) apart from everything else the engine emits.
#[derive(Default)]
struct StreamLog {
    slots: Vec<Slot>,
    quiet_spans: Vec<(Slot, Slot)>,
    busy_spans: Vec<ObsEvent>,
    events: Vec<ObsEvent>,
}

impl Probe for StreamLog {
    fn on_event(&mut self, ev: ObsEvent) {
        match ev {
            ObsEvent::QuietSpan { from, to, .. } => self.quiet_spans.push((from, to)),
            ObsEvent::SpanArmed { .. } | ObsEvent::BusySpanJump { .. } => self.busy_spans.push(ev),
            _ => self.events.push(ev),
        }
    }
    fn on_slot_start(&mut self, t: Slot) {
        self.slots.push(t);
    }
}

/// A sparse workload whose quiet spans dominate the horizon.
fn sparse_workload() -> Workload {
    let mut w = Workload::new();
    for i in 0..5u32 {
        w.join(i, i64::from(i) * 7, 1, 90 + i128::from(i) * 11);
    }
    w.reweight(1, 500, 1, 70);
    w.delay(2, 600, 550);
    w.leave(4, 1_500);
    w
}

#[test]
fn per_entity_stream_is_bit_identical_across_drivers() {
    let w = sparse_workload();
    let cfg = SimConfig::oi(3, 2_500);
    let (oracle, slow) = simulate_with(cfg.clone().per_slot(), &w, StreamLog::default());
    let (fast_res, fast) = simulate_with(cfg, &w, StreamLog::default());
    assert_eq!(oracle.counters, fast_res.counters);
    assert!(
        slow.events
            .iter()
            .any(|e| matches!(e, ObsEvent::Release { .. })),
        "release batches must reach on_event"
    );
    assert_eq!(slow.events, fast.events, "per-entity stream diverged");

    // The clock: the oracle starts every slot and skips none; the
    // default driver collapses quiet spans, and slot starts ∪ spans
    // cover every slot exactly once.
    assert!(slow.quiet_spans.is_empty() && slow.busy_spans.is_empty());
    assert_eq!(slow.slots, (0..2_500).collect::<Vec<Slot>>());
    assert!(
        !fast.quiet_spans.is_empty(),
        "a sparse tickless run must collapse at least one quiet span"
    );
    let mut covered = fast.slots;
    for &(from, to) in &fast.quiet_spans {
        covered.extend(from..to);
    }
    covered.sort_unstable();
    assert_eq!(
        covered, slow.slots,
        "span arithmetic lost or invented slots"
    );
}

// ---------------------------------------------------------------------
// 2 + 3. Saturated 100k: exactness and the 3× overhead pin.
// ---------------------------------------------------------------------

#[test]
fn saturated_100k_metrics_probe_is_exact_within_overhead_budget() {
    // 12 tasks × 1/3 on M = 4: exactly saturated, period 3. Every slot
    // schedules 4 of 12 tasks; the busy-span batcher carries virtually
    // the whole horizon once armed.
    let w = uniform(12, 1, 3);
    let cfg = SimConfig::oi(4, 100_000);

    let noop_started = Instant::now();
    let mut noop_engine = Engine::with_probe(cfg.clone(), &w, NoopProbe);
    noop_engine.run();
    let noop_jumps = noop_engine.busy_span_jumps();
    let (noop_res, _) = noop_engine.finish_with_probe();
    let noop_time = noop_started.elapsed();

    let probed_started = Instant::now();
    let mut probed_engine = Engine::with_probe(cfg.clone(), &w, MetricsProbe::new());
    probed_engine.run();
    let probed_jumps = probed_engine.busy_span_jumps();
    let (probed_res, probed_metrics) = probed_engine.finish_with_probe();
    let probed_time = probed_started.elapsed();

    assert!(noop_jumps > 0, "noop run never jumped");
    assert!(
        probed_jumps > 0,
        "a probe must not disable busy-span batching"
    );
    assert_eq!(noop_res.counters, probed_res.counters);

    // Exactness: the registry scaled across the jumps equals the
    // per-slot oracle's hook-by-hook registry, bit for bit.
    let (_, oracle_metrics) = simulate_with(cfg.clone().per_slot(), &w, MetricsProbe::new());
    assert_eq!(
        oracle_metrics.registry().snapshot_text(),
        probed_metrics.registry().snapshot_text(),
        "span-aggregated registry diverged from the per-slot oracle at 100k slots"
    );

    // The same inside a `Fanout`, next to a recorder that must hold one
    // `SpanArmed` per arming and one `BusySpanJump` per jump, each jump
    // right after the arming it names (an arming with no jump is a
    // failed verification).
    let mut both = Engine::with_probe(cfg, &w, Fanout(TraceRecorder::new(), MetricsProbe::new()));
    both.run();
    let mix = both.driver_mix();
    let (_, Fanout(recorder, metrics)) = both.finish_with_probe();
    assert_eq!(
        oracle_metrics.registry().snapshot_text(),
        metrics.registry().snapshot_text(),
        "registry inside a Fanout diverged from the per-slot oracle"
    );
    let (mut arms, mut jumps, mut armed_at) = (0, 0, None);
    for &ev in recorder.events() {
        match ev {
            ObsEvent::SpanArmed { t0 } => {
                arms += 1;
                armed_at = Some(t0);
            }
            ObsEvent::BusySpanJump { t0, .. } => {
                jumps += 1;
                assert_eq!(armed_at.take(), Some(t0), "a jump without its arming");
            }
            _ => {}
        }
    }
    assert_eq!((arms, jumps), (mix.arms, mix.jumps));
    assert!(jumps > 0);
    let reg = probed_metrics.registry();
    assert_eq!(reg.counter("slots"), 100_000);
    assert_eq!(reg.counter("schedules"), 400_000);

    // Overhead pin: within 3× of the noop busy-span run, with a floor
    // so scheduler noise on tiny absolute times cannot flake the test.
    // (The precise interleaved measurement is `benchmark/`'s
    // `obs.metrics_probe_ratio`; this is the regression backstop.)
    let budget = (noop_time * 3).max(std::time::Duration::from_millis(250));
    assert!(
        probed_time <= budget,
        "probed busy-span run took {probed_time:?}, budget {budget:?} (noop {noop_time:?})"
    );
}

// ---------------------------------------------------------------------
// Flight recorder and SLO monitor riding a real engine run.
// ---------------------------------------------------------------------

#[test]
fn flight_and_slo_probes_capture_engine_misses() {
    // Trusting admission grants an infeasible load (total weight 5/2 on
    // one processor), so deadline misses are guaranteed.
    let mut w = Workload::new();
    for i in 0..5u32 {
        w.join(i, 0, 1, 2);
    }
    let cfg = SimConfig::oi(1, 64).with_admission(AdmissionPolicy::Trusting);
    let probe = Fanout(
        FlightRecorder::new(),
        SloMonitor::new(SloConfig {
            window: 32,
            max_misses: 0,
            drift_budget: Some(rat(1_000, 1)),
            max_reweight_latency: None,
        }),
    );
    let (res, Fanout(flight, slo)) = simulate_with(cfg, &w, probe);
    assert!(!res.misses.is_empty(), "overloaded run produced no misses");
    assert!(
        flight
            .incidents()
            .iter()
            .any(|i| i.trigger == FlightTrigger::DeadlineMiss),
        "flight recorder captured no deadline-miss incident"
    );
    assert!(flight.recent().count() > 0);
    assert_eq!(slo.misses_total(), u64::try_from(res.misses.len()).unwrap());
    assert!(!slo.is_clean(), "SLO monitor missed the miss-rate breach");
    assert!(slo.report().contains("miss_rate"));
}

#[test]
fn slo_monitor_stays_clean_and_samples_drift_on_feasible_runs() {
    let w = uniform(6, 1, 3);
    let cfg = SimConfig::oi(2, 5_000);
    let (res, slo) = simulate_with(cfg, &w, SloMonitor::new(SloConfig::default()));
    assert!(res.misses.is_empty());
    assert!(slo.is_clean());
    assert_eq!(slo.misses_total(), 0);
    // Era-opening releases sampled drift through the probe hook.
    let rendered = slo.to_json().to_string_pretty();
    assert!(rendered.contains("drift"), "report must carry drift data");
    assert!(slo.report().contains("no SLO breaches"));
}
