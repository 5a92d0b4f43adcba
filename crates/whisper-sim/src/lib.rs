//! # whisper-sim
//!
//! A simulation of the **Whisper** acoustic tracking system (Vallidis,
//! UNC 2002) as the adaptive real-time workload of the paper's
//! evaluation (§5): three speakers revolve around a 5 cm pole in a
//! 1 m × 1 m room with microphones in the corners; one task per
//! speaker/microphone pair performs the correlation computation whose
//! cost — and hence processor share — follows the pair's acoustic
//! distance, occlusions included.
//!
//! * [`geometry`] — room geometry and pole occlusion (shortest path
//!   around a circle).
//! * [`acoustics`] — the calibrated correlation cost model mapping
//!   acoustic distance to a (quantized) task weight ≤ 1/3.
//! * [`scenario`] — speaker motion and workload generation (joins plus
//!   a reweight request per 5 cm of distance change).
//! * [`stats`] — means and the 98% confidence intervals the paper's
//!   graphs carry.
//! * [`extensions`] — the paper's simplifying assumptions, lifted
//!   (3-D motion, ambient noise, interference, variable speed).
//! * [`room_svg`] — Fig. 10 as code: the room rendered as SVG with
//!   live speaker positions and occluded sight-lines.
//!
//! [`run_whisper`] glues a scenario to the `pfair-sched` engine and
//! extracts the two metrics Fig. 11 plots: maximum drift at time 1,000
//! and per-task average percentage of the `I_PS` allocation.

pub mod acoustics;
pub mod extensions;
pub mod geometry;
pub mod room_svg;
pub mod scenario;
pub mod stats;

use pfair_core::time::Slot;
use pfair_obs::{NoopProbe, Probe};
use pfair_sched::engine::{simulate_with, SimConfig};
use pfair_sched::overhead::Counters;
use pfair_sched::reweight::Scheme;
pub use scenario::{generate_workload, Scenario, HORIZON, PROCESSORS};
pub use stats::{summarize, Summary};

/// The two Fig. 11 metrics (plus overhead counters) of one run.
#[derive(Clone, Copy, Debug)]
pub struct WhisperMetrics {
    /// Maximum `|drift(T, 1000)|` over all tasks, in quanta
    /// (Fig. 11(a)/(c)).
    pub max_drift: f64,
    /// Per-task average of completed work as % of the `I_PS` allocation
    /// (Fig. 11(b)/(d)).
    pub pct_of_ideal: f64,
    /// Deadline misses observed (0 under PD²-OI, Theorem 2).
    pub misses: usize,
    /// Overhead counters (the efficiency axis of the trade-off).
    pub counters: Counters,
}

/// Runs one Whisper scenario under the given reweighting scheme on the
/// paper's four-processor, 1 ms-quantum system.
pub fn run_whisper(sc: &Scenario, scheme: Scheme) -> WhisperMetrics {
    run_whisper_probed(sc, scheme, HORIZON, NoopProbe).0
}

/// [`run_whisper`] up to `horizon`, observed through a probe: every
/// engine event of the Whisper run (releases, reweights with per-event
/// cost, tracker jumps, …) is reported to `probe`, which is handed back
/// alongside the metrics. Used by `pfair-cli trace` to render a full
/// Chrome trace of a scenario.
pub fn run_whisper_probed<P: Probe>(
    sc: &Scenario,
    scheme: Scheme,
    horizon: Slot,
    probe: P,
) -> (WhisperMetrics, P) {
    let workload = generate_workload(sc);
    let config = SimConfig::oi(PROCESSORS, horizon).with_scheme(scheme);
    let (result, probe) = simulate_with(config, &workload, probe);
    (
        WhisperMetrics {
            max_drift: result.max_abs_drift_at(horizon).to_f64(),
            pct_of_ideal: result.mean_pct_of_ideal(),
            misses: result.misses.len(),
            counters: result.counters,
        },
        probe,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oi_run_is_miss_free_and_low_drift() {
        let sc = Scenario::new(2.0, 0.25, true, 3);
        let m = run_whisper(&sc, Scheme::Oi);
        assert_eq!(m.misses, 0);
        assert!(m.pct_of_ideal > 50.0);
    }

    #[test]
    fn lj_run_is_also_miss_free_but_less_accurate() {
        let sc = Scenario::new(2.9, 0.25, true, 3);
        let oi = run_whisper(&sc, Scheme::Oi);
        let lj = run_whisper(&sc, Scheme::LeaveJoin);
        assert_eq!(lj.misses, 0);
        // The headline comparison of §5: OI tracks the ideal better.
        assert!(oi.pct_of_ideal >= lj.pct_of_ideal - 1.0);
    }

    #[test]
    fn probed_run_matches_and_records_reweights() {
        let sc = Scenario::new(2.0, 0.25, true, 3);
        let (plain, _) = run_whisper_probed(&sc, Scheme::Oi, 500, NoopProbe);
        let (probed, rec) =
            run_whisper_probed(&sc, Scheme::Oi, 500, pfair_obs::TraceRecorder::new());
        assert_eq!(plain.counters, probed.counters);
        assert_eq!(
            u64::try_from(rec.spans().len()).unwrap(),
            probed.counters.reweight_initiations
        );
        assert!(!rec.events().is_empty());
    }
}
