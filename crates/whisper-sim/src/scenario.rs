//! Whisper scenario generation: speakers revolving around the pole, and
//! the reweighting workload their motion induces.
//!
//! The simulated system (paper §5, Fig. 10): a 1 m × 1 m room with a
//! microphone in each corner, three speakers revolving around a 5 cm
//! pole at the room's center — all at the same radius and speed, at
//! random initial angles (each of the paper's 61 runs re-randomizes
//! placement). One task per speaker/microphone pair (assumption 5)
//! tracks that pair's correlation; its weight follows the pair's
//! acoustic distance through [`crate::acoustics::weight_at`], with a new
//! weight requested only when the distance has moved 5 cm
//! (assumption 6). Objects move in the plane at constant speed
//! (assumptions 1 and 4); occlusion by the pole lengthens the acoustic
//! path when enabled.

use crate::acoustics::{effective_distance, weight_at, REWEIGHT_DISTANCE_M};
use crate::geometry::{Circle, Point};
use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_sched::event::{Event, EventKind, Workload};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Number of speakers (tracked objects).
pub const SPEAKERS: usize = 3;
/// Number of microphones (room corners).
pub const MICS: usize = 4;
/// Number of processors in the paper's simulated system.
pub const PROCESSORS: u32 = 4;
/// Slots simulated per run ("time 1,000" in Fig. 11).
pub const HORIZON: Slot = 1_000;

/// One Whisper scenario: the geometry and motion parameters of a run.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Speaker speed (m/s); the paper sweeps 0.5–3.5.
    pub speed: f64,
    /// Radius of rotation around the pole (m); the paper sweeps
    /// 0.10–0.50.
    pub radius: f64,
    /// Whether the pole occludes (lengthening the acoustic path).
    pub occlusion: bool,
    /// RNG seed for the speakers' initial angles.
    pub seed: u64,
}

impl Scenario {
    /// The paper's base configuration: 25 cm radius, occlusion on.
    pub fn new(speed: f64, radius: f64, occlusion: bool, seed: u64) -> Scenario {
        Scenario {
            speed,
            radius,
            occlusion,
            seed,
        }
    }
}

/// The pole: 5 cm diameter at the room center.
pub fn pole() -> Circle {
    Circle::new(Point::new(0.5, 0.5), 0.025)
}

/// Microphone positions: the four corners.
pub fn microphones() -> [Point; MICS] {
    [
        Point::new(0.0, 0.0),
        Point::new(1.0, 0.0),
        Point::new(0.0, 1.0),
        Point::new(1.0, 1.0),
    ]
}

/// The dense task id of the (speaker, mic) pair.
pub fn task_of(speaker: usize, mic: usize) -> TaskId {
    TaskId((speaker * MICS + mic) as u32)
}

/// Position of speaker `s` at slot `t` (1 ms per slot).
pub fn speaker_position(sc: &Scenario, phase0: f64, t: Slot) -> Point {
    let omega = sc.speed / sc.radius; // rad/s
    let phi = phase0 + omega * (t as f64) * 1e-3;
    Point::new(0.5 + sc.radius * phi.cos(), 0.5 + sc.radius * phi.sin())
}

/// The *effective* acoustic distance of a speaker/mic pair: the
/// geometric path (around the pole if blocked), stretched by the
/// occlusion prediction penalty when occlusion is enabled and the pole
/// blocks the pair. This is the quantity the cost model consumes and the
/// 5 cm reweighting hysteresis watches.
pub fn acoustic_distance(sc: &Scenario, speaker: Point, mic: Point) -> f64 {
    if sc.occlusion {
        let p = pole();
        effective_distance(p.path_around(speaker, mic), p.occludes(speaker, mic))
    } else {
        speaker.dist(mic)
    }
}

/// Generates the full reweighting workload for a scenario: 12 tasks
/// joining at time 0 with their initial weights, then one reweight
/// request per task each time its acoustic distance drifts 5 cm from
/// the distance at its last request.
pub fn generate_workload(sc: &Scenario) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(sc.seed);
    let phases: Vec<f64> = (0..SPEAKERS)
        .map(|_| rng.gen_range(0.0..std::f64::consts::TAU))
        .collect();
    let mics = microphones();
    let mut w = Workload::new();
    // Last distance at which each task requested a weight.
    let mut anchor = [0.0f64; SPEAKERS * MICS];

    for s in 0..SPEAKERS {
        let pos = speaker_position(sc, phases[s], 0);
        for (m, mic) in mics.iter().enumerate() {
            let d = acoustic_distance(sc, pos, *mic);
            anchor[s * MICS + m] = d;
            w.push(Event {
                at: 0,
                task: task_of(s, m),
                kind: EventKind::Join(weight_at(d)),
            });
        }
    }

    for t in 1..HORIZON {
        for (s, phase) in phases.iter().enumerate() {
            let pos = speaker_position(sc, *phase, t);
            for (m, mic) in mics.iter().enumerate() {
                let idx = s * MICS + m;
                let d = acoustic_distance(sc, pos, *mic);
                if (d - anchor[idx]).abs() >= REWEIGHT_DISTANCE_M {
                    anchor[idx] = d;
                    w.push(Event {
                        at: t,
                        task: task_of(s, m),
                        kind: EventKind::Reweight(weight_at(d)),
                    });
                }
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_sched::event::EventKind;

    #[test]
    fn twelve_tasks_join_at_zero() {
        let sc = Scenario::new(1.0, 0.25, true, 42);
        let w = generate_workload(&sc);
        let joins = w
            .sorted_events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Join(_)))
            .count();
        assert_eq!(joins, SPEAKERS * MICS);
        assert_eq!(w.task_count(), 12);
    }

    #[test]
    fn faster_speakers_reweight_more_often() {
        let slow = generate_workload(&Scenario::new(0.5, 0.25, true, 7));
        let fast = generate_workload(&Scenario::new(3.5, 0.25, true, 7));
        let count = |w: &Workload| {
            w.sorted_events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Reweight(_)))
                .count()
        };
        assert!(count(&fast) > 2 * count(&slow));
    }

    #[test]
    fn workload_generation_is_deterministic_per_seed() {
        let a = generate_workload(&Scenario::new(2.9, 0.25, true, 99));
        let b = generate_workload(&Scenario::new(2.9, 0.25, true, 99));
        assert_eq!(a.sorted_events(), b.sorted_events());
        let c = generate_workload(&Scenario::new(2.9, 0.25, true, 100));
        assert_ne!(a.sorted_events(), c.sorted_events());
    }

    #[test]
    fn speaker_stays_on_its_circle() {
        let sc = Scenario::new(2.0, 0.3, false, 1);
        for t in [0, 100, 500, 999] {
            let p = speaker_position(&sc, 1.0, t);
            let r = p.dist(Point::new(0.5, 0.5));
            assert!((r - 0.3).abs() < 1e-9);
        }
    }

    #[test]
    fn occlusion_never_shortens_distance() {
        let occ = Scenario::new(2.0, 0.3, true, 1);
        let no = Scenario::new(2.0, 0.3, false, 1);
        for t in 0..50 {
            let p = speaker_position(&occ, 0.3, t * 20);
            for mic in microphones() {
                assert!(acoustic_distance(&occ, p, mic) >= acoustic_distance(&no, p, mic));
            }
        }
    }
}
