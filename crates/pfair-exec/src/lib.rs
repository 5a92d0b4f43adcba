//! # pfair-exec
//!
//! A quantum-based real-time executor: run user closures on a pool of
//! worker threads under **PD² Pfair scheduling with live fine-grained
//! reweighting** — the paper's scheduler as an actually usable runtime
//! rather than a simulation.
//!
//! The executor drives the `pfair-sched` [`Engine`] in lock-step with
//! wall-clock quanta: at every quantum boundary it drains reweighting
//! requests (which any thread may submit through a [`Controller`]),
//! advances the engine one slot, and dispatches one *tick* — one call
//! of the task's closure — per scheduled quantum to the worker pool.
//! The engine guarantees the Pfair contract: between any two points in
//! time, each task's tick count tracks its (time-varying) weight share
//! to within one quantum, and weight changes take effect with the
//! constant drift of rules O/I.
//!
//! ```
//! use pfair_exec::ExecutorBuilder;
//! use pfair_core::{rat, Weight};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let count = Arc::new(AtomicU64::new(0));
//! let c = count.clone();
//! let mut builder = ExecutorBuilder::new(2).virtual_time();
//! let h = builder.task("worker", Weight::new(rat(1, 2)), move |_tick| {
//!     c.fetch_add(1, Ordering::Relaxed);
//! });
//! let mut exec = builder.build();
//! exec.run(100);
//! let report = exec.shutdown();
//! assert_eq!(report.ticks(h), 50); // half of 100 quanta
//! assert_eq!(count.load(Ordering::Relaxed), 50);
//! ```
//!
//! ## Overruns
//!
//! A tick is budgeted one quantum. A closure that runs past the
//! boundary is *not* killed (Rust can't preempt safely); instead the
//! executor records an **overrun**, and if the task is scheduled again
//! while its previous tick still runs, that quantum is recorded as a
//! **skip** (the allocation is lost, exactly like an embedded
//! budget-overrun drop). In `virtual_time` mode the dispatcher instead
//! waits for every tick to finish before closing the slot, making runs
//! deterministic for tests.

use pfair_core::task::TaskId;
use pfair_core::time::Slot;
use pfair_core::weight::Weight;
use pfair_obs::{NoopProbe, ObsEvent, Probe};
use pfair_sched::engine::{Engine, SimConfig};
use pfair_sched::event::{Event, EventKind, Workload};
use pfair_sched::trace::SimResult;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// The dispatcher owns the engine on its own thread, so the executor's
// whole stack rests on `Engine` being `Send`. Since the slab refactor
// the engine's per-task storage is plain columns + rows (no `Rc`, no
// interior pointers), which makes that derivable — pin it here so a
// regression in `pfair-sched` fails this crate's build, not a user's.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine<NoopProbe>>();
};

/// The most quanta an executor may ever run.
const HORIZON: Slot = 1_000_000;

/// Opaque handle to a registered task.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskHandle(TaskId);

/// Information passed to each tick of a task body.
#[derive(Clone, Copy, Debug)]
pub struct Tick {
    /// The quantum (slot) index being executed.
    pub slot: Slot,
    /// How many ticks of this task ran before this one.
    pub seq: u64,
    /// The wall-clock budget for this tick (zero in virtual time).
    pub budget: Duration,
}

type TaskBody = Box<dyn FnMut(Tick) + Send>;

struct RtTask {
    name: String,
    body: Arc<Mutex<TaskBody>>,
    ticks: u64,
}

/// Builder for an [`Executor`].
///
/// Generic over a [`Probe`] so a run can record structured engine
/// events plus the executor-specific overrun/skip instants; the
/// default [`NoopProbe`] compiles to nothing.
pub struct ExecutorBuilder<P: Probe = NoopProbe> {
    workers: u32,
    quantum: Duration,
    tasks: Vec<(String, Weight, TaskBody)>,
    probe: P,
}

impl ExecutorBuilder {
    /// An executor with `workers` worker threads (= processors `M`) and
    /// a default 10 ms quantum.
    pub fn new(workers: u32) -> ExecutorBuilder {
        ExecutorBuilder {
            workers,
            quantum: Duration::from_millis(10),
            tasks: Vec::new(),
            probe: NoopProbe,
        }
    }
}

impl<P: Probe> ExecutorBuilder<P> {
    /// Sets the quantum length.
    pub fn quantum(mut self, quantum: Duration) -> ExecutorBuilder<P> {
        self.quantum = quantum;
        self
    }

    /// Virtual time: no sleeping; each slot closes when all of its
    /// ticks have completed. Deterministic — intended for tests.
    pub fn virtual_time(mut self) -> ExecutorBuilder<P> {
        self.quantum = Duration::ZERO;
        self
    }

    /// Attaches a probe, replacing any earlier one. The probe observes
    /// every engine event of the run plus the executor's overrun/skip
    /// instants, and comes back out of
    /// [`Executor::shutdown_with_probe`].
    pub fn with_probe<Q: Probe>(self, probe: Q) -> ExecutorBuilder<Q> {
        ExecutorBuilder {
            workers: self.workers,
            quantum: self.quantum,
            tasks: self.tasks,
            probe,
        }
    }

    /// Registers a task with an initial weight and its per-tick body.
    /// Returns the handle used for reweighting.
    pub fn task(
        &mut self,
        name: impl Into<String>,
        weight: Weight,
        body: impl FnMut(Tick) + Send + 'static,
    ) -> TaskHandle {
        // audit: allow(panic, builder capacity limit; more than u32::MAX tasks is a caller error)
        let id = TaskId(u32::try_from(self.tasks.len()).expect("more than u32::MAX tasks"));
        self.tasks.push((name.into(), weight, Box::new(body)));
        TaskHandle(id)
    }

    /// Builds the executor (spawns the worker pool; the clock starts on
    /// the first [`Executor::run`] call).
    pub fn build(self) -> Executor<P> {
        let mut workload = Workload::new();
        for (i, (_, weight, _)) in self.tasks.iter().enumerate() {
            workload.push(Event {
                at: 0,
                // audit: allow(panic, task count was bounded to u32 at registration)
                task: TaskId(u32::try_from(i).expect("more than u32::MAX tasks")),
                kind: EventKind::Join(*weight),
            });
        }
        let engine =
            Engine::with_probe(SimConfig::oi(self.workers, HORIZON), &workload, self.probe);
        let tasks: Vec<RtTask> = self
            .tasks
            .into_iter()
            .map(|(name, _, body)| RtTask {
                name,
                body: Arc::new(Mutex::new(body)),
                ticks: 0,
            })
            .collect();

        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, done_rx) = channel::<usize>();
        let workers = (0..self.workers)
            .map(|w| spawn_worker(w, job_rx.clone(), done_tx.clone()))
            .collect();
        let (ctl_tx, ctl_rx) = channel();

        Executor {
            engine,
            tasks,
            quantum: self.quantum,
            job_tx: Some(job_tx),
            done_rx,
            ctl_tx,
            ctl_rx,
            workers,
            busy: vec![false; 0],
            overruns: Vec::new(),
            skips: Vec::new(),
        }
    }
}

/// A unit of work: run one tick of task `task_idx`.
struct Job {
    task_idx: usize,
    body: Arc<Mutex<TaskBody>>,
    tick: Tick,
}

/// Both mutexes are locked ignoring poison: a body that panicked left
/// nothing half-updated behind either lock (the job queue is only
/// received from, and a body is re-entered whole), so the rest of the
/// pool keeps running as it did under a non-poisoning mutex.
fn spawn_worker(idx: u32, jobs: Arc<Mutex<Receiver<Job>>>, done: Sender<usize>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pfair-worker-{idx}"))
        .spawn(move || loop {
            // Receive in a statement of its own: the queue guard must
            // drop before the body runs, or the pool would run one body
            // at a time.
            let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
            // A closed job channel means shutdown.
            let Ok(job) = job else { break };
            {
                let mut body = job.body.lock().unwrap_or_else(PoisonError::into_inner);
                (body)(job.tick);
            }
            // The dispatcher may have shut down mid-run; a send
            // failure is then expected and harmless.
            let _ = done.send(job.task_idx);
        })
        // audit: allow(panic, OS thread-spawn failure is unrecoverable at this layer)
        .expect("spawning worker thread")
}

/// Control messages a [`Controller`] can submit from any thread.
enum CtlMsg {
    Reweight(TaskId, Weight),
    Leave(TaskId),
}

/// A cloneable remote control for a running [`Executor`]: submit
/// reweighting requests and leaves from any thread. Requests take
/// effect at the next quantum boundary, where the engine applies the
/// fine-grained rules O/I.
#[derive(Clone)]
pub struct Controller {
    tx: Sender<CtlMsg>,
}

impl Controller {
    /// Requests a weight change for `task`. Subject to the executor's
    /// admission policing; heavy targets (> 1/2) are refused by the
    /// engine.
    pub fn reweight(&self, task: TaskHandle, weight: Weight) {
        let _ = self.tx.send(CtlMsg::Reweight(task.0, weight));
    }

    /// Asks `task` to leave the system (rule L governs the exit time).
    pub fn leave(&self, task: TaskHandle) {
        let _ = self.tx.send(CtlMsg::Leave(task.0));
    }
}

/// Final report of an executor run.
pub struct ExecReport {
    /// The engine-side result: exact drift, ideal allocations, misses,
    /// counters.
    pub sim: SimResult,
    /// Task names, by task id.
    pub names: Vec<String>,
    /// Completed ticks per task.
    pub ticks_per_task: Vec<u64>,
    /// Ticks that ran past their quantum budget, per task.
    pub overruns: Vec<u64>,
    /// Scheduled quanta lost because the previous tick was still
    /// running, per task.
    pub skips: Vec<u64>,
}

impl ExecReport {
    /// Completed ticks of one task.
    pub fn ticks(&self, h: TaskHandle) -> u64 {
        self.ticks_per_task[h.0.idx()]
    }

    /// Overruns of one task.
    pub fn overruns(&self, h: TaskHandle) -> u64 {
        self.overruns[h.0.idx()]
    }

    /// Skips of one task.
    pub fn skips(&self, h: TaskHandle) -> u64 {
        self.skips[h.0.idx()]
    }
}

/// The PD² real-time executor. Build with [`ExecutorBuilder`].
pub struct Executor<P: Probe = NoopProbe> {
    engine: Engine<P>,
    tasks: Vec<RtTask>,
    quantum: Duration,
    job_tx: Option<Sender<Job>>,
    done_rx: Receiver<usize>,
    ctl_tx: Sender<CtlMsg>,
    ctl_rx: Receiver<CtlMsg>,
    workers: Vec<JoinHandle<()>>,
    busy: Vec<bool>,
    overruns: Vec<u64>,
    skips: Vec<u64>,
}

impl<P: Probe> Executor<P> {
    /// A remote control usable from any thread.
    pub fn controller(&self) -> Controller {
        Controller {
            tx: self.ctl_tx.clone(),
        }
    }

    /// The next quantum index to run.
    pub fn now(&self) -> Slot {
        self.engine.now()
    }

    /// Runs `quanta` quanta. May be called repeatedly; the schedule
    /// continues where it left off.
    pub fn run(&mut self, quanta: Slot) {
        if self.busy.is_empty() {
            self.busy = vec![false; self.tasks.len()];
            self.overruns = vec![0; self.tasks.len()];
            self.skips = vec![0; self.tasks.len()];
        }
        let virtual_time = self.quantum.is_zero();
        for _ in 0..quanta {
            let slot_start = Instant::now(); // audit: allow(nondeterminism, the executor paces real quanta by wall clock, pacing never feeds back into the simulated schedule)
            let t = self.engine.now();

            // Drain control requests; they fire in this slot.
            while let Ok(msg) = self.ctl_rx.try_recv() {
                let event = match msg {
                    CtlMsg::Reweight(task, w) => Event {
                        at: t,
                        task,
                        kind: EventKind::Reweight(w),
                    },
                    CtlMsg::Leave(task) => Event {
                        at: t,
                        task,
                        kind: EventKind::Leave,
                    },
                };
                self.engine.inject(event);
            }

            // Collect completions from earlier slots.
            self.drain_done();

            // Advance PD² one slot and dispatch its choices.
            let chosen = self.engine.step();
            let mut dispatched = 0usize;
            for id in chosen {
                let idx = id.idx();
                if self.busy[idx] {
                    // Previous tick still running: the quantum is lost.
                    self.skips[idx] += 1;
                    self.overruns[idx] += 1;
                    let probe = self.engine.probe_mut();
                    probe.on_event(ObsEvent::ExecOverrun { task: id, t });
                    probe.on_event(ObsEvent::ExecSkip { task: id, t });
                    continue;
                }
                self.busy[idx] = true;
                let task = &mut self.tasks[idx];
                let tick = Tick {
                    slot: t,
                    seq: task.ticks,
                    budget: self.quantum,
                };
                task.ticks += 1;
                self.job_tx
                    .as_ref()
                    // audit: allow(panic, dispatch after shutdown is a caller error)
                    .expect("executor already shut down")
                    .send(Job {
                        task_idx: idx,
                        body: task.body.clone(),
                        tick,
                    })
                    // audit: allow(panic, a dead worker pool means a task body panicked; stop loudly)
                    .expect("worker pool gone");
                dispatched += 1;
            }

            if virtual_time {
                // Deterministic mode: the slot closes when all its
                // ticks have completed.
                let mut done = 0;
                while done < dispatched {
                    // audit: allow(panic, a dead worker pool means a task body panicked; stop loudly)
                    let idx = self.done_rx.recv().expect("worker pool gone");
                    self.busy[idx] = false;
                    done += 1;
                }
            } else {
                // Real time: sleep out the quantum, then note overruns.
                let elapsed = slot_start.elapsed();
                if elapsed < self.quantum {
                    std::thread::sleep(self.quantum - elapsed);
                }
                self.drain_done();
            }
        }
    }

    fn drain_done(&mut self) {
        while let Ok(idx) = self.done_rx.try_recv() {
            self.busy[idx] = false;
        }
    }

    /// Stops the worker pool and returns the report.
    pub fn shutdown(self) -> ExecReport {
        self.shutdown_with_probe().0
    }

    /// [`Executor::shutdown`], also handing back the probe with
    /// everything it recorded over the run.
    pub fn shutdown_with_probe(mut self) -> (ExecReport, P) {
        // Closing the job channel terminates the workers.
        self.job_tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let ticks_per_task = self.tasks.iter().map(|t| t.ticks).collect();
        let names = self.tasks.iter().map(|t| t.name.clone()).collect();
        let (sim, probe) = self.engine.finish_with_probe();
        (
            ExecReport {
                sim,
                names,
                ticks_per_task,
                overruns: self.overruns,
                skips: self.skips,
            },
            probe,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfair_core::rational::rat;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counter_task(
        builder: &mut ExecutorBuilder,
        name: &str,
        num: i128,
        den: i128,
    ) -> (TaskHandle, Arc<AtomicU64>) {
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        let h = builder.task(name, Weight::new(rat(num, den)), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        (h, count)
    }

    #[test]
    fn tick_counts_match_weights() {
        let mut b = ExecutorBuilder::new(2).virtual_time();
        let (h1, c1) = counter_task(&mut b, "half", 1, 2);
        let (h2, c2) = counter_task(&mut b, "third", 1, 3);
        let (h3, c3) = counter_task(&mut b, "quarter", 1, 4);
        let mut exec = b.build();
        exec.run(120);
        let report = exec.shutdown();
        assert_eq!(report.ticks(h1), 60);
        assert_eq!(report.ticks(h2), 40);
        assert_eq!(report.ticks(h3), 30);
        assert_eq!(c1.load(Ordering::Relaxed), 60);
        assert_eq!(c2.load(Ordering::Relaxed), 40);
        assert_eq!(c3.load(Ordering::Relaxed), 30);
        assert!(report.sim.is_miss_free());
    }

    #[test]
    fn live_reweighting_shifts_the_share() {
        let mut b = ExecutorBuilder::new(1).virtual_time();
        let (h1, c1) = counter_task(&mut b, "adaptive", 1, 4);
        let (_h2, _c2) = counter_task(&mut b, "steady", 1, 4);
        let mut exec = b.build();
        let ctl = exec.controller();
        exec.run(100);
        let before = c1.load(Ordering::Relaxed);
        assert_eq!(before, 25);
        // Double the share mid-run.
        ctl.reweight(h1, Weight::new(rat(1, 2)));
        exec.run(100);
        let report = exec.shutdown();
        let after = c1.load(Ordering::Relaxed) - before;
        assert!(
            (48..=52).contains(&after),
            "second phase ticks {after} should be ≈ 50"
        );
        assert!(report.sim.is_miss_free());
        // The engine saw exactly one initiation, enacted fine-grained.
        assert_eq!(report.sim.counters.reweight_initiations, 1);
        assert!(report.sim.max_abs_drift_delta() <= rat(2, 1));
    }

    #[test]
    fn leave_stops_ticks() {
        let mut b = ExecutorBuilder::new(1).virtual_time();
        let (h1, c1) = counter_task(&mut b, "leaver", 1, 2);
        let (_h2, _c2) = counter_task(&mut b, "stayer", 1, 2);
        let mut exec = b.build();
        let ctl = exec.controller();
        exec.run(40);
        ctl.leave(h1);
        exec.run(40);
        let report = exec.shutdown();
        // At most a few quanta after the leave request (rule L delay).
        assert!(c1.load(Ordering::Relaxed) <= 24);
        assert!(report.sim.is_miss_free());
    }

    #[test]
    fn pfair_window_in_real_ticks() {
        // At every prefix, a weight-w task's tick count is within one of
        // w·t — the Pfair lag contract observed from user space.
        let mut b = ExecutorBuilder::new(2).virtual_time();
        let (_h, count) = counter_task(&mut b, "观察", 2, 5);
        let (_h2, _c) = counter_task(&mut b, "other", 1, 2);
        let mut exec = b.build();
        for t in 1..=60i64 {
            exec.run(1);
            let ticks = count.load(Ordering::Relaxed) as f64;
            let ideal = 0.4 * t as f64;
            assert!(
                (ticks - ideal).abs() < 1.0 + 1e-9,
                "t={t}: ticks {ticks} vs ideal {ideal}"
            );
        }
        exec.shutdown();
    }

    #[test]
    fn real_time_mode_runs_and_reports() {
        // Short real-time run with a 1 ms quantum. Every chosen quantum
        // is either a tick or a skip, and only an overrun skips: a loaded
        // machine may delay a fast body past its quantum, so the exact
        // tick counts stay with the virtual-time tests.
        let mut b = ExecutorBuilder::new(2).quantum(Duration::from_millis(1));
        let (h1, _c1) = counter_task(&mut b, "a", 1, 2);
        let (h2, _c2) = counter_task(&mut b, "b", 1, 2);
        let mut exec = b.build();
        exec.run(30);
        let report = exec.shutdown();
        for h in [h1, h2] {
            assert_eq!(report.ticks(h) + report.skips(h), 15);
            assert_eq!(report.overruns(h), report.skips(h));
        }
        assert_eq!(report.names.len(), 2);
    }

    #[test]
    fn overrunning_body_is_skipped_not_doubled() {
        // One task's body sleeps far past its quantum: the executor must
        // record overruns/skips and never run the body concurrently.
        let concurrent = Arc::new(AtomicU64::new(0));
        let max_seen = Arc::new(AtomicU64::new(0));
        let (conc, maxs) = (concurrent.clone(), max_seen.clone());
        let mut b = ExecutorBuilder::new(2).quantum(Duration::from_millis(1));
        let h = b.task("slow", Weight::new(rat(1, 2)), move |_| {
            let in_flight = conc.fetch_add(1, Ordering::SeqCst) + 1;
            maxs.fetch_max(in_flight, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(4));
            conc.fetch_sub(1, Ordering::SeqCst);
        });
        let mut exec = b.build();
        exec.run(20);
        let report = exec.shutdown();
        assert!(report.skips(h) > 0, "a 4x overrun must lose quanta");
        assert_eq!(max_seen.load(Ordering::SeqCst), 1, "no concurrent ticks");
    }

    #[test]
    fn probe_observes_exec_skips_and_engine_events() {
        // Same overrun scenario, observed through a metrics probe: the
        // executor-level skip/overrun instants and the engine's slot
        // count both land in the registry.
        let mut b = ExecutorBuilder::new(2)
            .quantum(Duration::from_millis(1))
            .with_probe(pfair_obs::MetricsProbe::new());
        let h = b.task("slow", Weight::new(rat(1, 2)), |_| {
            std::thread::sleep(Duration::from_millis(4));
        });
        let mut exec = b.build();
        exec.run(20);
        let (report, probe) = exec.shutdown_with_probe();
        let reg = probe.registry();
        assert_eq!(reg.counter("slots"), 20);
        assert_eq!(reg.counter("exec.skips"), report.skips(h));
        assert_eq!(reg.counter("exec.overruns"), report.overruns(h));
        assert!(reg.counter("exec.skips") > 0);
        assert_eq!(
            reg.counter("schedules"),
            report.sim.counters.scheduled_quanta
        );
    }

    #[test]
    fn flight_recorder_and_slo_monitor_ride_the_executor() {
        // Overrun scenario again, observed by the black-box pair: the
        // flight recorder must keep the executor-level overrun/skip
        // instants in its ring, and the SLO monitor must stay clean (a
        // feasible schedule has no deadline misses even when bodies
        // overrun their quanta).
        use pfair_obs::{Fanout, FlightRecorder, ObsEvent, SloConfig, SloMonitor};
        let mut b = ExecutorBuilder::new(2)
            .quantum(Duration::from_millis(1))
            .with_probe(Fanout(
                FlightRecorder::new(),
                SloMonitor::new(SloConfig::default()),
            ));
        let h = b.task("slow", Weight::new(rat(1, 2)), |_| {
            std::thread::sleep(Duration::from_millis(4));
        });
        let mut exec = b.build();
        exec.run(20);
        let (report, Fanout(mut flight, slo)) = exec.shutdown_with_probe();
        assert!(report.skips(h) > 0);
        let overruns = flight
            .recent()
            .filter(|e| matches!(e, ObsEvent::ExecOverrun { .. } | ObsEvent::ExecSkip { .. }))
            .count();
        assert!(
            u64::try_from(overruns).unwrap_or(0) > 0,
            "flight ring must hold the executor overrun/skip instants"
        );
        assert!(flight.incidents().is_empty(), "no miss, no incident");
        flight.capture_now(20);
        assert_eq!(flight.incidents().len(), 1, "explicit capture works");
        assert!(slo.is_clean(), "feasible run must not breach the SLO");
        assert_eq!(slo.misses_total(), 0);
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use pfair_core::rational::rat;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A controller used from a *different* thread while the executor
    /// runs: requests land at quantum boundaries, the run stays correct,
    /// and the requested weight is eventually enacted.
    #[test]
    fn controller_from_another_thread() {
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        let mut b = ExecutorBuilder::new(1).quantum(Duration::from_micros(300));
        let h = b.task("adaptive", Weight::new(rat(1, 10)), move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        let _steady = b.task("steady", Weight::new(rat(1, 10)), |_| {});
        let mut exec = b.build();
        let ctl = exec.controller();

        let pusher = std::thread::spawn(move || {
            // Fire a ramp of requests asynchronously while the executor runs.
            for k in 2..=5u32 {
                std::thread::sleep(Duration::from_millis(10));
                ctl.reweight(h, Weight::new(rat(i128::from(k), 10)));
            }
        });
        exec.run(400);
        pusher.join().unwrap();
        let report = exec.shutdown();
        assert!(report.sim.is_miss_free());
        // All requests were seen and the final grant took effect: over
        // the tail of the run the task's share approaches 1/2.
        assert!(report.sim.counters.reweight_initiations >= 1);
        let ticks = count.load(Ordering::Relaxed);
        assert!(
            ticks > 40,
            "adaptive task should have grown past its initial 10% share: {ticks} ticks"
        );
        assert!(report.sim.max_abs_drift_delta() <= rat(2, 1));
    }

    /// The workers share one job `Receiver` behind a mutex, and a worker
    /// must hand the guard back before it runs a body. Two bodies that
    /// meet at a barrier inside one slot finish only if both workers got
    /// their job; `shutdown` then drops the job sender and joins both.
    #[test]
    fn workers_release_the_job_queue_while_a_body_runs() {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut b = ExecutorBuilder::new(2).virtual_time();
        let handles = ["a", "b"].map(|name| {
            let barrier = barrier.clone();
            b.task(name, Weight::new(rat(1, 1)), move |_| {
                barrier.wait();
            })
        });
        let mut exec = b.build();
        let (tx, rx) = channel();
        // Off-thread so a deadlocked pool fails the test, not hangs it.
        std::thread::spawn(move || {
            exec.run(3);
            let _ = tx.send(exec.shutdown());
        });
        let report = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("pool deadlocked: a worker held the job queue while its body ran");
        for h in handles {
            assert_eq!(report.ticks(h), 3);
        }
    }

    /// Two controllers (clones) from two threads do not race the engine.
    #[test]
    fn multiple_controllers() {
        let mut b = ExecutorBuilder::new(2).virtual_time();
        let h1 = b.task("a", Weight::new(rat(1, 4)), |_| {});
        let h2 = b.task("b", Weight::new(rat(1, 4)), |_| {});
        let mut exec = b.build();
        let c1 = exec.controller();
        let c2 = exec.controller();
        let t1 = std::thread::spawn(move || c1.reweight(h1, Weight::new(rat(1, 2))));
        let t2 = std::thread::spawn(move || c2.reweight(h2, Weight::new(rat(1, 3))));
        t1.join().unwrap();
        t2.join().unwrap();
        exec.run(60);
        let report = exec.shutdown();
        assert!(report.sim.is_miss_free());
        assert_eq!(report.sim.counters.reweight_initiations, 2);
    }
}
