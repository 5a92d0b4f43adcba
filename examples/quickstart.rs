//! Quickstart: schedule an adaptive task system under PD²-OI.
//!
//! Four processors run twenty weight-3/20 tasks; at time 10, one of
//! them discovers it needs a weight of 1/2 (say, its tracking target
//! sped up) and initiates a reweight. Fine-grained reweighting enacts
//! the change within two slots and the task's drift stays below the
//! Theorem-5 bound of two quanta.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pfair_repro::prelude::*;

fn main() {
    // 1. Describe the workload: joins and reweighting requests.
    let mut workload = Workload::new();
    for id in 0..20 {
        workload.join(id, 0, 3, 20); // weight 3/20 each, joining at t = 0
    }
    workload.reweight(0, 10, 1, 2); // task 0 wants weight 1/2 at t = 10

    // 2. Configure the scheduler: 4 CPUs, 100 slots, PD²-OI reweighting,
    //    condition-(W) policing, full trace recording.
    let config = SimConfig::oi(4, 100).with_history();

    // 3. Run.
    let result = simulate(config, &workload);

    // 4. Inspect.
    assert!(result.is_miss_free(), "Theorem 2: no deadline misses");
    let task0 = result.task(TaskId(0));
    println!("task 0 received {} quanta", task0.scheduled_count);
    println!("task 0 ideal (I_PS) allocation: {}", task0.ps_total);
    println!(
        "task 0 drift samples (era boundary → drift): {:?}",
        task0
            .drift
            .samples()
            .map(|s| format!("t={} → {}", s.at, s.drift))
            .collect::<Vec<_>>()
    );
    println!(
        "largest per-event drift: {} (Theorem 5 bound: 2)",
        task0.drift.max_abs_delta()
    );

    // 5. Render the reweighting task's subtask windows.
    let history = task0.history.as_ref().unwrap();
    println!("\nsubtask windows of task 0 ([release, deadline), X = scheduled slot):");
    println!("{}", pfair_repro::sched::render::ruler(40));
    print!(
        "{}",
        pfair_repro::sched::render::render_task("T0", history, 40)
    );

    assert!(task0.drift.max_abs_delta() <= rat(2, 1));
    println!("\nok: fine-grained reweighting enacted with constant drift");
}
