//! Driver cost per task event: a one-stage `parallelize(..).map(..).count()`
//! of 8 … 8 192 tasks on a default two-executor context, best and median
//! of 7 runs each.
//!
//! Task bodies are empty, so the reading is the scheduler's own work per
//! task: launch, one event, the slot's transition. It should stay flat as
//! the stage grows — the driver has no timer and does O(1) work per event
//! (EXPERIMENTS.md, "Driver events").
//!
//! ```text
//! cargo run --release -p spangle-dataflow --example many_tasks
//! ```

use spangle_dataflow::SpangleContext;
use std::time::Instant;

fn main() {
    let ctx = SpangleContext::new(2);
    println!("tasks   best_ms  median_ms  best_us_per_task");
    for tasks in [8usize, 64, 512, 2048, 8192] {
        let rdd = ctx
            .parallelize((0..tasks as u64).collect(), tasks)
            .map(|x| x + 1);
        let mut runs: Vec<f64> = (0..7)
            .map(|_| {
                let start = Instant::now();
                assert_eq!(rdd.count().expect("fault-free job"), tasks);
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        let (best, median) = (runs[0], runs[3]);
        println!(
            "{tasks:>5} {best:>9.3} {median:>10.3} {:>17.2}",
            best * 1e3 / tasks as f64
        );
    }
    let snap = ctx.metrics_snapshot();
    println!(
        "retries {} cancelled {}",
        snap.task_retries, snap.tasks_cancelled
    );
}
