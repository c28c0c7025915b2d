//! `SPANGLE_WATCHDOG_MS` seeds the no-progress watchdog's default, and a
//! value the builder refuses must not get in through the environment:
//! `0` warns once and the 10 s default stands. One test in a file of its
//! own, so setting the variable cannot race another test's context.

use spangle_dataflow::SpangleContext;
use std::time::{Duration, Instant};

#[test]
fn a_zero_watchdog_from_the_environment_keeps_the_default() {
    std::env::set_var("SPANGLE_WATCHDOG_MS", "0");
    let ctx = SpangleContext::new(2);
    let before = ctx.metrics_snapshot();
    // One lone task that runs for twenty 5 ms driver polls without
    // ticking progress: a zero interval calls it frozen at the second
    // poll that sees it. It busy-waits on the clock; a sleep would let
    // the box's scheduler decide what the test measures.
    let busy = Duration::from_millis(100);
    let out = ctx
        .parallelize(vec![7u64], 1)
        .map(move |x| {
            let start = Instant::now();
            while start.elapsed() < busy {
                std::hint::spin_loop();
            }
            x
        })
        .collect()
        .unwrap();
    assert_eq!(out, [7]);
    let delta = ctx.metrics_snapshot() - before;
    assert_eq!(delta.watchdog_trips, 0, "{delta:?}");
    assert_eq!(delta.tasks_speculated, 0, "{delta:?}");
}
