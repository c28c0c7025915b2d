//! A task that fails on its own data must not cost its executor anything
//! but the failed attempts: no test here ever calls `kill_executor`, and
//! nothing but an announced failure moves the scheduler.

use spangle_dataflow::SpangleContext;
use std::collections::BTreeSet;

/// A retry runs at its partition's home, so a record that panics every
/// time fails on the same executor every time. That says nothing about
/// the executor: after two jobs die on such a record, the next clean job
/// must still run on every executor.
#[test]
fn a_task_that_panics_on_its_data_leaves_its_executor_placeable() {
    let ctx = SpangleContext::new(2);
    for _ in 0..2 {
        let poisoned = ctx
            .parallelize((0..64u64).collect(), 8)
            .map(|v| {
                assert_ne!(v, 0, "record 0 is poisoned");
                v
            })
            .collect();
        assert!(poisoned.is_err(), "record 0 fails every attempt");
    }
    let ran_on: BTreeSet<String> = ctx
        .parallelize((0..64u64).collect(), 8)
        .map(|_| std::thread::current().name().unwrap_or("").to_string())
        .collect()
        .unwrap()
        .into_iter()
        .collect();
    let expected = ["spangle-executor-0", "spangle-executor-1"].map(String::from);
    assert_eq!(ran_on, BTreeSet::from(expected));
}
