//! A set of runs as a JSON artifact, and the comparison of two sets.
//!
//! A *set* is every workload run `runs` times untraced (and optionally
//! once traced) on one commit with one seed. `compare` gives one verdict
//! per workload × end-to-end metric and refuses sets taken on different
//! machines, seeds or toolchains.

use crate::contract::{Better, END_TO_END};
use crate::json::Value;
use crate::probes::llc_bytes;
use crate::stats;
use crate::workloads;
use std::process::Command;

/// First line of a command's output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The machine shape and inputs that make two sets comparable.
pub fn stamp(seed: u64, seconds: f64, runs: usize) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("executors", Value::Num(workloads::executors() as f64)),
        ("llc_bytes", Value::Num(llc_bytes() as f64)),
        (
            "commit",
            Value::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(first_line_of("rustc", &["--version"]))),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("runs", Value::Num(runs as f64)),
    ])
}

/// The stamp fields that must agree before two sets are compared.
const MUST_MATCH: &[&str] = &["nproc", "executors", "seed", "rustc"];

/// One workload's entry: every run's value of every end-to-end metric,
/// with the median and the spread, and the traced run's ledger if any.
pub fn workload_entry(
    name: &str,
    checksum: &str,
    attempted: f64,
    failed: f64,
    runs: &[Value],
    per_layer: Option<&Value>,
) -> Value {
    let end_to_end = END_TO_END
        .iter()
        .map(|metric| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.get(metric.name)?.get("value")?.as_f64())
                .collect();
            let summary = Value::obj(vec![
                ("unit", Value::str(metric.unit)),
                ("median", Value::Num(stats::median(&values))),
                ("spread", Value::Num(stats::spread(&values))),
                (
                    "runs",
                    Value::Arr(values.into_iter().map(Value::Num).collect()),
                ),
            ]);
            (metric.name.to_string(), summary)
        })
        .collect();
    let mut entry = vec![
        ("name", Value::str(name)),
        ("checksum", Value::str(checksum)),
        ("attempted", Value::Num(attempted)),
        ("failed", Value::Num(failed)),
        ("end_to_end", Value::Obj(end_to_end)),
    ];
    if let Some(per_layer) = per_layer {
        entry.push(("per_layer", per_layer.clone()));
    }
    Value::obj(entry)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread of a set is wider than the bound, and the two
    /// sets overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict on set `b` against baseline `a` for one metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (median_b - median_a) / median_a.abs(),
        Better::Higher => (median_a - median_b) / median_a.abs(),
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let every = |wins: &dyn Fn(f64, f64) -> bool| b.iter().all(|y| a.iter().all(|x| wins(*y, *x)));
    if stats::spread(a).max(stats::spread(b)) <= bound {
        if worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    } else if every(&beats) {
        Verdict::Ok
    } else if worse_by > bound && every(&|y, x| beats(x, y)) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    }
}

/// Compares two artifacts. `Err` when they are not comparable; otherwise
/// the report lines and whether anything got worse.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<String>, bool), String> {
    let stamp = |doc: &Value, key: &str| {
        doc.get("stamp")
            .and_then(|s| s.get(key))
            .cloned()
            .ok_or_else(|| format!("artifact has no stamp.{key}"))
    };
    for key in MUST_MATCH {
        let (left, right) = (stamp(a, key)?, stamp(b, key)?);
        if left != right {
            return Err(format!(
                "sets are not comparable: {key} is {} in the first and {} in the second",
                left.render(),
                right.render()
            ));
        }
    }
    let workloads_of = |doc| {
        Value::get(doc, "workloads")
            .and_then(Value::as_arr)
            .ok_or("artifact has no workloads")
    };
    let (left, right) = (workloads_of(a)?, workloads_of(b)?);
    let mut lines = Vec::new();
    let mut regressed = false;
    for base in left {
        let name = base.get("name").and_then(Value::as_str).unwrap_or("?");
        let Some(other) = right
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            lines.push(format!("{name}: missing from the second set"));
            regressed = true;
            continue;
        };
        if other.num("failed") > base.num("failed") {
            lines.push(format!(
                "{name}: failed ops rose from {} to {}",
                base.num("failed"),
                other.num("failed")
            ));
            regressed = true;
        }
        for metric in END_TO_END {
            let runs = |w: &Value| -> Vec<f64> {
                w.get("end_to_end")
                    .and_then(|e| e.get(metric.name))
                    .and_then(|m| m.get("runs"))
                    .and_then(Value::as_arr)
                    .map(|runs| runs.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default()
            };
            let (x, y) = (runs(base), runs(other));
            if x.is_empty() || y.is_empty() {
                return Err(format!(
                    "{name}.{} has no runs in one of the sets",
                    metric.name
                ));
            }
            let verdict = verdict(&x, &y, metric.better, metric.bound);
            regressed |= verdict == Verdict::Worse;
            let (mx, my) = (stats::median(&x), stats::median(&y));
            lines.push(format!(
                "{name:<17} {:<20} {:<10} {mx:>14.4} -> {my:>14.4} {:<4} ({:+.1} %, bound {:.0} %, spreads {:.1} % / {:.1} %)",
                metric.name,
                verdict.as_str(),
                metric.unit,
                (my / mx - 1.0) * 100.0,
                metric.bound * 100.0,
                stats::spread(&x) * 100.0,
                stats::spread(&y) * 100.0,
            ));
        }
    }
    Ok((lines, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let same = [100.5, 100.0, 101.5, 99.5, 100.0];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        assert_eq!(verdict(&steady, &same, Better::Lower, 0.1), Verdict::Ok);
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, 0.1),
            Verdict::Worse
        );
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&steady, &slower, Better::Higher, 0.1), Verdict::Ok);
        assert_eq!(
            verdict(&slower, &steady, Better::Higher, 0.1),
            Verdict::Worse
        );
        // A set noisier than the bound that overlaps the other says nothing...
        let noisy = [80.0, 100.0, 125.0, 95.0, 140.0];
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every run of one side beats every run of the other.
        let noisy_fast = [40.0, 50.0, 65.0, 45.0, 70.0];
        let noisy_slow = [150.0, 200.0, 260.0, 180.0, 300.0];
        assert_eq!(
            verdict(&steady, &noisy_fast, Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&steady, &noisy_slow, Better::Lower, 0.1),
            Verdict::Worse
        );
    }

    fn artifact(seed: f64, op_ms: &[f64], failed: f64) -> Value {
        let runs: Vec<Value> = op_ms
            .iter()
            .map(|ms| {
                Value::Obj(
                    END_TO_END
                        .iter()
                        .map(|m| {
                            let value = if m.name == "op_p10_ms" { *ms } else { 1.0 };
                            (
                                m.name.to_string(),
                                Value::obj(vec![("value", Value::Num(value))]),
                            )
                        })
                        .collect(),
                )
            })
            .collect();
        let mut stamp = stamp(0, 1.0, op_ms.len());
        if let Value::Obj(entries) = &mut stamp {
            entries.iter_mut().find(|(k, _)| k == "seed").unwrap().1 = Value::Num(seed);
        }
        Value::obj(vec![
            ("stamp", stamp),
            (
                "workloads",
                Value::Arr(vec![workload_entry("w", "c", 10.0, failed, &runs, None)]),
            ),
        ])
    }

    #[test]
    fn artifacts_round_trip_and_compare() {
        let base = artifact(11.0, &[10.0, 10.1, 9.9], 0.0);
        let reread = Value::parse(&base.render()).expect("round trip");
        assert_eq!(reread, base);
        let (lines, regressed) = compare(&base, &reread).unwrap();
        assert!(!regressed);
        assert_eq!(lines.len(), END_TO_END.len());

        let slower = artifact(11.0, &[13.0, 13.1, 12.9], 0.0);
        assert!(
            compare(&base, &slower).unwrap().1,
            "a 30 % slower median is worse"
        );
        let failing = artifact(11.0, &[10.0, 10.1, 9.9], 2.0);
        assert!(
            compare(&base, &failing).unwrap().1,
            "more failed ops is worse"
        );
        let other_seed = artifact(12.0, &[10.0, 10.1, 9.9], 0.0);
        assert!(compare(&base, &other_seed).is_err(), "seeds must match");
    }
}
