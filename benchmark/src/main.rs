//! `spangle_benchmark`: seven workloads through the public API of the
//! layer crates, six end-to-end metrics each, a per-layer ledger from a
//! traced run, and a comparison of two sets of runs. `benchmark/README.md`
//! is the glossary; `BENCHMARK.json` at the repository root is the
//! contract.
//!
//! ```text
//! spangle_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! spangle_benchmark run [--seed N] [--seconds S] [--runs R] [--traced] [--quick] [--out FILE]
//! spangle_benchmark compare A.json B.json
//! spangle_benchmark list
//! ```

mod artifact;
mod contract;
mod gen;
mod json;
mod measure;
mod probes;
mod stats;
mod trace;
mod workloads;

use json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 11;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
/// Where a run leaves its files unless told otherwise; git-ignored.
const OUT_DIR: &str = "benchmark/out";
const CHECKSUM_PREFIX: &str = "checksum: ";

const USAGE: &str = "usage:
  spangle_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
  spangle_benchmark run [--seed N] [--seconds S] [--runs R] [--traced] [--quick] [--out FILE]
  spangle_benchmark compare A.json B.json
  spangle_benchmark list";

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut parsed = Args {
            pairs: Vec::new(),
            flags: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            if flags.contains(&key) {
                parsed.flags.push(key.into());
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                parsed.pairs.push((key.into(), value.clone()));
            }
        }
        Ok(parsed)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            Some((_, raw)) => raw
                .parse()
                .map_err(|_| format!("--{key}: cannot read {raw:?}")),
            None => Ok(default),
        }
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn known(&self, keys: &[&str]) -> Result<(), String> {
        match self.pairs.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

/// Points the spill tier's temporary directory inside the checkout (the
/// engine spills under `std::env::temp_dir()`), so a run writes nowhere
/// else. Returns the directory, to be removed at the end.
fn confine_temp_dir() -> Option<PathBuf> {
    let dir = std::env::current_dir()
        .ok()?
        .join(OUT_DIR)
        .join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    std::env::set_var("TMPDIR", &dir);
    Some(dir)
}

/// The contract's entry point: one workload, one run, one result line.
fn run_workload(args: &Args) -> Result<ExitCode, String> {
    args.known(&["workload", "seed", "seconds", "trace", "trace-out"])?;
    let name = args.text("workload").ok_or("--workload is required")?;
    let spec = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.get("seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let traced = match args.get("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };

    let temp_dir = confine_temp_dir();
    println!(
        "== {} (seed {seed}, {seconds} s, {}, {} executors): {}",
        spec.name,
        if traced { "traced" } else { "untraced" },
        workloads::executors(),
        spec.why
    );
    let outcome = if traced {
        let default = format!("{OUT_DIR}/trace_{}.json", spec.name);
        let path = PathBuf::from(args.text("trace-out").unwrap_or(&default));
        measure::traced(spec, seed, seconds, &path)
    } else {
        measure::end_to_end(spec, seed, seconds)
    };
    if let Some(dir) = temp_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<36} {value:>18.6} {unit}");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

/// What a child run printed: its result line, taken apart, and its
/// checksum.
struct ChildRun {
    attempted: f64,
    failed: f64,
    metrics: Value,
    checksum: String,
}

/// Runs one workload in a child process of this binary, so its peak RSS
/// is its own. The child's report is passed through.
fn child_run(
    spec: &workloads::Spec,
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace.is_some() { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if let Some(path) = trace {
        command.arg("--trace-out").arg(path);
    }
    let output = command
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("{}: cannot run child: {e}", spec.name))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let (report, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", &text));
    if trace.is_none() {
        println!("{report}");
    } else if let Some(header) = report.lines().next() {
        println!("{header} (ledger in the artifact)");
    }
    if !output.status.success() {
        return Err(format!(
            "{}: child exited with {}",
            spec.name, output.status
        ));
    }
    let result = Value::parse(last).map_err(|e| format!("{}: bad result line: {e}", spec.name))?;
    let checksum = report
        .lines()
        .find_map(|line| line.split_once(CHECKSUM_PREFIX).map(|(_, c)| c.to_string()))
        .unwrap_or_default();
    Ok(ChildRun {
        attempted: result.num("attempted"),
        failed: result.num("failed"),
        metrics: result.get("metrics").cloned().unwrap_or(Value::Null),
        checksum,
    })
}

/// A set: every workload `runs` times untraced, optionally once traced.
fn run_set(args: &Args) -> Result<ExitCode, String> {
    args.known(&["seed", "seconds", "runs", "out"])?;
    let quick = args.flag("quick");
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds = args.get("seconds", if quick { 1.0 } else { DEFAULT_SECONDS })?;
    let runs: usize = args.get("runs", if quick { 1 } else { 3 })?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let out = args
        .text("out")
        .map_or_else(|| Path::new(OUT_DIR).join("set.json"), PathBuf::from);
    let out_dir = out.parent().unwrap_or(Path::new(".")).to_path_buf();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    let mut entries = Vec::new();
    let mut failed_total = 0.0;
    let mut checksums = Vec::new();
    for spec in workloads::ALL {
        let mut results = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut checksum = String::new();
        for _ in 0..runs {
            let run = child_run(spec, seed, seconds, None)?;
            attempted += run.attempted;
            failed += run.failed;
            results.push(run.metrics);
            checksum = run.checksum;
        }
        let ledger = if args.flag("traced") {
            let path = out_dir.join(format!("trace_{}.json", spec.name));
            let run = child_run(spec, seed, seconds, Some(&path))?;
            failed += run.failed;
            Some(run.metrics)
        } else {
            None
        };
        failed_total += failed;
        checksums.push((spec.name, checksum.clone()));
        entries.push(artifact::workload_entry(
            spec.name,
            &checksum,
            attempted,
            failed,
            &results,
            ledger.as_ref(),
        ));
    }

    let checksum_of = |name: &str| checksums.iter().find(|(n, _)| *n == name).map(|(_, c)| c);
    let spill_agrees = checksum_of("gram_spill") == checksum_of("gram_shuffle");

    println!();
    println!("== set of {runs} run(s) per workload, seed {seed}, {seconds} s each: median [spread = IQR/median]");
    for entry in &entries {
        println!(
            "{} (ops attempted {}, failed {})",
            entry.get("name").and_then(Value::as_str).unwrap_or("?"),
            entry.num("attempted"),
            entry.num("failed"),
        );
        for (metric, summary) in entry.get("end_to_end").map(Value::entries).unwrap_or(&[]) {
            println!(
                "  {metric:<22} {:>18.4} {:<4} [{:.1} %]",
                summary.num("median"),
                summary.get("unit").and_then(Value::as_str).unwrap_or(""),
                summary.num("spread") * 100.0
            );
        }
    }
    println!("error_rate: {failed_total} failed ops over all workloads");
    if !spill_agrees {
        println!(
            "gram_spill's checksum differs from gram_shuffle's: the spill tier changed a result"
        );
    }
    let document = Value::obj(vec![
        ("stamp", artifact::stamp(seed, seconds, runs)),
        ("workloads", Value::Arr(entries)),
    ]);
    std::fs::write(&out, document.render() + "\n")
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(if failed_total == 0.0 && spill_agrees {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two artifacts".into());
    };
    let read = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (lines, regressed) = artifact::compare(&read(a)?, &read(b)?)?;
    for line in lines {
        println!("{line}");
    }
    println!(
        "{}",
        if regressed {
            "worse: at least one metric regressed beyond its bound"
        } else {
            "no metric is worse beyond its bound"
        }
    );
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The workloads and both metric tables, as `BENCHMARK.json` states them.
fn list() {
    println!("workloads (work unit):");
    for spec in workloads::ALL {
        println!("  {:<18} ({}) {}", spec.name, spec.work_unit, spec.why);
    }
    println!("end-to-end metrics, every workload (untraced run):");
    for m in contract::END_TO_END {
        println!(
            "  {:<22} {:<5} {} is better, may worsen by {:.0} %",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (traced run):");
    for m in contract::PER_LAYER {
        println!(
            "  {:<36} {:<10} {} is better",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Args::parse(&args[1..], &["traced", "quick"]).and_then(|a| run_set(&a)),
        Some("compare") => compare_sets(&args[1..]),
        Some("list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some(first) if first.starts_with("--") => {
            Args::parse(&args, &[]).and_then(|a| run_workload(&a))
        }
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
