//! One run of one workload: set-up, the measuring window, and the metrics
//! drawn from it. The untraced run yields the end-to-end metrics; the
//! traced run yields the per-layer ledger and writes the spans.

use crate::contract::{END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::probes;
use crate::stats;
use crate::trace::{Recorder, SpanId};
use crate::workloads::{self, Call, Prepared, Running, Spec, Traced};
use spangle_dataflow::MetricsSnapshot;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run, unless they are so slow that half the measuring
/// window's worth of time is gone first.
const MAX_SETUPS: usize = 3;

/// What a run found, ready to print.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in the contract's order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for the human reader: sample counts, the tail percentile,
    /// the checksum.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Value::obj(vec![
                    ("value", Value::Num(*value)),
                    ("unit", Value::str(*unit)),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::obj(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .render()
    }
}

/// The ops of one measuring window.
struct Segment {
    op_ms: Vec<f64>,
    failed: usize,
    calls: Vec<Call>,
    /// Traced runs only: the op spans' self time, i.e. op wall minus the
    /// wall of the jobs the op submitted.
    driver_self: Duration,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Segment {
    fn delta(&self, field: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
        field(&self.after).saturating_sub(field(&self.before)) as f64
    }

    /// The op latency the run reports, in milliseconds.
    fn op_ms(&self) -> f64 {
        stats::quiet(&self.op_ms)
    }

    /// Work units per second over the whole of the op time: a mean, so it
    /// moves with every stall; printed and reported ungated.
    fn work_per_s(&self, work_per_op: f64) -> f64 {
        let ok = self.op_ms.len().saturating_sub(self.failed) as f64;
        work_per_op * ok / (self.op_ms.iter().sum::<f64>() / 1e3)
    }
}

/// Keeps every core busy for a little over a second before anything is
/// timed. The VM this was written on runs a core at half speed for its
/// first second of work after a few idle seconds (a 20 M-iteration loop:
/// 105 ms, then 52 ms); without this the first set-up of a run pays that,
/// or not, depending on what ran before it.
fn wake_cores() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let until = Instant::now() + Duration::from_millis(1200);
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(move || {
                let mut x = 1u64;
                while Instant::now() < until {
                    for i in 0..10_000u64 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    std::hint::black_box(x);
                }
            });
        }
    });
}

/// Issues public calls until `window` has passed (at least one). With a
/// recorder, every call becomes an `op#i` span under `parent`, with the
/// job and stage spans the scheduler reported for it.
fn run_segment(
    running: &mut dyn Running,
    window: Duration,
    mut tracer: Option<(&mut Recorder, SpanId)>,
) -> Segment {
    let ctx = running.ctx().clone();
    let before = ctx.metrics_snapshot();
    let mut next_job = ctx.last_job_report().map_or(0, |r| r.job_id + 1);
    let mut segment = Segment {
        op_ms: Vec::new(),
        failed: 0,
        calls: Vec::new(),
        driver_self: Duration::ZERO,
        before,
        after: before,
    };
    let started = Instant::now();
    loop {
        let issued = Instant::now();
        let batch = running.run(window.saturating_sub(started.elapsed()));
        let last = batch.fills_window || started.elapsed() >= window;
        segment.failed += batch.failed;
        segment
            .op_ms
            .extend(batch.op_times.iter().map(|d| d.as_secs_f64() * 1e3));
        if let Some((recorder, parent)) = tracer.as_mut() {
            let wall: Duration = batch.parts.iter().map(|(_, d)| *d).sum();
            let reports: Vec<_> = ctx
                .job_reports()
                .into_iter()
                .filter(|r| r.job_id >= next_job)
                .collect();
            next_job = reports.last().map_or(next_job, |r| r.job_id + 1);
            let name = format!("op#{}", segment.calls.len());
            let span = recorder.add(*parent, name, recorder.at(issued), wall);
            for (part, d) in &batch.parts {
                recorder.set(span, part, Value::Num(d.as_nanos() as f64));
            }
            recorder.add_jobs(span, &reports);
            segment.driver_self += recorder.self_time(span);
            segment.calls.push(Call {
                wall,
                ops: batch.op_times.len(),
                parts: batch.parts,
                reports,
            });
        }
        if last {
            break;
        }
    }
    segment.after = ctx.metrics_snapshot();
    segment
}

/// Sets the workload up repeatedly, keeping the last one. Returns it with
/// every set-up's wall time.
fn set_up(prepared: &dyn Prepared, max: usize, budget: Duration) -> (Box<dyn Running>, Vec<f64>) {
    let phase = Instant::now();
    let mut times = Vec::new();
    let mut running: Option<Box<dyn Running>> = None;
    loop {
        if let Some(previous) = running.take() {
            workloads::retire(previous);
        }
        let started = Instant::now();
        running = Some(prepared.set_up());
        times.push(started.elapsed().as_secs_f64());
        if times.len() >= max || phase.elapsed() >= budget {
            return (running.expect("set up at least once"), times);
        }
    }
}

/// This process's peak resident set, from `/proc/self/status`.
fn peak_rss_bytes() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0)
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    wake_cores();
    let window = Duration::from_secs_f64(seconds);
    let prepared = (spec.prepare)(seed);
    let (mut running, setups) = set_up(prepared.as_ref(), MAX_SETUPS, window / 2);
    let segment = run_segment(running.as_mut(), window, None);

    let ops = segment.op_ms.len();
    let measured_s: f64 = segment.op_ms.iter().sum::<f64>() / 1e3;
    let moved = segment.delta(|s| s.shuffle_write_bytes) + segment.delta(|s| s.broadcast_bytes);
    let values: HashMap<&str, f64> = HashMap::from([
        ("setup_s", stats::median(&setups)),
        ("op_p10_ms", segment.op_ms()),
        ("peak_rss_bytes", peak_rss_bytes()),
        (
            "resident_peak_bytes",
            segment.after.memory_highwater_bytes as f64,
        ),
        ("moved_bytes_per_op", moved / ops as f64),
    ]);

    let sorted = stats::sorted(segment.op_ms.clone());
    let mut notes = vec![
        format!(
            "{ops} ops in {measured_s:.3} s of op time, {} set-ups {setups:.3?} s",
            setups.len(),
        ),
        format!(
            "op_p50_ms = {:.3} ms, {} (neither gated)",
            stats::quantile(&sorted, 0.5),
            match stats::supported_tail(&sorted) {
                Some((p, v)) => format!("op_tail_ms p{p} = {v:.3} ms"),
                None => format!("op_tail_ms: {ops} samples support no percentile above the median"),
            }
        ),
        format!(
            "work_per_s = {:.4e} {}/s over all op time, {:.4e} at op_p10_ms",
            segment.work_per_s(prepared.work_per_op()),
            spec.work_unit,
            prepared.work_per_op() / (segment.op_ms() / 1e3),
        ),
        format!("error_rate: {} failed of {ops} ops", segment.failed),
        format!("checksum: {}", running.checksum()),
    ];
    if segment.delta(|s| s.tasks_speculated) > 0.0 {
        notes.push(format!(
            "{} speculative attempts in a fault-free run",
            segment.delta(|s| s.tasks_speculated)
        ));
    }
    workloads::retire(running);
    Outcome {
        attempted: ops,
        failed: segment.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, values[m.name], m.unit))
            .collect(),
        notes,
    }
}

/// The traced run: every per-layer metric, and the spans written to
/// `trace_path`.
pub fn traced(spec: &Spec, seed: u64, seconds: f64, trace_path: &Path) -> Outcome {
    wake_cores();
    let mut recorder = Recorder::new();
    let root = recorder.open(None, spec.name);
    let window = Duration::from_secs_f64(seconds);
    let prepared = (spec.prepare)(seed);

    let setup_span = recorder.open(Some(root), "setup");
    let (mut running, _) = set_up(prepared.as_ref(), 1, Duration::ZERO);
    recorder.close(setup_span);

    // The same ops twice: without the recorder for the reference latency,
    // then with it.
    let plain = run_segment(running.as_mut(), window.mul_f64(0.3), None);
    let segment = run_segment(
        running.as_mut(),
        window.mul_f64(0.3),
        Some((&mut recorder, root)),
    );

    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let ops = segment.op_ms.len() as f64;
    let executors = workloads::executors() as f64;
    let reports = || segment.calls.iter().flat_map(|call| &call.reports);
    let call_wall: f64 = segment.calls.iter().map(|c| c.wall.as_secs_f64()).sum();
    let driver_self = segment.driver_self.as_secs_f64();
    let mut busy = vec![0.0f64; workloads::executors()];
    for report in reports() {
        for (slot, nanos) in busy.iter_mut().zip(&report.executor_busy_nanos) {
            *slot += *nanos as f64 / 1e9;
        }
    }
    let busy_total: f64 = busy.iter().sum();
    let per_op = |field: fn(&MetricsSnapshot) -> u64| segment.delta(field) / ops;
    let speculated = segment.delta(|s| s.tasks_speculated);
    values.extend([
        ("scheduler.jobs_per_op", reports().count() as f64 / ops),
        (
            "scheduler.stages_per_op",
            reports().map(|r| r.stages_run()).sum::<usize>() as f64 / ops,
        ),
        ("scheduler.tasks_per_op", per_op(|s| s.tasks_run)),
        (
            "scheduler.queue_wait_ms_per_op",
            reports()
                .map(|r| r.queue_wait_nanos as f64 / 1e6)
                .sum::<f64>()
                / ops,
        ),
        ("scheduler.driver_self_ms_per_op", driver_self * 1e3 / ops),
        (
            "scheduler.spurious_events",
            speculated
                + segment.delta(|s| s.watchdog_trips)
                + segment.delta(|s| s.heartbeats_missed)
                + segment.delta(|s| s.task_retries)
                + segment.delta(|s| s.executors_lost),
        ),
        (
            "scheduler.speculation_win_ratio",
            if speculated > 0.0 {
                segment.delta(|s| s.speculation_wins) / speculated
            } else {
                0.0
            },
        ),
        (
            "executor.busy_fraction",
            busy_total / (executors * call_wall),
        ),
        (
            "executor.busy_skew",
            if busy_total > 0.0 {
                busy.iter().fold(0.0f64, |a, b| a.max(*b)) / (busy_total / executors)
            } else {
                0.0
            },
        ),
        ("executor.tasks_stolen_per_op", per_op(|s| s.tasks_stolen)),
        ("plan.stages_fused_per_op", per_op(|s| s.stages_fused)),
        ("plan.shuffles_elided_per_op", per_op(|s| s.shuffles_elided)),
        (
            "plan.partitions_coalesced_per_op",
            per_op(|s| s.partitions_coalesced),
        ),
        (
            "shuffle.write_bytes_per_op",
            per_op(|s| s.shuffle_write_bytes),
        ),
        (
            "shuffle.read_bytes_per_op",
            per_op(|s| s.shuffle_read_bytes),
        ),
        ("shuffle.records_per_op", per_op(|s| s.shuffle_records)),
        ("cache.hits_per_op", per_op(|s| s.cache_hits)),
        ("cache.misses_per_op", per_op(|s| s.cache_misses)),
        (
            "cache.highwater_bytes",
            segment.after.cache_highwater_bytes as f64,
        ),
        ("broadcast.bytes_per_op", per_op(|s| s.broadcast_bytes)),
        ("spill.blocks_spilled_per_op", per_op(|s| s.blocks_spilled)),
        (
            "spill.blocks_rehydrated_per_op",
            per_op(|s| s.blocks_rehydrated),
        ),
        ("spill.bytes_per_op", per_op(|s| s.spill_bytes)),
        (
            "spill.disk_peak_bytes",
            segment.after.disk_resident_bytes as f64,
        ),
        ("oracle.op_ms", prepared.oracle_op().as_secs_f64() * 1e3),
        (
            "trace.overhead_pct",
            (segment.op_ms() / plain.op_ms() - 1.0) * 100.0,
        ),
        ("untraced.op_p50_ms", stats::median(&plain.op_ms)),
        (
            "untraced.work_per_s",
            plain.work_per_s(prepared.work_per_op()),
        ),
    ]);
    values.extend(running.layer_metrics(&Traced {
        calls: &segment.calls,
        op_time: Duration::from_secs_f64(segment.op_ms() / 1e3),
    }));
    let checksum = running.checksum();
    workloads::retire(running);

    let probe_span = recorder.open(Some(root), "probes");
    values.extend(probes::run_all(&mut recorder, probe_span));
    recorder.close(probe_span);
    recorder.close(root);

    let mut notes = vec![
        format!(
            "{} traced ops after {} untraced; op wall {:.3} s = job wall {:.3} s + driver self {:.3} s",
            segment.op_ms.len(),
            plain.op_ms.len(),
            call_wall,
            call_wall - driver_self,
            driver_self
        ),
        format!(
            "error_rate: {} failed of {} ops",
            segment.failed + plain.failed,
            segment.op_ms.len() + plain.op_ms.len(),
        ),
        format!("checksum: {checksum}"),
    ];
    let document = Value::obj(vec![
        ("workload", Value::str(spec.name)),
        ("seed", Value::Num(seed as f64)),
        ("spans", recorder.to_json()),
    ]);
    let written = trace_path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(trace_path, document.render() + "\n"));
    notes.push(match written {
        Ok(()) => format!("spans written to {}", trace_path.display()),
        Err(err) => format!("could not write {}: {err}", trace_path.display()),
    });

    Outcome {
        attempted: segment.op_ms.len() + plain.op_ms.len(),
        failed: segment.failed + plain.failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect(),
        notes,
    }
}
