//! The seven workloads. Each one drives the public API of the layer
//! crates in a closed loop with one client: the next op is issued when the
//! previous one has returned.
//!
//! A workload has two halves. [`Prepared`] is everything that depends only
//! on the seed — generator parameters and the sequential oracle — and is
//! built once per run. [`Running`] is the system under test after one
//! set-up (fresh context, generate, ingest, persist, one warm-up op);
//! set-up is repeated so `setup_s` can be a median.

mod gram;
mod matvec;
mod pagerank;
mod raster;
mod sgd;

use crate::stats;
use spangle_dataflow::{JobReport, SpangleContext};
use std::time::Duration;

/// What one call of [`Running::run`] did.
pub struct Batch {
    /// Latency of every op the call contained (one, except for PageRank
    /// where one public call runs a block of iterations).
    pub op_times: Vec<Duration>,
    /// Ops that returned `Err`, missed the oracle, or differed from the
    /// first op of the run.
    pub failed: usize,
    /// Named sub-intervals of the call (one public function each), for the
    /// trace and the workload's own per-layer metrics.
    pub parts: Vec<(&'static str, Duration)>,
    /// The call was sized to the budget it was given: the window ends
    /// with it, however long it took.
    pub fills_window: bool,
}

/// One public call of the traced run, with the scheduler's reports of the
/// jobs it submitted.
pub struct Call {
    pub wall: Duration,
    /// Ops the call contained.
    pub ops: usize,
    pub parts: Vec<(&'static str, Duration)>,
    pub reports: Vec<JobReport>,
}

/// What a workload sees of the traced run when it derives its own
/// per-layer metrics.
pub struct Traced<'a> {
    pub calls: &'a [Call],
    /// Op latency of the traced ops ([`stats::quiet`], as everywhere).
    pub op_time: Duration,
}

impl Traced<'_> {
    pub fn ops(&self) -> usize {
        self.calls.iter().map(|call| call.ops).sum()
    }

    pub fn jobs(&self) -> usize {
        self.calls.iter().map(|call| call.reports.len()).sum()
    }

    /// Duration of the named part over the calls ([`stats::quiet`]), in
    /// milliseconds.
    pub fn part_ms(&self, name: &str) -> f64 {
        let samples: Vec<f64> = self
            .calls
            .iter()
            .flat_map(|call| &call.parts)
            .filter(|(part, _)| *part == name)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            stats::quiet(&samples)
        }
    }
}

/// A workload after set-up, ready to run ops.
pub trait Running {
    /// Issues one public call and checks its result. `budget` is what is
    /// left of the measuring window; only a call that must fix its op
    /// count up front (PageRank's iteration count) looks at it, and says
    /// so in [`Batch::fills_window`].
    fn run(&mut self, budget: Duration) -> Batch;

    /// The per-layer metrics only this workload can name, from the traced
    /// calls. May run further ops of its own.
    fn layer_metrics(&mut self, traced: &Traced) -> Vec<(&'static str, f64)>;

    /// The context the ops run on, for counters and job reports.
    fn ctx(&self) -> &SpangleContext;

    /// A digest of the first checked result, printed so two runs of one
    /// seed (and `gram_spill` against `gram_shuffle`) can be compared.
    fn checksum(&self) -> String;
}

/// The seed-dependent half of a workload.
pub trait Prepared {
    /// Fresh context, generate, ingest, persist, one warm-up op. A warm-up
    /// that fails its check is reported by the first measured op.
    fn set_up(&self) -> Box<dyn Running>;

    /// Work units one op performs, in [`Spec::work_unit`]s.
    fn work_per_op(&self) -> f64;

    /// Wall time of the single-threaded reference for one op.
    fn oracle_op(&self) -> Duration;
}

/// Static description of a workload.
pub struct Spec {
    /// Name on the command line and in every artifact.
    pub name: &'static str,
    /// Why the workload exists: the layer it loads.
    pub why: &'static str,
    /// The unit `work_per_s` counts.
    pub work_unit: &'static str,
    /// Builds the seed-dependent half.
    pub prepare: fn(u64) -> Box<dyn Prepared>,
}

/// Every workload, in the order a set runs them.
pub const ALL: &[Spec] = &[
    raster::SPEC,
    matvec::SPEC,
    gram::HYPERSPARSE,
    gram::SHUFFLE,
    gram::SPILL,
    pagerank::SPEC,
    sgd::SPEC,
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|spec| spec.name == name)
}

/// Executors every workload's context gets: the machine's cores, capped at
/// four. The figure harnesses pin eight, which on a two-core machine
/// measures oversubscription more than the system.
pub fn executors() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// `|a - b|` within `1e-9` of the larger magnitude (or of 1 near zero):
/// the oracles sum in a different order than the system does.
pub(crate) fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Element-wise [`close`].
pub(crate) fn all_close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
}

/// FNV-1a over the raw bits of a float slice: a stable digest for the
/// bit-identical-across-ops check.
pub(crate) fn digest(values: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Drops everything that holds `ctx` on this thread, waits, then drops the
/// handle itself.
///
/// An executor thread can still own a clone of the context for a moment
/// after the last job's result has reached the driver (the task closure is
/// dropped after it reports). If that clone is the last one, the context
/// is torn down on the executor thread, which then joins itself and
/// panics with `EDEADLK`. Holding one handle across a short pause makes
/// this thread the one that tears the context down.
pub fn retire_context<T>(ctx: SpangleContext, holder: T) {
    drop(holder);
    std::thread::sleep(Duration::from_millis(20));
    drop(ctx);
}

/// [`retire_context`] for a whole workload.
pub fn retire(running: Box<dyn Running>) {
    let ctx = running.ctx().clone();
    retire_context(ctx, running);
}
