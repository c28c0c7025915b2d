//! Figure 10: machine-learning core operations — `M×V`, `Vᵀ×M`, `MᵀM` —
//! across Spangle, Spark (COO), MLlib (CSC), SciSpark (dense blocks) and
//! the SciDB stand-in, on four matrix classes scaled after Table IIa.
//!
//! As in the paper, a `x` cell means the system could not run the
//! operation: the dense format's materialised size exceeds the modelled
//! executor memory, exactly the OOM the paper reports for Mouse/Hardesty/
//! Mawi on dense systems.

use spangle_baselines::{BlockMatrix, CooBlock, CscBlock, DenseBlock, LocalArrayEngine};
use spangle_bench::{banner, ms, time, write_bench_json, Json, Table};
use spangle_core::{ArrayMeta, ChunkPolicy};
use spangle_dataflow::{JobReport, MetricsSnapshot, SpangleContext};
use spangle_linalg::{DenseVector, DistMatrix};
use std::time::Duration;

/// Modelled per-executor memory for the dense comparator (the paper's
/// executors had 10 GB; scale to our matrix sizes).
const DENSE_BUDGET_BYTES: usize = 256 << 20;

/// One matrix workload, scaled from Table IIa.
struct Workload {
    name: &'static str,
    rows: usize,
    cols: usize,
    block: usize,
    /// Per-mille density.
    density_per_mille: u64,
    /// Whether `MᵀM` is attempted (the paper's bounded-time rule).
    try_gram: bool,
}

const WORKLOADS: &[Workload] = &[
    // Covtype: 581K x 54, density 0.218 -> tall dense-ish.
    Workload {
        name: "covtype-like",
        rows: 16384,
        cols: 64,
        block: 64,
        density_per_mille: 218,
        try_gram: true,
    },
    // Mouse: 45K^2, density 0.014.
    Workload {
        name: "mouse-like",
        rows: 4096,
        cols: 4096,
        block: 256,
        density_per_mille: 14,
        try_gram: true,
    },
    // Hardesty: 8M^2, density 6.4e-7 -> hyper-sparse.
    Workload {
        name: "hardesty-like",
        rows: 16384,
        cols: 16384,
        block: 512,
        density_per_mille: 1,
        try_gram: true,
    },
    // Mawi: 129M^2, density 9.3e-9 -> even sparser, bigger.
    Workload {
        name: "mawi-like",
        rows: 65536,
        cols: 65536,
        block: 2048,
        density_per_mille: 0, // handled specially: ~0.05 per mille
        try_gram: false,
    },
];

fn entry_fn(w: &Workload) -> impl Fn(usize, usize) -> Option<f64> + Send + Sync + Clone + 'static {
    let per_million = if w.density_per_mille == 0 {
        50 // mawi-like: 5e-5
    } else {
        w.density_per_mille * 1000
    };
    move |r: usize, c: usize| {
        let h = hash2(r as u64, c as u64);
        (h % 1_000_000 < per_million).then(|| ((h >> 32) % 1000) as f64 / 500.0 - 1.0)
    }
}

fn hash2(a: u64, b: u64) -> u64 {
    let mut x = a.wrapping_mul(0x9E3779B97F4A7C15) ^ b.wrapping_mul(0xC2B2AE3D27D4EB4F);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^ (x >> 32)
}

fn unit_vec(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 7) as f64) / 7.0 + 0.1).collect()
}

/// Machine-readable record of one spangle op for `BENCH_fig10.json`:
/// wall time, the run's shuffle traffic, and the planner rewrite
/// counters from the job's scheduler report.
fn op_json(op: &str, wall: Duration, delta: &MetricsSnapshot, report: Option<&JobReport>) -> Json {
    Json::obj(vec![
        ("op", Json::Str(op.into())),
        ("wall_ms", Json::F64(wall.as_secs_f64() * 1e3)),
        ("shuffle_write_bytes", Json::U64(delta.shuffle_write_bytes)),
        ("shuffle_read_bytes", Json::U64(delta.shuffle_read_bytes)),
        ("stages_fused", Json::U64(delta.stages_fused)),
        ("shuffles_elided", Json::U64(delta.shuffles_elided)),
        (
            "queue_wait_ms",
            Json::F64(report.map_or(0.0, |r| r.queue_wait_nanos as f64 / 1e6)),
        ),
        ("tasks_cancelled", Json::U64(delta.tasks_cancelled)),
    ])
}

fn main() {
    banner(
        "Figure 10",
        "ML core operations (MxV, VtxM, MtM) across matrix systems",
    );
    let ctx = SpangleContext::new(8);
    let mut json_workloads: Vec<Json> = Vec::new();

    for w in WORKLOADS {
        println!(
            "-- {}: {}x{}, block {}, target density {}",
            w.name,
            w.rows,
            w.cols,
            w.block,
            if w.density_per_mille == 0 {
                "5e-5".to_string()
            } else {
                format!("{:.3}", w.density_per_mille as f64 / 1000.0)
            }
        );
        let f = entry_fn(w);
        let dense_bytes = w.rows * w.cols * 8;
        let dense_fits = dense_bytes <= DENSE_BUDGET_BYTES;

        // Build all systems on identical data.
        let spangle = DistMatrix::generate(
            &ctx,
            w.rows,
            w.cols,
            (w.block, w.block.min(w.cols)),
            ChunkPolicy::default(),
            f.clone(),
        );
        spangle.persist();
        spangle.nnz().expect("spangle ingest");
        let coo = BlockMatrix::<CooBlock>::generate(
            &ctx,
            w.rows,
            w.cols,
            (w.block, w.block.min(w.cols)),
            f.clone(),
        );
        coo.persist();
        coo.nnz().expect("coo ingest");
        let csc = BlockMatrix::<CscBlock>::generate(
            &ctx,
            w.rows,
            w.cols,
            (w.block, w.block.min(w.cols)),
            f.clone(),
        );
        csc.persist();
        csc.nnz().expect("csc ingest");
        let dense = dense_fits.then(|| {
            let m = BlockMatrix::<DenseBlock>::generate(
                &ctx,
                w.rows,
                w.cols,
                (w.block, w.block.min(w.cols)),
                f.clone(),
            );
            m.persist();
            m.nnz().expect("dense ingest");
            m
        });
        let scidb = dense_fits.then(|| {
            LocalArrayEngine::ingest(
                ArrayMeta::new(vec![w.rows, w.cols], vec![w.block, w.block.min(w.cols)]),
                |c| f(c[0], c[1]),
            )
        });

        let x_col = unit_vec(w.cols);
        let x_row = unit_vec(w.rows);
        let mut table = Table::new(&[
            "op",
            "spangle",
            "spark-coo",
            "mllib-csc",
            "scispark-dense",
            "scidb(+io)",
        ]);

        let mut spangle_reports = Vec::new();
        let mut ops_json: Vec<Json> = Vec::new();

        // M x V
        {
            let op_before = ctx.metrics_snapshot();
            let (_, t_sp) = time(|| {
                spangle
                    .matvec(&DenseVector::column(x_col.clone()))
                    .expect("matvec")
            });
            let op_delta = ctx.metrics_snapshot() - op_before;
            spangle_reports.extend(ctx.last_job_report().map(|r| ("MxV", r)));
            ops_json.push(op_json(
                "MxV",
                t_sp,
                &op_delta,
                ctx.last_job_report().as_ref(),
            ));
            let (_, t_coo) = time(|| coo.matvec(&x_col).expect("matvec"));
            let (_, t_csc) = time(|| csc.matvec(&x_col).expect("matvec"));
            let t_dense = dense
                .as_ref()
                .map(|d| time(|| d.matvec(&x_col).expect("matvec")).1);
            let t_scidb = scidb.as_ref().map(|e| {
                e.reset_io();
                let (_, t) = time(|| e.matvec(&x_col));
                t + e.modeled_io_time()
            });
            table.row(vec![
                "MxV".into(),
                ms(t_sp),
                ms(t_coo),
                ms(t_csc),
                t_dense.map_or("x".into(), ms),
                t_scidb.map_or("x".into(), ms),
            ]);
        }

        // Vt x M
        {
            let op_before = ctx.metrics_snapshot();
            let (_, t_sp) = time(|| {
                spangle
                    .vecmat(&DenseVector::row(x_row.clone()))
                    .expect("vecmat")
            });
            let op_delta = ctx.metrics_snapshot() - op_before;
            ops_json.push(op_json(
                "VtxM",
                t_sp,
                &op_delta,
                ctx.last_job_report().as_ref(),
            ));
            let (_, t_coo) = time(|| coo.vecmat(&x_row).expect("vecmat"));
            let (_, t_csc) = time(|| csc.vecmat(&x_row).expect("vecmat"));
            let t_dense = dense
                .as_ref()
                .map(|d| time(|| d.vecmat(&x_row).expect("vecmat")).1);
            table.row(vec![
                "VtxM".into(),
                ms(t_sp),
                ms(t_coo),
                ms(t_csc),
                t_dense.map_or("x".into(), ms),
                "-".into(),
            ]);
        }

        // Mt x M
        if w.try_gram {
            // The BlockMatrix baselines accumulate *dense* partial blocks
            // (like Spark/MLlib BlockMatrix): estimate the shuffled
            // partial volume and report OOM (x) when it cannot fit —
            // reproducing the paper's "most systems fail to compute MtM".
            let block_c = w.block.min(w.cols);
            let grid_inner = w.rows.div_ceil(w.block);
            let out_blocks = w.cols.div_ceil(block_c) * w.cols.div_ceil(block_c);
            let partial_bytes = 16usize // map partitions
                .saturating_mul(out_blocks)
                .saturating_mul(block_c * block_c * 8)
                .min(
                    grid_inner
                        .saturating_mul(out_blocks)
                        .saturating_mul(block_c * block_c * 8),
                );
            let baselines_fit = partial_bytes <= DENSE_BUDGET_BYTES * 8;

            let op_before = ctx.metrics_snapshot();
            let (_, t_sp) = time(|| spangle.gram().nnz().expect("gram"));
            let op_delta = ctx.metrics_snapshot() - op_before;
            spangle_reports.extend(ctx.last_job_report().map(|r| ("MtM", r)));
            ops_json.push(op_json(
                "MtM",
                t_sp,
                &op_delta,
                ctx.last_job_report().as_ref(),
            ));
            let t_coo = baselines_fit.then(|| time(|| coo.gram().nnz().expect("gram")).1);
            let t_csc = baselines_fit.then(|| time(|| csc.gram().nnz().expect("gram")).1);
            let gram_dense_bytes = w.cols * w.cols * 8;
            let t_dense = dense
                .as_ref()
                .filter(|_| baselines_fit && gram_dense_bytes <= DENSE_BUDGET_BYTES)
                .map(|d| time(|| d.gram().nnz().expect("gram")).1);
            table.row(vec![
                "MtM".into(),
                ms(t_sp),
                t_coo.map_or("x".into(), ms),
                t_csc.map_or("x".into(), ms),
                t_dense.map_or("x".into(), ms),
                "-".into(),
            ]);
        } else {
            table.row(vec![
                "MtM".into(),
                "x".into(),
                "x".into(),
                "x".into(),
                "x".into(),
                "x".into(),
            ]);
        }
        table.print();

        for (op, report) in &spangle_reports {
            println!("   spangle {op} scheduler report: {report}");
        }
        let busy_ms: Vec<String> = ctx
            .executor_busy_nanos()
            .iter()
            .map(|n| format!("{:.0}", *n as f64 / 1e6))
            .collect();
        let queue_wait_ms: u64 = spangle_reports
            .iter()
            .map(|(_, r)| r.queue_wait_nanos / 1_000_000)
            .sum();
        let snap = ctx.metrics_snapshot();
        println!(
            "   cluster so far: steals per executor {:?}, busy ms [{}], task queue wait {} ms, \
             {} executors lost, {} fetch failures, {} map partitions recomputed",
            ctx.executor_steals(),
            busy_ms.join(", "),
            queue_wait_ms,
            snap.executors_lost,
            snap.fetch_failures,
            snap.map_partitions_recomputed,
        );
        println!(
            "   memory so far: peak {} KiB (cache peak {} KiB), {} partitions evicted",
            snap.memory_highwater_bytes / 1024,
            snap.cache_highwater_bytes / 1024,
            snap.partitions_evicted,
        );
        println!(
            "   spill so far: {} blocks out, {} back, {} KiB written, disk peak {} KiB",
            snap.blocks_spilled,
            snap.blocks_rehydrated,
            snap.spill_bytes / 1024,
            snap.disk_resident_bytes / 1024,
        );
        println!(
            "   planner so far: {} narrow chains fused, {} shuffles elided",
            snap.stages_fused, snap.shuffles_elided,
        );
        json_workloads.push(Json::obj(vec![
            ("name", Json::Str(w.name.into())),
            ("rows", Json::U64(w.rows as u64)),
            ("cols", Json::U64(w.cols as u64)),
            ("ops", Json::Arr(ops_json)),
        ]));
        println!(
            "   nnz={}  memory: spangle={} KiB, coo={} KiB, csc={} KiB, dense={}",
            spangle.nnz().unwrap(),
            spangle.mem_bytes().unwrap() / 1024,
            coo.mem_bytes().unwrap() / 1024,
            csc.mem_bytes().unwrap() / 1024,
            dense
                .as_ref()
                .map_or("x (exceeds budget)".to_string(), |d| format!(
                    "{} KiB",
                    d.mem_bytes().unwrap() / 1024
                )),
        );
        println!();
    }

    // Figure-level memory trajectory: the run's peak resident bytes
    // (post-spill) and the spill tier's activity.
    let final_snap = ctx.metrics_snapshot();
    write_bench_json(
        "fig10",
        &Json::obj(vec![
            ("figure", Json::Str("fig10".into())),
            (
                "description",
                Json::Str("ML core operations (MxV, VtxM, MtM) on the spangle engine".into()),
            ),
            (
                "memory_peak_bytes",
                Json::U64(final_snap.memory_highwater_bytes),
            ),
            ("blocks_spilled", Json::U64(final_snap.blocks_spilled)),
            ("blocks_rehydrated", Json::U64(final_snap.blocks_rehydrated)),
            ("spill_bytes", Json::U64(final_snap.spill_bytes)),
            ("workloads", Json::Arr(json_workloads)),
        ]),
    );
}
