//! `raster_queries`: one round of the Table I queries Q1..Q5 over a range
//! of an SDSS-like array, through `SpangleRaster`.

use super::{close, executors, Batch, Prepared, Running, Spec, Traced};
use spangle_core::ArrayMeta;
use spangle_dataflow::SpangleContext;
use spangle_raster::{QueryRange, RasterSystem, SdssConfig, SpangleRaster};
use std::time::{Duration, Instant};

pub const SPEC: Spec = Spec {
    name: "raster_queries",
    why: "chunk and bitmask operators (core, bitmask, raster) do almost all the work, shuffle almost none",
    work_unit: "cells scanned",
    prepare,
};

const WIDTH: usize = 1024;
const HEIGHT: usize = 768;
const IMAGES: usize = 64;
const CHUNK: [usize; 3] = [128, 128, 1];
const LO: [usize; 3] = [128, 128, 8];
const HI: [usize; 3] = [896, 640, 56];
/// The *r* band, as in the Fig. 7 harness.
const BAND: usize = 2;
const REGRID: usize = 4;
const COND_THRESHOLD: f64 = 500.0;
const FILTER: (f64, f64) = (100.0, 1000.0);
const DENSITY_CELL: usize = 32;
const DENSITY_MIN: usize = 40;

/// The five answers of one round.
#[derive(Clone, Debug, PartialEq)]
struct Answers {
    q1: Option<f64>,
    q2: (usize, f64),
    q3: Option<f64>,
    q4: usize,
    q5: usize,
}

impl Answers {
    fn matches(&self, oracle: &Answers) -> bool {
        let opt_close = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) => close(a, b),
            (None, None) => true,
            _ => false,
        };
        opt_close(self.q1, oracle.q1)
            && self.q2.0 == oracle.q2.0
            && close(self.q2.1, oracle.q2.1)
            && opt_close(self.q3, oracle.q3)
            && self.q4 == oracle.q4
            && self.q5 == oracle.q5
    }
}

struct RasterPrepared {
    cfg: SdssConfig,
    oracle: Answers,
    oracle_op: Duration,
}

fn prepare(seed: u64) -> Box<dyn Prepared> {
    let cfg = SdssConfig {
        width: WIDTH,
        height: HEIGHT,
        images: IMAGES,
        seed: crate::gen::sub_seed(seed, 1),
        ..SdssConfig::default()
    };
    let started = Instant::now();
    let oracle = scan(&cfg);
    Box::new(RasterPrepared {
        cfg,
        oracle,
        oracle_op: started.elapsed(),
    })
}

/// Sequential reference: one pass over the generator answers all five
/// queries (the system makes five).
fn scan(cfg: &SdssConfig) -> Answers {
    let (mut sum, mut count) = (0.0f64, 0usize);
    let (mut cond_sum, mut cond_count) = (0.0f64, 0usize);
    let mut filtered = 0usize;
    let regrid_w = WIDTH.div_ceil(REGRID);
    let mut regrid = vec![(0.0f64, 0usize); regrid_w * HEIGHT.div_ceil(REGRID)];
    let density_w = WIDTH.div_ceil(DENSITY_CELL);
    let mut density = vec![0usize; density_w * HEIGHT.div_ceil(DENSITY_CELL)];
    for img in LO[2]..HI[2] {
        for y in LO[1]..HI[1] {
            for x in LO[0]..HI[0] {
                let Some(v) = cfg.value(BAND, x, y, img) else {
                    continue;
                };
                sum += v;
                count += 1;
                if v > COND_THRESHOLD {
                    cond_sum += v;
                    cond_count += 1;
                }
                if v >= FILTER.0 && v < FILTER.1 {
                    filtered += 1;
                }
                let cell = &mut regrid[x / REGRID + (y / REGRID) * regrid_w];
                cell.0 += v;
                cell.1 += 1;
                density[x / DENSITY_CELL + (y / DENSITY_CELL) * density_w] += 1;
            }
        }
    }
    let means = regrid.iter().filter(|(_, n)| *n > 0);
    Answers {
        q1: (count > 0).then(|| sum / count as f64),
        q2: (
            means.clone().count(),
            means.map(|(s, n)| s / *n as f64).sum(),
        ),
        q3: (cond_count > 0).then(|| cond_sum / cond_count as f64),
        q4: filtered,
        q5: density.iter().filter(|n| **n > DENSITY_MIN).count(),
    }
}

impl Prepared for RasterPrepared {
    fn set_up(&self) -> Box<dyn Running> {
        let ctx = SpangleContext::new(executors());
        let meta = ArrayMeta::new(self.cfg.dims(), CHUNK.to_vec());
        let started = Instant::now();
        let raster = SpangleRaster::ingest(&ctx, meta, self.cfg.band_fn(BAND));
        let mut running = RasterRunning {
            ingest: started.elapsed(),
            ctx,
            raster,
            range: QueryRange {
                lo: LO.to_vec(),
                hi: HI.to_vec(),
            },
            oracle: self.oracle.clone(),
            first: None,
        };
        running.run(Duration::ZERO);
        Box::new(running)
    }

    fn work_per_op(&self) -> f64 {
        let volume: usize = LO.iter().zip(&HI).map(|(lo, hi)| hi - lo).product();
        (5 * volume) as f64
    }

    fn oracle_op(&self) -> Duration {
        self.oracle_op
    }
}

struct RasterRunning {
    ctx: SpangleContext,
    /// Wall time of `SpangleRaster::ingest` (generate, build chunks,
    /// persist, count).
    ingest: Duration,
    raster: SpangleRaster,
    range: QueryRange,
    oracle: Answers,
    first: Option<Answers>,
}

impl Running for RasterRunning {
    fn run(&mut self, _budget: Duration) -> Batch {
        let mut parts = Vec::with_capacity(5);
        let started = Instant::now();
        let mut lap = started;
        let mut part = |name: &'static str| {
            let now = Instant::now();
            parts.push((name, now - lap));
            lap = now;
        };
        let q1 = self.raster.q1_avg(&self.range);
        part("q1");
        let q2 = self.raster.q2_regrid(&self.range, REGRID);
        part("q2");
        let q3 = self.raster.q3_cond_avg(&self.range, COND_THRESHOLD);
        part("q3");
        let q4 = self.raster.q4_filter_count(&self.range, FILTER.0, FILTER.1);
        part("q4");
        let q5 = self
            .raster
            .q5_density(&self.range, DENSITY_CELL, DENSITY_MIN);
        part("q5");
        let elapsed = started.elapsed();
        let answers = Answers { q1, q2, q3, q4, q5 };
        // Q2 sums group means in the order a hash map yields them, so its
        // last bits move between ops: ops are compared to the first
        // through the same tolerance as to the oracle.
        let first = self.first.get_or_insert_with(|| answers.clone());
        let ok = answers.matches(&self.oracle) && answers.matches(first);
        Batch {
            op_times: vec![elapsed],
            failed: usize::from(!ok),
            parts,
            fills_window: false,
        }
    }

    fn layer_metrics(&mut self, traced: &Traced) -> Vec<(&'static str, f64)> {
        let cells = (WIDTH * HEIGHT * IMAGES) as f64;
        let valid = self.raster.array().count_valid().expect("count") as f64;
        vec![
            (
                "raster.ingest_mcells_per_s",
                cells / 1e6 / self.ingest.as_secs_f64(),
            ),
            ("raster.q1_ms", traced.part_ms("q1")),
            ("raster.q2_ms", traced.part_ms("q2")),
            ("raster.q3_ms", traced.part_ms("q3")),
            ("raster.q4_ms", traced.part_ms("q4")),
            ("raster.q5_ms", traced.part_ms("q5")),
            (
                "raster.bytes_per_valid_cell",
                self.raster.mem_bytes() as f64 / valid,
            ),
        ]
    }

    fn ctx(&self) -> &SpangleContext {
        &self.ctx
    }

    fn checksum(&self) -> String {
        self.first.as_ref().map_or_else(String::new, |a| {
            format!(
                "q1={:.9e} q2={}/{:.9e} q3={:.9e} q4={} q5={}",
                a.q1.unwrap_or(f64::NAN),
                a.q2.0,
                a.q2.1,
                a.q3.unwrap_or(f64::NAN),
                a.q4,
                a.q5
            )
        })
    }
}
