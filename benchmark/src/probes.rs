//! Per-layer probes: small, fixed inputs pushed through one public
//! function of one layer, so a kernel's cost can be read apart from the
//! distribution cost around it. They run only in the traced run, each
//! under a `probe` span that states its working set next to the
//! last-level cache size — every probe here fits the cache, so the rates
//! are in-cache rates, not memory bandwidth.

use crate::gen::{hash2, mix};
use crate::json::Value;
use crate::stats;
use crate::trace::{Recorder, SpanId};
use crate::workloads::{executors, retire_context};
use spangle_bitmask::{
    harley_seal, Bitmask, DeltaCursor, HierarchicalBitmask, Milestones, OffsetArray,
};
use spangle_core::aggregate::builtin::{Avg, Count};
use spangle_core::{ArrayBuilder, ArrayMeta, ArrayRdd, Chunk, ChunkPolicy, SpangleArray};
use spangle_dataflow::executor::{ExecutorPool, TaskInfo};
use spangle_dataflow::{HashPartitioner, MemSize, PairRdd, SpangleContext, SpillCursor};
use spangle_linalg::block::{
    block_from_triplets, block_multiply_dense_into, block_multiply_into,
    block_multiply_offsets_into, block_transpose,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time a probe keeps repeating its call.
const PROBE_WINDOW: Duration = Duration::from_millis(25);

/// Last-level cache size in bytes, from sysfs; 0 when it cannot be read.
pub fn llc_bytes() -> u64 {
    (0..=4)
        .rev()
        .filter_map(|index| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
            let text = std::fs::read_to_string(path).ok()?;
            let text = text.trim();
            let (digits, scale) = match text.as_bytes().last()? {
                b'K' => (&text[..text.len() - 1], 1 << 10),
                b'M' => (&text[..text.len() - 1], 1 << 20),
                _ => (text, 1),
            };
            digits.parse::<u64>().ok().map(|n| n * scale)
        })
        .next()
        .unwrap_or(0)
}

/// Median seconds per call of `f`: one untimed call, then at least three
/// timed ones, repeating until [`PROBE_WINDOW`] has passed.
fn per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 3 || (started.elapsed() < PROBE_WINDOW && times.len() < 10_000) {
        let call = Instant::now();
        black_box(f());
        times.push(call.elapsed().as_secs_f64());
    }
    stats::median(&times)
}

struct Probes<'a> {
    recorder: &'a mut Recorder,
    parent: SpanId,
    llc: u64,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    /// Runs one probe under its span. `measure` returns the metric's value.
    fn probe(&mut self, name: &'static str, working_set: usize, measure: impl FnOnce() -> f64) {
        let span = self
            .recorder
            .open(Some(self.parent), format!("probe {name}"));
        let value = measure();
        self.recorder.close(span);
        self.recorder
            .set(span, "working_set_bytes", Value::Num(working_set as f64));
        self.recorder
            .set(span, "llc_bytes", Value::Num(self.llc as f64));
        self.recorder.set(span, "value", Value::Num(value));
        self.out.push((name, value));
    }
}

/// A mask with about one bit in `every` set, scattered by hash.
fn scattered_mask(bits: usize, every: u64) -> Bitmask {
    Bitmask::from_fn(bits, |i| {
        hash2(0xB175, i as u64, every).is_multiple_of(every)
    })
}

fn positions(count: usize, below: usize) -> Vec<usize> {
    (0..count)
        .map(|i| (mix(i as u64) % below as u64) as usize)
        .collect()
}

/// A `rows × cols` block with about `per_million` of its cells non-zero.
fn sparse_block(rows: usize, cols: usize, per_million: u64, seed: u64) -> Chunk<f64> {
    let entry = crate::gen::sparse_entry(seed, per_million);
    block_from_triplets(
        rows,
        cols,
        (0..rows * cols).filter_map(|i| Some((i % rows, i / rows, entry(i % rows, i / rows)?))),
        &ChunkPolicy::default(),
    )
    .expect("non-empty block")
}

/// Runs every probe; returns `(metric, value)` pairs.
pub fn run_all(recorder: &mut Recorder, parent: SpanId) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        recorder,
        parent,
        llc: llc_bytes(),
        out: Vec::new(),
    };
    bitmask(&mut p);
    chunk(&mut p);
    array(&mut p);
    blocks(&mut p);
    runtime(&mut p);
    codec(&mut p);
    p.out
}

fn bitmask(p: &mut Probes) {
    const BITS: usize = 1 << 20;
    let bytes = BITS / 8;
    let mask = scattered_mask(BITS, 5);
    let other = scattered_mask(BITS, 3);
    let ones = mask.count_ones() as f64;
    let random = positions(4096, BITS);
    let mut ascending = random.clone();
    ascending.sort_unstable();

    p.probe("bitmask.popcount_gbps", bytes, || {
        bytes as f64 / per_call(|| harley_seal(black_box(mask.words()))) / 1e9
    });
    let milestones = Milestones::build(&mask);
    p.probe("bitmask.rank_milestones_ns", bytes, || {
        per_call(|| {
            random
                .iter()
                .map(|&i| milestones.rank(&mask, i))
                .sum::<usize>()
        }) * 1e9
            / random.len() as f64
    });
    p.probe("bitmask.rank_delta_ns", bytes, || {
        per_call(|| {
            let mut cursor = DeltaCursor::new(&mask);
            ascending.iter().map(|&i| cursor.rank(i)).sum::<usize>()
        }) * 1e9
            / ascending.len() as f64
    });
    let ranks = positions(256, ones as usize);
    p.probe("bitmask.select_ns", bytes, || {
        per_call(|| ranks.iter().filter_map(|&k| mask.select(k)).sum::<usize>()) * 1e9
            / ranks.len() as f64
    });
    p.probe("bitmask.iter_ones_ns_per_bit", bytes, || {
        per_call(|| mask.iter_ones().sum::<usize>()) * 1e9 / ones
    });
    p.probe("bitmask.and_gbps", 3 * bytes, || {
        2.0 * bytes as f64 / per_call(|| mask.and(black_box(&other))) / 1e9
    });
    let sparse = scattered_mask(BITS, 1000);
    let offsets = OffsetArray::from_mask(&sparse);
    p.probe("bitmask.offsets_rank_ns", offsets.mem_size(), || {
        per_call(|| random.iter().map(|&i| offsets.rank(i)).sum::<usize>()) * 1e9
            / random.len() as f64
    });
    let hier = HierarchicalBitmask::compress(&scattered_mask(1 << 22, 5000));
    let hier_ones = hier.count_ones() as f64;
    p.probe("bitmask.hier_iter_ns_per_bit", hier.mem_size(), || {
        per_call(|| hier.iter_ones().sum::<usize>()) * 1e9 / hier_ones
    });
    p.probe("bitmask.hier_bytes_per_bit", hier.mem_size(), || {
        hier.mem_size() as f64 / hier_ones
    });
}

fn chunk(p: &mut Probes) {
    const VOLUME: usize = 1 << 16;
    let policy = ChunkPolicy::default();
    let payload: Vec<f64> = (0..VOLUME).map(|i| (mix(i as u64) % 2000) as f64).collect();
    let mask = scattered_mask(VOLUME, 5);
    let keep = scattered_mask(VOLUME, 2);
    let chunk = Chunk::build(payload.clone(), mask.clone(), &policy).expect("chunk");
    let valid = chunk.valid_count() as f64;
    let bytes = chunk.mem_bytes();

    p.probe("core.chunk_build_ns_per_cell", 2 * bytes, || {
        per_call(|| Chunk::build(payload.clone(), mask.clone(), &policy)) * 1e9 / VOLUME as f64
    });
    p.probe("core.chunk_iter_valid_ns_per_cell", bytes, || {
        per_call(|| chunk.iter_valid().map(|(_, v)| v).sum::<f64>()) * 1e9 / valid
    });
    let gets = positions(4096, VOLUME);
    p.probe("core.chunk_get_ns", bytes, || {
        per_call(|| gets.iter().filter_map(|&i| chunk.get(i)).sum::<f64>()) * 1e9
            / gets.len() as f64
    });
    p.probe("core.chunk_filter_ns_per_cell", 2 * bytes, || {
        per_call(|| chunk.filter(|v| v > 1000.0, &policy)) * 1e9 / valid
    });
    p.probe("core.chunk_restrict_ns_per_cell", 2 * bytes, || {
        per_call(|| chunk.restrict(&keep, &policy)) * 1e9 / VOLUME as f64
    });
    let mut encoded = Vec::new();
    chunk.spill_encode(&mut encoded);
    p.probe(
        "core.chunk_codec_encode_mbps",
        bytes + encoded.len(),
        || {
            let mut out = Vec::with_capacity(encoded.len());
            let t = per_call(|| {
                out.clear();
                chunk.spill_encode(&mut out);
            });
            encoded.len() as f64 / t / 1e6
        },
    );
    p.probe(
        "core.chunk_codec_decode_mbps",
        bytes + encoded.len(),
        || {
            let t = per_call(|| Chunk::<f64>::spill_decode(&mut SpillCursor::new(&encoded)));
            encoded.len() as f64 / t / 1e6
        },
    );
}

/// Array operators on a 512×512×4 array of 128×128×1 chunks (64 chunks,
/// one cell in five valid): a job each, so scheduler cost is included.
fn array(p: &mut Probes) {
    const DIMS: [usize; 3] = [512, 512, 4];
    let cells: usize = DIMS.iter().product();
    let ctx = SpangleContext::new(executors());
    let build = |seed: u64| -> ArrayRdd<f64> {
        let meta = ArrayMeta::new(DIMS.to_vec(), vec![128, 128, 1]);
        ArrayBuilder::new(&ctx, meta)
            .ingest(move |c| {
                let h = hash2(seed, (c[0] + c[1] * DIMS[0]) as u64, c[2] as u64);
                h.is_multiple_of(5).then_some(((h >> 32) % 2000) as f64)
            })
            .build()
    };
    let bytes = cells * 8 / 5;
    let mut arrays = Vec::new();
    p.probe("core.array_ingest_mcells_per_s", bytes, || {
        let started = Instant::now();
        for seed in [1, 2] {
            let array = build(seed);
            array.persist();
            array.num_chunks().expect("ingest");
            arrays.push(array);
        }
        2.0 * cells as f64 / 1e6 / started.elapsed().as_secs_f64()
    });
    let (a, b) = (arrays[0].clone(), arrays[1].clone());
    let (lo, hi) = ([64, 64, 1], [448, 448, 3]);
    p.probe("core.array_subarray_ms", bytes, || {
        per_call(|| a.subarray(&lo, &hi).count_valid().expect("subarray")) * 1e3
    });
    p.probe("core.array_filter_ms", bytes, || {
        per_call(|| a.filter(|v| v > 1000.0).count_valid().expect("filter")) * 1e3
    });
    p.probe("core.array_aggregate_ms", bytes, || {
        per_call(|| a.aggregate(Avg)) * 1e3
    });
    p.probe("core.array_aggregate_by_ms", bytes, || {
        per_call(|| {
            a.aggregate_by(|c| ((c[0] / 32) as u64, (c[1] / 32) as u64), Count)
                .expect("aggregate_by")
        }) * 1e3
    });
    for (name, lazy) in [
        ("core.maskrdd_lazy_ms", true),
        ("core.maskrdd_eager_ms", false),
    ] {
        let both = SpangleArray::new(vec![("a".into(), a.clone()), ("b".into(), b.clone())], lazy);
        p.probe(name, 2 * bytes, || {
            per_call(|| {
                both.subarray(&lo, &hi)
                    .filter_attribute("a", |v| v > 1000.0)
                    .count_valid("b")
                    .expect("mask pipeline")
            }) * 1e3
        });
    }
    drop(arrays);
    retire_context(ctx, (a, b));
}

fn blocks(p: &mut Probes) {
    // The two block shapes of the gram workloads: 512² at density 1e-3
    // (about 262 non-zeros) and 256² at 1.4 %.
    let hyper_a = sparse_block(512, 512, 1_000, 1);
    let hyper_b = sparse_block(512, 512, 1_000, 2);
    let sparse_a = sparse_block(256, 256, 14_000, 3);
    let sparse_b = sparse_block(256, 256, 14_000, 4);
    let mut out_512 = vec![0.0f64; 512 * 512];
    let mut out_256 = vec![0.0f64; 256 * 256];
    let ws_512 = out_512.len() * 8 + hyper_a.mem_bytes() + hyper_b.mem_bytes();
    let ws_256 = out_256.len() * 8 + sparse_a.mem_bytes() + sparse_b.mem_bytes();

    p.probe("linalg.block_mul_hypersparse_us", ws_512, || {
        per_call(|| block_multiply_into(&hyper_a, 512, &hyper_b, 512, 512, &mut out_512)) * 1e6
    });
    p.probe("linalg.block_mul_sparse_us", ws_256, || {
        per_call(|| block_multiply_into(&sparse_a, 256, &sparse_b, 256, 256, &mut out_256)) * 1e6
    });
    let offsets = OffsetArray::from_mask(&hyper_a.mask());
    let values: Vec<f64> = hyper_a.iter_valid().map(|(_, v)| v).collect();
    p.probe("linalg.block_mul_offsets_us", ws_512, || {
        per_call(|| {
            block_multiply_offsets_into(&offsets, &values, 512, &hyper_b, 512, 512, &mut out_512)
        }) * 1e6
    });
    p.probe("linalg.block_mul_dense_us", 3 * out_256.len() * 8, || {
        per_call(|| block_multiply_dense_into(&sparse_a, 256, &sparse_b, 256, 256, &mut out_256))
            * 1e6
    });
    p.probe(
        "linalg.block_transpose_us",
        2 * sparse_a.mem_bytes(),
        || per_call(|| block_transpose(&sparse_a, 256, 256, &ChunkPolicy::default())) * 1e6,
    );
}

/// Scheduler, executor, planner, shuffle and cache probes on a context of
/// their own.
fn runtime(p: &mut Probes) {
    let ctx = SpangleContext::new(executors());
    let mut job_us = [0.0f64; 3];
    for (slot, (name, partitions)) in [
        ("scheduler.job_us_p1", 1usize),
        ("scheduler.job_us_p8", 8),
        ("scheduler.job_us_p64", 64),
    ]
    .into_iter()
    .enumerate()
    {
        let empty = ctx.parallelize(vec![0u8; partitions], partitions);
        p.probe(name, partitions, || {
            job_us[slot] = per_call(|| empty.count().expect("empty job")) * 1e6;
            job_us[slot]
        });
    }
    p.probe("scheduler.task_us", 64, || (job_us[2] - job_us[0]) / 63.0);

    p.probe("executor.submit_roundtrip_us", 0, || {
        let pool = ExecutorPool::new(executors());
        let (tx, rx) = std::sync::mpsc::channel();
        let t = per_call(|| {
            let tx = tx.clone();
            pool.submit(
                0,
                Box::new(move |_: &TaskInfo| tx.send(()).expect("driver waits")),
            )
            .expect("pool is up");
            rx.recv().expect("task ran")
        });
        pool.shutdown();
        t * 1e6
    });

    const RECORDS: usize = 1 << 20;
    let numbers = ctx.parallelize((0..RECORDS as u64).collect(), 2 * executors());
    p.probe("plan.fused_chain_ns_per_record", RECORDS * 8, || {
        per_call(|| {
            numbers
                .map(|x| x + 1)
                .map(|x| x * 3)
                .filter(|x| x % 2 == 0)
                .count()
                .expect("narrow chain")
        }) * 1e9
            / RECORDS as f64
    });

    // 2^20 (u64, u64) pairs, 16 MiB, over 4096 keys.
    let pairs = numbers.map(|x| (mix(x) % 4096, x));
    pairs.persist();
    pairs.count().expect("pairs");
    let pair_bytes = RECORDS * 16;
    let partitioner = || Arc::new(HashPartitioner::new(2 * executors()));
    p.probe("shuffle.groupby_mbps", pair_bytes, || {
        let t = per_call(|| pairs.group_by_key(partitioner()).count().expect("group"));
        pair_bytes as f64 / t / 1e6
    });
    p.probe("shuffle.reduceby_mbps", pair_bytes, || {
        let t = per_call(|| {
            pairs
                .reduce_by_key(partitioner(), |a, b| a.wrapping_add(b))
                .count()
                .expect("reduce")
        });
        pair_bytes as f64 / t / 1e6
    });

    let cached = ctx.parallelize(vec![0u8; 64], 64).map(|x| x);
    cached.persist();
    cached.count().expect("fill the cache");
    p.probe("cache.hit_us_per_partition", 64, || {
        per_call(|| cached.count().expect("cached job")) * 1e6 / 64.0
    });
    retire_context(ctx, (numbers, pairs, cached));
}

fn codec(p: &mut Probes) {
    // 4096 keyed rows of 32 floats, about 1 MiB: the shape of a shuffled
    // partial-segment block.
    let block: Vec<(u64, Vec<f64>)> = (0..4096u64)
        .map(|k| (k, (0..32).map(|i| (mix(k ^ i) % 1000) as f64).collect()))
        .collect();
    let mut encoded = Vec::new();
    block.spill_encode(&mut encoded);
    let working_set = block.mem_size() + encoded.len();
    p.probe("codec.encode_mbps", working_set, || {
        let mut out = Vec::with_capacity(encoded.len());
        let t = per_call(|| {
            out.clear();
            block.spill_encode(&mut out);
        });
        encoded.len() as f64 / t / 1e6
    });
    p.probe("codec.decode_mbps", working_set, || {
        let t = per_call(|| Vec::<(u64, Vec<f64>)>::spill_decode(&mut SpillCursor::new(&encoded)));
        encoded.len() as f64 / t / 1e6
    });
}
