//! The metric tables: what `BENCHMARK.json` promises, in code. A unit test
//! holds the two together.

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `compare` (and the driver) call it a regression.
    pub bound: f64,
}

/// The same metrics for every workload; none of them is ever zero.
///
/// `error_rate` is not in the list because it must be zero: it is the
/// result line's `failed` over `attempted`. Throughput is not in it
/// because, with one client in a closed loop, it is the reciprocal of the
/// latency; the untraced run prints it and the traced run reports it
/// ungated as `untraced.work_per_s`.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p10_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "resident_peak_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "moved_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric a traced run prints, grouped by layer. A metric
/// that a workload does not exercise reads 0 in that workload's run.
pub const PER_LAYER: &[PerLayer] = &[
    // bitmask — in-cache probes
    layer("bitmask.popcount_gbps", "GB/s", Higher),
    layer("bitmask.rank_milestones_ns", "ns", Lower),
    layer("bitmask.rank_delta_ns", "ns", Lower),
    layer("bitmask.select_ns", "ns", Lower),
    layer("bitmask.iter_ones_ns_per_bit", "ns/bit", Lower),
    layer("bitmask.and_gbps", "GB/s", Higher),
    layer("bitmask.offsets_rank_ns", "ns", Lower),
    layer("bitmask.hier_iter_ns_per_bit", "ns/bit", Lower),
    layer("bitmask.hier_bytes_per_bit", "B/bit", Lower),
    // core — chunk probes and a small-array operator probe
    layer("core.chunk_build_ns_per_cell", "ns/cell", Lower),
    layer("core.chunk_iter_valid_ns_per_cell", "ns/cell", Lower),
    layer("core.chunk_get_ns", "ns", Lower),
    layer("core.chunk_filter_ns_per_cell", "ns/cell", Lower),
    layer("core.chunk_restrict_ns_per_cell", "ns/cell", Lower),
    layer("core.chunk_codec_encode_mbps", "MB/s", Higher),
    layer("core.chunk_codec_decode_mbps", "MB/s", Higher),
    layer("core.array_ingest_mcells_per_s", "Mcells/s", Higher),
    layer("core.array_subarray_ms", "ms", Lower),
    layer("core.array_filter_ms", "ms", Lower),
    layer("core.array_aggregate_ms", "ms", Lower),
    layer("core.array_aggregate_by_ms", "ms", Lower),
    layer("core.maskrdd_lazy_ms", "ms", Lower),
    layer("core.maskrdd_eager_ms", "ms", Lower),
    // raster — from raster_queries
    layer("raster.ingest_mcells_per_s", "Mcells/s", Higher),
    layer("raster.q1_ms", "ms", Lower),
    layer("raster.q2_ms", "ms", Lower),
    layer("raster.q3_ms", "ms", Lower),
    layer("raster.q4_ms", "ms", Lower),
    layer("raster.q5_ms", "ms", Lower),
    layer("raster.bytes_per_valid_cell", "B/cell", Lower),
    // linalg — block-kernel probes, then the matvec and gram workloads
    layer("linalg.block_mul_hypersparse_us", "us", Lower),
    layer("linalg.block_mul_sparse_us", "us", Lower),
    layer("linalg.block_mul_offsets_us", "us", Lower),
    layer("linalg.block_mul_dense_us", "us", Lower),
    layer("linalg.block_transpose_us", "us", Lower),
    layer("linalg.matvec_ns_per_nnz", "ns/nnz", Lower),
    layer("linalg.vecmat_ns_per_nnz", "ns/nnz", Lower),
    layer("linalg.gram_multiply_stage_ms", "ms", Lower),
    layer("linalg.gram_reduce_stage_ms", "ms", Lower),
    layer("linalg.gram_block_products_per_op", "count", Lower),
    // dataflow::scheduler / executor / plan — empty-job probes, then the
    // traced ops' job reports and counter deltas
    layer("scheduler.job_us_p1", "us", Lower),
    layer("scheduler.job_us_p8", "us", Lower),
    layer("scheduler.job_us_p64", "us", Lower),
    layer("scheduler.task_us", "us", Lower),
    layer("scheduler.jobs_per_op", "count", Lower),
    layer("scheduler.stages_per_op", "count", Lower),
    layer("scheduler.tasks_per_op", "count", Lower),
    layer("scheduler.queue_wait_ms_per_op", "ms", Lower),
    layer("scheduler.driver_self_ms_per_op", "ms", Lower),
    layer("scheduler.spurious_events", "count", Lower),
    layer("scheduler.speculation_win_ratio", "ratio", Higher),
    layer("executor.submit_roundtrip_us", "us", Lower),
    layer("executor.busy_fraction", "ratio", Higher),
    layer("executor.busy_skew", "ratio", Lower),
    layer("executor.tasks_stolen_per_op", "count", Lower),
    layer("plan.stages_fused_per_op", "count", Higher),
    layer("plan.shuffles_elided_per_op", "count", Higher),
    layer("plan.partitions_coalesced_per_op", "count", Higher),
    layer("plan.fused_chain_ns_per_record", "ns/record", Lower),
    // dataflow::shuffle / cache / spill / memsize
    layer("shuffle.write_bytes_per_op", "B", Lower),
    layer("shuffle.read_bytes_per_op", "B", Lower),
    layer("shuffle.records_per_op", "count", Lower),
    layer("shuffle.groupby_mbps", "MB/s", Higher),
    layer("shuffle.reduceby_mbps", "MB/s", Higher),
    layer("cache.hits_per_op", "count", Higher),
    layer("cache.misses_per_op", "count", Lower),
    layer("cache.hit_us_per_partition", "us", Lower),
    layer("cache.highwater_bytes", "B", Lower),
    layer("broadcast.bytes_per_op", "B", Lower),
    layer("spill.blocks_spilled_per_op", "count", Lower),
    layer("spill.blocks_rehydrated_per_op", "count", Lower),
    layer("spill.bytes_per_op", "B", Lower),
    layer("spill.disk_peak_bytes", "B", Lower),
    layer("spill.slowdown_ratio", "ratio", Lower),
    layer("codec.encode_mbps", "MB/s", Higher),
    layer("codec.decode_mbps", "MB/s", Higher),
    // ml — from pagerank_iter and sgd_steps
    layer("ml.pagerank_build_ms", "ms", Lower),
    layer("ml.pagerank_iter_ms", "ms", Lower),
    layer("ml.pagerank_ns_per_edge", "ns/edge", Lower),
    layer("ml.sgd_step_us", "us", Lower),
    layer("ml.sgd_jobs_per_step", "count", Lower),
    layer("ml.sgd_ns_per_nnz", "ns/nnz", Lower),
    // the benchmark itself
    layer("oracle.op_ms", "ms", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("untraced.op_p50_ms", "ms", Lower),
    layer("untraced.work_per_s", "1/s", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads;

    /// `BENCHMARK.json` is the contract the driver reads; these tables are
    /// what the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).expect("name").into())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            workloads::ALL.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, table) in doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(table.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(table.better.as_str())
            );
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(table.bound)
            );
        }
        for (entry, table) in doc
            .get("per_layer")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(table.unit));
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(table.better.as_str())
            );
        }
        for (entry, spec) in doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .zip(workloads::ALL)
        {
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(spec.why));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(workloads::ALL.iter().all(|w| w.why.len() <= 200));
    }
}
