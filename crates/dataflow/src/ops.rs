//! The registry of named operators the multi-process backend executes.
//!
//! Worker processes cannot receive closures, so the remote data plane
//! ships *names*: an operator is a pure function over encoded byte blocks,
//! registered here under a stable string, and both the driver (in-process
//! backend, local fallback) and the worker binary resolve the same table.
//! Every operator is deterministic in its `(args, inputs)` — that is what
//! makes lineage replay after a worker death bit-identical: re-running the
//! same op on a fresh incarnation regenerates byte-for-byte the blocks the
//! dead process held.
//!
//! The workhorse format is a *pair block*: a `Vec<(u64, u64)>` in the
//! [`crate::MemSize`] block codec — the encoding a spilled block of the
//! same pairs has. The registered families cover the workloads the fig
//! harnesses exercise: the fixed-point PageRank loop (`pr.*`, the fig11
//! kernel) and sum-by-key aggregation (`sum.*`), plus two tiny `test.*`
//! ops for plumbing tests.
//!
//! The blocks the operators produce live in an `OpStore`, one per
//! executor slot: in the driver for the in-process backend and for a
//! process backend's degraded slots, in the worker process otherwise.

use crate::backend::WorkerStats;
use crate::frame::fnv1a64;
use crate::health::splitmix64;
use crate::memsize::{decode_block, encode_records, SpillCursor};
use crate::wire::{BlockKey, BlockMeta, OpInput};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Signature of a registered operator: `(args, inputs, progress)` to
/// encoded output blocks, or a task-level error message. `progress` must
/// be ticked periodically by long loops — the worker's heartbeat carries
/// it to the driver's no-progress watchdog.
pub type OpFn = fn(&[u8], &[&[u8]], &AtomicU64) -> Result<Vec<Vec<u8>>, String>;

/// The operator table. A static slice (not a mutable global): the set of
/// named operators is part of the binary, exactly like the class path of
/// a real cluster.
pub static OPS: &[(&str, OpFn)] = &[
    ("pr.graph", op_pr_graph),
    ("pr.init", op_pr_init),
    ("pr.contrib", op_pr_contrib),
    ("pr.apply", op_pr_apply),
    ("sum.gen", op_sum_gen),
    ("sum.bucket", op_sum_bucket),
    ("sum.merge", op_sum_merge),
    ("test.echo", op_test_echo),
    ("test.fail", op_test_fail),
];

/// Resolves and runs the operator registered under `name`.
pub fn run_op(
    name: &str,
    args: &[u8],
    inputs: &[&[u8]],
    progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    let op = OPS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
        .ok_or_else(|| format!("unknown operator {name:?}"))?;
    op(args, inputs, progress)
}

/// One slot's store of operator output blocks, keyed by the
/// driver-allocated [`BlockKey`]s.
#[derive(Default)]
pub(crate) struct OpStore {
    blocks: HashMap<BlockKey, Vec<u8>>,
}

impl OpStore {
    /// Runs the named operator over `inputs`, storing its outputs under
    /// `out_keys` and returning their metas. Idempotent replay: operators
    /// are deterministic, so outputs already stored under every requested
    /// key *are* the recompute's bytes and are answered from the store (a
    /// replayed narrow chain re-runs its sources this way without
    /// duplicating work). Errors are task-level failures: the operator's
    /// own, or a missing local input — the driver's view of this store is
    /// stale (e.g. it outlived a crash the driver has not noticed yet), so
    /// the driver retries with fresh placement.
    pub(crate) fn run(
        &mut self,
        op: &str,
        args: &[u8],
        inputs: &[OpInput],
        out_keys: &[BlockKey],
        progress: &AtomicU64,
    ) -> Result<Vec<BlockMeta>, String> {
        let meta = |bytes: &Vec<u8>| BlockMeta {
            len: bytes.len() as u64,
            checksum: fnv1a64(bytes),
        };
        if !out_keys.is_empty() && out_keys.iter().all(|k| self.blocks.contains_key(k)) {
            return Ok(out_keys.iter().map(|k| meta(&self.blocks[k])).collect());
        }
        let views = inputs
            .iter()
            .map(|input| match input {
                OpInput::Inline(bytes) => Ok(bytes.as_slice()),
                OpInput::Local(key) => match self.blocks.get(key) {
                    Some(bytes) => Ok(bytes.as_slice()),
                    None => Err(format!("missing local input {key:?}")),
                },
            })
            .collect::<Result<Vec<&[u8]>, String>>()?;
        let outputs = run_op(op, args, &views, progress)?;
        if outputs.len() != out_keys.len() {
            return Err(format!(
                "operator {op:?} produced {} outputs for {} keys",
                outputs.len(),
                out_keys.len()
            ));
        }
        let metas = outputs.iter().map(meta).collect();
        self.blocks.extend(out_keys.iter().copied().zip(outputs));
        Ok(metas)
    }

    /// A stored block's bytes.
    pub(crate) fn get(&self, key: BlockKey) -> Option<Vec<u8>> {
        self.blocks.get(&key).cloned()
    }

    /// Snapshot of the store as the incarnation `epoch` of this process.
    pub(crate) fn stats(&self, epoch: u64) -> WorkerStats {
        WorkerStats {
            blocks: self.blocks.len() as u64,
            bytes: self.blocks.values().map(|b| b.len() as u64).sum(),
            epoch,
            pid: std::process::id() as u64,
        }
    }

    /// Drops every block: a killed incarnation's blocks die with it.
    pub(crate) fn clear(&mut self) {
        self.blocks.clear();
    }
}

/// Encodes `(u64, u64)` pairs as a block of the [`crate::MemSize`] codec.
pub fn encode_pairs(pairs: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pairs.len() * 16);
    encode_records(pairs, &mut out);
    out
}

/// Decodes a block written by [`encode_pairs`].
pub fn decode_pairs(block: &[u8]) -> Option<Vec<(u64, u64)>> {
    decode_block(block)
}

fn args_u64s(args: &[u8], n: usize) -> Result<Vec<u64>, String> {
    let mut cur = SpillCursor::new(args);
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(cur.u64().ok_or("short operator args")?);
    }
    if cur.remaining() != 0 {
        return Err("trailing operator args".into());
    }
    Ok(vals)
}

/// Packs `u64` operator arguments (the convention every registered op
/// uses).
pub fn pack_args(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for &v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn input<'a>(inputs: &[&'a [u8]], idx: usize) -> Result<&'a [u8], String> {
    inputs
        .get(idx)
        .copied()
        .ok_or_else(|| format!("missing operator input {idx}"))
}

fn pairs_input(inputs: &[&[u8]], idx: usize) -> Result<Vec<(u64, u64)>, String> {
    decode_pairs(input(inputs, idx)?).ok_or_else(|| format!("input {idx} is not a pair block"))
}

// The fixed-point PageRank family. Ranks are integers scaled by 1e6
// (initial rank 1_000_000) and the update is
// `new = 150_000 + incoming * 85 / 100` — the same arithmetic as the
// chaos-recovery gate, chosen because integer addition is commutative, so
// bucket merge order cannot perturb the result and bit-identical replay is
// provable rather than hoped for.

/// `pr.graph(seed, n_pages, parts, part) -> [adjacency]`: the out-edge
/// lists of the pages owned by `part` (`page % parts == part`), encoded as
/// `(page, dest)` pairs in ascending page order. Degrees and destinations
/// come from seeded `splitmix64`, so every replay of a partition
/// regenerates identical bytes.
fn op_pr_graph(
    args: &[u8],
    _inputs: &[&[u8]],
    progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    let a = args_u64s(args, 4)?;
    let (seed, n_pages, parts, part) = (a[0], a[1], a[2], a[3]);
    if parts == 0 || part >= parts {
        return Err("pr.graph: bad partition args".into());
    }
    let mut edges = Vec::new();
    let mut page = part;
    while page < n_pages {
        let degree = 1 + splitmix64(seed ^ page.wrapping_mul(0x9E37)) % 3;
        for i in 0..degree {
            let dest = splitmix64(seed ^ page ^ (i + 1).wrapping_mul(0x1234_5678_9ABC)) % n_pages;
            edges.push((page, dest));
        }
        progress.fetch_add(1, Ordering::Relaxed);
        page += parts;
    }
    Ok(vec![encode_pairs(&edges)])
}

/// `pr.init(n_pages, parts, part) -> [ranks]`: every page of `part` at
/// the initial rank `1_000_000`.
fn op_pr_init(
    args: &[u8],
    _inputs: &[&[u8]],
    progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    let a = args_u64s(args, 3)?;
    let (n_pages, parts, part) = (a[0], a[1], a[2]);
    if parts == 0 || part >= parts {
        return Err("pr.init: bad partition args".into());
    }
    let mut ranks = Vec::new();
    let mut page = part;
    while page < n_pages {
        ranks.push((page, 1_000_000));
        page += parts;
    }
    progress.fetch_add(1, Ordering::Relaxed);
    Ok(vec![encode_pairs(&ranks)])
}

/// `pr.contrib(parts; adjacency, ranks) -> [bucket_0 .. bucket_parts-1]`:
/// each page's rank is split evenly over its out-edges and the shares are
/// routed into per-destination-partition buckets (`dest % parts`).
fn op_pr_contrib(
    args: &[u8],
    inputs: &[&[u8]],
    progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    let a = args_u64s(args, 1)?;
    let parts = a[0];
    if parts == 0 {
        return Err("pr.contrib: zero partitions".into());
    }
    let adjacency = pairs_input(inputs, 0)?;
    let ranks = pairs_input(inputs, 1)?;
    let rank_of: std::collections::HashMap<u64, u64> = ranks.into_iter().collect();
    // Count each page's out-degree first, then emit shares in input order.
    let mut degree: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for &(page, _) in &adjacency {
        *degree.entry(page).or_insert(0) += 1;
    }
    let mut buckets: Vec<Vec<(u64, u64)>> = vec![Vec::new(); parts as usize];
    for &(page, dest) in &adjacency {
        let rank = *rank_of.get(&page).ok_or("pr.contrib: rank missing")?;
        let share = rank / degree[&page];
        buckets[(dest % parts) as usize].push((dest, share));
        progress.fetch_add(1, Ordering::Relaxed);
    }
    Ok(buckets.into_iter().map(|b| encode_pairs(&b)).collect())
}

/// `pr.apply(n_pages, parts, part; bucket...) -> [ranks]`: sums the
/// incoming shares of every page owned by `part` across all buckets and
/// applies `new = 150_000 + incoming * 85 / 100`. Addition is commutative
/// over `u64`, so bucket arrival order cannot change the output.
fn op_pr_apply(
    args: &[u8],
    inputs: &[&[u8]],
    progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    let a = args_u64s(args, 3)?;
    let (n_pages, parts, part) = (a[0], a[1], a[2]);
    if parts == 0 || part >= parts {
        return Err("pr.apply: bad partition args".into());
    }
    let mut incoming: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for idx in 0..inputs.len() {
        for (dest, share) in pairs_input(inputs, idx)? {
            if dest % parts != part {
                return Err("pr.apply: misrouted contribution".into());
            }
            *incoming.entry(dest).or_insert(0) += share;
            progress.fetch_add(1, Ordering::Relaxed);
        }
    }
    let mut ranks = Vec::new();
    let mut page = part;
    while page < n_pages {
        let sum = incoming.get(&page).copied().unwrap_or(0);
        ranks.push((page, 150_000 + sum * 85 / 100));
        page += parts;
    }
    Ok(vec![encode_pairs(&ranks)])
}

/// `sum.gen(seed, count, key_mod, part) -> [pairs]`: seeded `(key, value)`
/// pairs for one partition of a synthetic sum-by-key workload.
fn op_sum_gen(
    args: &[u8],
    _inputs: &[&[u8]],
    progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    let a = args_u64s(args, 4)?;
    let (seed, count, key_mod, part) = (a[0], a[1], a[2].max(1), a[3]);
    let mut pairs = Vec::with_capacity(count as usize);
    for i in 0..count {
        let h = splitmix64(seed ^ (part << 32) ^ i);
        pairs.push((h % key_mod, h >> 32));
        progress.fetch_add(1, Ordering::Relaxed);
    }
    Ok(vec![encode_pairs(&pairs)])
}

/// `sum.bucket(parts; pairs) -> [bucket...]`: routes `(key, value)` pairs
/// into `key % parts` buckets.
fn op_sum_bucket(
    args: &[u8],
    inputs: &[&[u8]],
    progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    let a = args_u64s(args, 1)?;
    let parts = a[0];
    if parts == 0 {
        return Err("sum.bucket: zero partitions".into());
    }
    let mut buckets: Vec<Vec<(u64, u64)>> = vec![Vec::new(); parts as usize];
    for (key, value) in pairs_input(inputs, 0)? {
        buckets[(key % parts) as usize].push((key, value));
        progress.fetch_add(1, Ordering::Relaxed);
    }
    Ok(buckets.into_iter().map(|b| encode_pairs(&b)).collect())
}

/// `sum.merge(; bucket...) -> [sums]`: wrapping per-key sums over every
/// input bucket, emitted in ascending key order.
fn op_sum_merge(
    _args: &[u8],
    inputs: &[&[u8]],
    progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    let mut sums: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for idx in 0..inputs.len() {
        for (key, value) in pairs_input(inputs, idx)? {
            let slot = sums.entry(key).or_insert(0);
            *slot = slot.wrapping_add(value);
            progress.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(vec![encode_pairs(
        &sums.into_iter().collect::<Vec<(u64, u64)>>(),
    )])
}

/// `test.echo(; block...)`: returns its inputs unchanged.
fn op_test_echo(
    _args: &[u8],
    inputs: &[&[u8]],
    _progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    Ok(inputs.iter().map(|b| b.to_vec()).collect())
}

/// `test.fail(msg)`: always errors with its argument bytes as the message
/// — exercises the op-error (task failure, quarantine-eligible) path.
fn op_test_fail(
    args: &[u8],
    _inputs: &[&[u8]],
    _progress: &AtomicU64,
) -> Result<Vec<Vec<u8>>, String> {
    Err(String::from_utf8_lossy(args).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, args: &[u8], inputs: &[&[u8]]) -> Result<Vec<Vec<u8>>, String> {
        run_op(name, args, inputs, &AtomicU64::new(0))
    }

    #[test]
    fn pair_blocks_roundtrip_and_reject_garbage() {
        let pairs = vec![(1, 2), (3, 4), (u64::MAX, 0)];
        let block = encode_pairs(&pairs);
        assert_eq!(decode_pairs(&block).unwrap(), pairs);
        assert!(decode_pairs(&block[..block.len() - 1]).is_none(), "short");
        let mut long = block.clone();
        long.push(0);
        assert!(decode_pairs(&long).is_none(), "trailing bytes");
    }

    #[test]
    fn pair_blocks_are_the_block_codec() {
        use crate::MemSize;
        let pairs = vec![(7u64, 8u64), (9, 10)];
        let mut spilled = Vec::new();
        pairs.spill_encode(&mut spilled);
        assert_eq!(encode_pairs(&pairs), spilled);
    }

    #[test]
    fn store_runs_once_and_replays_from_its_blocks() {
        let mut store = OpStore::default();
        let progress = AtomicU64::new(0);
        let payload = encode_pairs(&[(1, 2)]);
        let inputs = [OpInput::Inline(payload.clone())];
        let metas = store
            .run("test.echo", &[], &inputs, &[(9, 0)], &progress)
            .unwrap();
        assert_eq!(metas[0].len, payload.len() as u64);
        assert_eq!(metas[0].checksum, fnv1a64(&payload));
        assert_eq!(store.get((9, 0)), Some(payload.clone()));
        assert_eq!(store.get((9, 1)), None);
        let stats = store.stats(5);
        assert_eq!(
            (stats.blocks, stats.bytes, stats.epoch),
            (1, payload.len() as u64, 5)
        );
        // The re-run answers from the store, even for an op that would
        // now fail, and a stored block feeds a later op by key.
        let replay = store.run("test.fail", b"x", &[], &[(9, 0)], &progress);
        assert_eq!(replay.unwrap(), metas);
        let local = [OpInput::Local((9, 0))];
        let echoed = store.run("test.echo", &[], &local, &[(10, 0)], &progress);
        assert_eq!(echoed.unwrap(), metas);
        store.clear();
        assert_eq!(store.stats(5).blocks, 0);
    }

    #[test]
    fn missing_local_inputs_op_failures_and_arity_are_errors() {
        let mut store = OpStore::default();
        let progress = AtomicU64::new(0);
        let local = [OpInput::Local((1, 1))];
        let missing = store.run("test.echo", &[], &local, &[(2, 0)], &progress);
        assert!(missing.unwrap_err().contains("missing local input"));
        let failed = store.run("test.fail", b"kaput", &[], &[], &progress);
        assert_eq!(failed.unwrap_err(), "kaput");
        let arity = store.run("test.echo", &[], &[], &[(3, 0)], &progress);
        assert!(arity.unwrap_err().contains("0 outputs for 1 keys"));
        assert_eq!(store.stats(0).blocks, 0, "a failed run stores nothing");
    }

    #[test]
    fn unknown_ops_and_op_errors_are_reported() {
        assert!(run("no.such.op", &[], &[]).unwrap_err().contains("unknown"));
        assert_eq!(run("test.fail", b"boom", &[]).unwrap_err(), "boom");
        let echoed = run("test.echo", &[], &[b"abc"]).unwrap();
        assert_eq!(echoed, vec![b"abc".to_vec()]);
    }

    #[test]
    fn pagerank_ops_are_deterministic_and_consistent() {
        let n_pages = 40u64;
        let parts = 4u64;
        let seed = 0xFEED;
        // Graph generation replays byte-identically.
        let g0 = run("pr.graph", &pack_args(&[seed, n_pages, parts, 1]), &[]).unwrap();
        let g1 = run("pr.graph", &pack_args(&[seed, n_pages, parts, 1]), &[]).unwrap();
        assert_eq!(g0, g1);

        // One full iteration: contrib routes every share to the right
        // bucket, apply re-ranks exactly the owned pages.
        let init = run("pr.init", &pack_args(&[n_pages, parts, 1]), &[]).unwrap();
        let buckets = run("pr.contrib", &pack_args(&[parts]), &[&g0[0], &init[0]]).unwrap();
        assert_eq!(buckets.len(), parts as usize);
        for (r, bucket) in buckets.iter().enumerate() {
            for (dest, _) in decode_pairs(bucket).unwrap() {
                assert_eq!(dest % parts, r as u64);
            }
        }
        let ranks = run("pr.apply", &pack_args(&[n_pages, parts, 2]), &[&buckets[2]]).unwrap();
        let decoded = decode_pairs(&ranks[0]).unwrap();
        assert_eq!(decoded.len(), 10, "40 pages over 4 partitions");
        for (page, rank) in decoded {
            assert_eq!(page % parts, 2);
            assert!(rank >= 150_000);
        }
    }

    #[test]
    fn sum_family_aggregates_by_key() {
        let gen = run("sum.gen", &pack_args(&[7, 100, 8, 0]), &[]).unwrap();
        let buckets = run("sum.bucket", &pack_args(&[2]), &[&gen[0]]).unwrap();
        let merged = run("sum.merge", &[], &[&buckets[0], &buckets[1]]).unwrap();
        let sums = decode_pairs(&merged[0]).unwrap();
        // Reference: aggregate the generated pairs directly.
        let mut want: std::collections::BTreeMap<u64, u64> = Default::default();
        for (k, v) in decode_pairs(&gen[0]).unwrap() {
            let slot = want.entry(k).or_insert(0);
            *slot = slot.wrapping_add(v);
        }
        assert_eq!(sums, want.into_iter().collect::<Vec<_>>());
    }
}
