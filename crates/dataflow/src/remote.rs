//! The remote data plane: datasets whose partition *bytes* live in the
//! executor backend's block stores, referenced from the RDD graph by
//! lightweight handles.
//!
//! Closures cannot be shipped to a worker process, so remote pipelines
//! are built from the named operators of [`crate::ops`]: an RDD element
//! here is a [`ShardHandle`] naming a block in some slot's store, and the
//! closures the scheduler runs are thin drivers that resolve handles to
//! bytes and invoke operators on the worker owning the current slot.
//! Everything else — stages,
//! placement, retries, lineage recovery, speculation, health — is the
//! ordinary engine acting on ordinary (small) elements.
//!
//! Failure semantics per rung:
//! * an operator error is a plain task panic (quarantine-eligible);
//! * a dead *own* worker makes the task spin on its cancellation token
//!   until the health plane declares the slot lost — the unwind is then
//!   an executor loss, not a consumed task attempt;
//! * a failed *peer* bucket fetch (torn frame, short read, dead process,
//!   checksum mismatch) is a typed [`FetchFailedError`] naming the map
//!   partition whose bytes are gone, which resubmits exactly that map
//!   task — the same lineage replay a lost in-memory shuffle block takes.
//!
//! Determinism of the operators plus keyed, namespaced block ids makes
//! replay idempotent: re-running a chain on a live worker answers from
//! its store byte-for-byte, and on a fresh incarnation regenerates the
//! dead process's blocks bit-identically.

use crate::context::SpangleContext;
use crate::executor::{self, CancelledError};
use crate::frame::fnv1a64;
use crate::health::jittered_backoff;
use crate::memsize::{MemSize, SpillCursor};
use crate::ops;
use crate::partitioner::ModPartitioner;
use crate::rdd::pair::PairRdd;
use crate::rdd::{Dependency, Rdd};
use crate::shuffle::FetchFailedError;
use crate::wire::{BlockKey, BlockMeta, OpInput};
use crate::JobError;
use std::panic::panic_any;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reference to one partition's encoded bytes in a worker store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardHandle {
    /// Executor slot whose store holds the block.
    pub slot: u64,
    /// Slot incarnation the block was computed on; a mismatch with the
    /// live epoch means the bytes died with the process.
    pub epoch: u64,
    /// Store key (`namespace, partition`), fixed at graph-build time so
    /// replays are idempotent.
    pub key: BlockKey,
    /// Encoded length, for checksum verification on fetch.
    pub len: u64,
    /// FNV-1a of the bytes, verified on every remote fetch.
    pub checksum: u64,
}

impl MemSize for ShardHandle {
    fn mem_size(&self) -> usize {
        std::mem::size_of::<ShardHandle>()
    }
    fn spillable() -> bool {
        true
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        (self.slot, self.epoch, self.key, self.len, self.checksum).spill_encode(out);
    }
    fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
        let (slot, epoch, key, len, checksum) = MemSize::spill_decode(input)?;
        Some(ShardHandle {
            slot,
            epoch,
            key,
            len,
            checksum,
        })
    }
}

/// How many times a peer fetch retries a dead/torn connection (with
/// seeded backoff) before declaring the bytes unfetchable.
const FETCH_RETRIES: usize = 5;

/// How long a task waits on its own unreachable worker for the health
/// plane to notice before failing outright. Generous: this ceiling is
/// only reached on the degraded ladder rung where health monitoring is
/// disabled and nobody will ever declare the slot lost.
const OWN_WORKER_DEADLINE: Duration = Duration::from_secs(30);

/// The slot serving the current task. Remote-plane closures only ever
/// run inside scheduled tasks, so this is always installed.
fn my_slot() -> usize {
    executor::current_slot().expect("remote-plane operator invoked outside an executor task")
}

/// Calls the *current slot's own* worker until it answers (`call`
/// returning `Ok(None)` is a torn reply: retry), waiting out a dead worker
/// until the health plane kills the slot — which cancels this task and
/// reruns it on the replacement incarnation — rather than burning task
/// attempts on a doomed fast-fail.
fn on_own_worker<R>(
    ctx: &SpangleContext,
    slot: usize,
    what: &dyn std::fmt::Debug,
    mut call: impl FnMut() -> Result<Option<R>, crate::backend::BackendError>,
) -> R {
    use crate::backend::BackendError;
    let epoch_at_start = ctx.inner.pool.epoch(slot);
    let deadline = Instant::now() + OWN_WORKER_DEADLINE;
    loop {
        // No `cancellation_point` in this loop — that would stamp this
        // slot's heartbeat and hide the very death we may be waiting on.
        if executor::is_task_cancelled() {
            panic_any(CancelledError);
        }
        match call() {
            Ok(Some(answer)) => return answer,
            Ok(None) => {}
            Err(BackendError::Cancelled) => panic_any(CancelledError),
            Err(BackendError::WorkerDead | BackendError::Timeout) => {
                // Our own failure domain is gone. Do NOT paper over it:
                // spin on the cancellation token so the loss is detected
                // by missed heartbeats and unwinds as an executor loss.
                if ctx.inner.pool.epoch(slot) != epoch_at_start {
                    // The slot was already killed and reseated while we
                    // waited; this task is a stale incarnation's.
                    panic_any(CancelledError);
                }
                if Instant::now() > deadline {
                    panic!(
                        "worker process for executor {slot} unreachable and never declared \
                         lost (is health monitoring disabled?)"
                    );
                }
            }
            Err(e) => {
                // A stale (already-cancelled) task can reach a freshly
                // reseated worker whose store lacks its blocks; that is
                // cancellation, not an operator bug.
                if executor::is_task_cancelled() {
                    panic_any(CancelledError);
                }
                panic!("{what:?} failed on executor {slot}: {e}")
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs a named operator on the current slot's worker.
fn run_on_own_worker(
    ctx: &SpangleContext,
    slot: usize,
    op: &str,
    args: &[u8],
    inputs: Vec<OpInput>,
    out_keys: &[BlockKey],
) -> Vec<BlockMeta> {
    on_own_worker(ctx, slot, &op, || {
        let backend = &ctx.inner.backend;
        backend
            .run_op(slot, op, args, inputs.clone(), out_keys)
            .map(Some)
    })
}

/// Reads a block from the current slot's own worker. A verification
/// failure on a healthy local read is a torn reply.
fn fetch_own_block(
    ctx: &SpangleContext,
    slot: usize,
    key: BlockKey,
    len: u64,
    checksum: u64,
) -> Vec<u8> {
    on_own_worker(ctx, slot, &key, || {
        let bytes = ctx.inner.backend.fetch(slot, key)?;
        Ok((bytes.len() as u64 == len && fnv1a64(&bytes) == checksum).then_some(bytes))
    })
}

/// Fetches and verifies a referenced block from a peer slot's store,
/// retrying transient connection deaths with seeded backoff.
fn fetch_verified(
    ctx: &SpangleContext,
    slot: usize,
    key: BlockKey,
    len: u64,
    checksum: u64,
) -> Result<Vec<u8>, String> {
    use crate::backend::BackendError;
    let seed = 0xFE7C_4B10 ^ key.0.rotate_left(32) ^ key.1 ^ ((slot as u64) << 48);
    let mut last = String::from("exhausted retries");
    for attempt in 0..FETCH_RETRIES {
        if executor::is_task_cancelled() {
            panic_any(CancelledError);
        }
        match ctx.inner.backend.fetch(slot, key) {
            Ok(bytes) => {
                if bytes.len() as u64 == len && fnv1a64(&bytes) == checksum {
                    return Ok(bytes);
                }
                last = format!("block {key:?} from executor {slot} failed verification");
            }
            Err(BackendError::Cancelled) => panic_any(CancelledError),
            // The worker answered: the block simply is not there (a
            // fresh incarnation). Retrying cannot help.
            Err(BackendError::NotFound) => {
                return Err(format!("block {key:?} not resident on executor {slot}"))
            }
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(jittered_backoff(
            Duration::from_millis(1),
            Duration::from_millis(50),
            attempt,
            seed ^ attempt as u64,
        ));
    }
    Err(last)
}

/// Resolves one input handle for an operator about to run on `slot`:
/// same live slot — pass by store key; anywhere else — fetch the bytes
/// and pass inline. `Err` means the handle's incarnation died and the
/// peer fetch failed.
fn try_resolve(ctx: &SpangleContext, slot: usize, h: &ShardHandle) -> Result<OpInput, String> {
    if h.slot == slot as u64 && h.epoch == ctx.inner.pool.epoch(slot) {
        return Ok(OpInput::Local(h.key));
    }
    fetch_verified(ctx, h.slot as usize, h.key, h.len, h.checksum).map(OpInput::Inline)
}

/// [`try_resolve`] for a narrow-position handle, where failure is a plain
/// task failure: the retried task recomputes the chain and mints fresh
/// handles.
fn resolve_input(ctx: &SpangleContext, slot: usize, h: &ShardHandle) -> OpInput {
    try_resolve(ctx, slot, h).unwrap_or_else(|why| panic!("stale shard handle {:?}: {why}", h.key))
}

fn handle_from(slot: usize, epoch: u64, key: BlockKey, meta: &BlockMeta) -> ShardHandle {
    ShardHandle {
        slot: slot as u64,
        epoch,
        key,
        len: meta.len,
        checksum: meta.checksum,
    }
}

/// A generator dataset: partition `p` holds one [`ShardHandle`] to the
/// output of `op(base_args ++ [p])` run on the computing slot's worker.
pub fn remote_source(
    ctx: &SpangleContext,
    op: &'static str,
    base_args: Vec<u64>,
    parts: usize,
) -> Rdd<ShardHandle> {
    let ns = ctx.new_rdd_id() as u64;
    let ctx2 = ctx.clone();
    ctx.parallelize((0..parts as u64).collect(), parts)
        .map_partitions_with_index(move |p, _seed| {
            let slot = my_slot();
            let epoch = ctx2.inner.pool.epoch(slot);
            let mut args = base_args.clone();
            args.push(p as u64);
            let key = (ns, p as u64);
            let metas =
                run_on_own_worker(&ctx2, slot, op, &ops::pack_args(&args), Vec::new(), &[key]);
            vec![handle_from(slot, epoch, key, &metas[0])]
        })
}

/// Partition-wise transformation: runs `op(base_args ++ [p])` over the
/// partition's handles (resolved in order as operator inputs) and yields
/// one handle to the output block.
pub fn remote_map(
    input: &Rdd<ShardHandle>,
    op: &'static str,
    base_args: Vec<u64>,
) -> Rdd<ShardHandle> {
    let ctx = input.context().clone();
    let ns = ctx.new_rdd_id() as u64;
    input.map_partitions_with_index(move |p, handles| {
        let slot = my_slot();
        let epoch = ctx.inner.pool.epoch(slot);
        let inputs = handles
            .iter()
            .map(|h| resolve_input(&ctx, slot, h))
            .collect();
        let mut args = base_args.clone();
        args.push(p as u64);
        let key = (ns, p as u64);
        let metas = run_on_own_worker(&ctx, slot, op, &ops::pack_args(&args), inputs, &[key]);
        vec![handle_from(slot, epoch, key, &metas[0])]
    })
}

/// Pairs partition `p` of both sides into one partition holding both
/// sides' handles in order (`self`'s, then `other`'s) — the input shape
/// [`remote_exchange`]'s route operators take.
pub fn remote_zip(a: &Rdd<ShardHandle>, b: &Rdd<ShardHandle>) -> Rdd<ShardHandle> {
    a.zip_partitions(b, |left, right| {
        let mut all = left.to_vec();
        all.extend_from_slice(right);
        all
    })
}

/// All-to-all exchange over the worker stores.
///
/// `route_op(route_args; partition handles...)` runs on each input
/// partition's slot, emitting `parts` bucket blocks; small
/// `(producing map partition, handle)` pairs ride the engine's ordinary
/// typed shuffle to the reduce side, where `merge_op(merge_args ++ [r]; buckets...)` combines every
/// bucket routed to reduce partition `r` (fetched from peer workers as
/// needed) into one output shard. A bucket whose bytes cannot be fetched
/// panics with a typed [`FetchFailedError`] naming its producing map
/// partition, so the scheduler regenerates exactly that map output.
pub fn remote_exchange(
    input: &Rdd<ShardHandle>,
    route_op: &'static str,
    route_args: Vec<u64>,
    merge_op: &'static str,
    merge_args: Vec<u64>,
    parts: usize,
) -> Rdd<ShardHandle> {
    let ctx = input.context().clone();
    let route_ns = ctx.new_rdd_id() as u64;
    let merge_ns = ctx.new_rdd_id() as u64;

    let ctx_route = ctx.clone();
    let routed: Rdd<(u64, (u64, ShardHandle))> =
        input.map_partitions_with_index(move |p, handles| {
            let slot = my_slot();
            let epoch = ctx_route.inner.pool.epoch(slot);
            let inputs: Vec<OpInput> = handles
                .iter()
                .map(|h| resolve_input(&ctx_route, slot, h))
                .collect();
            let out_keys: Vec<BlockKey> = (0..parts)
                .map(|r| (route_ns, (p * parts + r) as u64))
                .collect();
            let metas = run_on_own_worker(
                &ctx_route,
                slot,
                route_op,
                &ops::pack_args(&route_args),
                inputs,
                &out_keys,
            );
            metas
                .iter()
                .zip(&out_keys)
                .enumerate()
                .map(|(r, (meta, key))| {
                    (r as u64, (p as u64, handle_from(slot, epoch, *key, meta)))
                })
                .collect()
        });

    let grouped = routed.group_by_key(Arc::new(ModPartitioner::new(parts)));
    let shuffle_id = grouped
        .node
        .dependencies()
        .into_iter()
        .find_map(|dep| match dep {
            Dependency::Shuffle(d) => Some(d.shuffle_id()),
            Dependency::Narrow(_) => None,
        })
        .expect("group_by_key must carry a shuffle dependency");

    grouped.map_partitions_with_index(move |r, groups| {
        let slot = my_slot();
        let epoch = ctx.inner.pool.epoch(slot);
        let mut refs: Vec<(u64, ShardHandle)> = groups
            .iter()
            .flat_map(|(_, bucket_refs)| bucket_refs.iter().copied())
            .collect();
        // Merge in ascending map order so the input sequence (though not
        // the registered ops' arithmetic) is deterministic too.
        refs.sort_unstable_by_key(|&(src_map, _)| src_map);
        let mut inputs: Vec<OpInput> = Vec::with_capacity(refs.len());
        let mut lost: Vec<usize> = Vec::new();
        for (src_map, bucket) in &refs {
            match try_resolve(&ctx, slot, bucket) {
                Ok(input) => inputs.push(input),
                Err(_) => lost.push(*src_map as usize),
            }
        }
        if let Some(&first) = lost.first() {
            // These buckets' bytes are gone (dead worker, torn
            // connection, lost block). The driver-side shuffle records
            // for their maps are still whole — only the payloads died
            // with the process — so drop every affected record in one
            // round, then fail typed: recovery re-runs exactly those map
            // partitions, regenerating the buckets on live incarnations.
            for &map_id in &lost {
                ctx.inner.shuffle.discard_map_output(shuffle_id, map_id);
            }
            panic_any(FetchFailedError {
                shuffle_id,
                map_id: first,
            });
        }
        let mut args = merge_args.clone();
        args.push(r as u64);
        let key = (merge_ns, r as u64);
        let metas = run_on_own_worker(&ctx, slot, merge_op, &ops::pack_args(&args), inputs, &[key]);
        vec![handle_from(slot, epoch, key, &metas[0])]
    })
}

/// Materialises a remote pair dataset on the driver: every shard is
/// decoded as a pair block and the union is returned sorted by key.
pub fn remote_collect_pairs(input: &Rdd<ShardHandle>) -> Result<Vec<(u64, u64)>, JobError> {
    let ctx = input.context().clone();
    let fetched = input.map_partitions_with_index(move |_p, handles| {
        let slot = my_slot();
        handles
            .iter()
            .flat_map(|h| {
                let bytes = match resolve_input(&ctx, slot, h) {
                    OpInput::Inline(bytes) => bytes,
                    OpInput::Local(key) => fetch_own_block(&ctx, slot, key, h.len, h.checksum),
                };
                ops::decode_pairs(&bytes).expect("shard is not a pair block")
            })
            .collect()
    });
    let mut pairs = fetched.collect()?;
    pairs.sort_unstable();
    Ok(pairs)
}

/// One fixed-point PageRank iteration over the remote plane: routes each
/// page's rank shares with `pr.contrib` and re-ranks with `pr.apply`.
/// Same arithmetic as the in-process chaos gate: integer ranks scaled by
/// 1e6, so replay is bit-identical by construction.
pub fn remote_pagerank_step(
    graph: &Rdd<ShardHandle>,
    ranks: &Rdd<ShardHandle>,
    n_pages: u64,
    parts: usize,
) -> Rdd<ShardHandle> {
    remote_exchange(
        &remote_zip(graph, ranks),
        "pr.contrib",
        vec![parts as u64],
        "pr.apply",
        vec![n_pages, parts as u64],
        parts,
    )
}
