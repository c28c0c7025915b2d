//! Executor backends: where the remote data plane's named operators run
//! and where their blocks live.
//!
//! The [`ExecutorBackend`] trait splits the cluster's *data plane* from
//! its scheduling plane. Scheduling (stages, placement, retries,
//! lineage) always runs in the driver process over the thread pool; the
//! backend decides where a named [`crate::ops`] operator executes and
//! which store holds its output blocks:
//!
//! * [`BackendKind::InProc`] (the default) keeps today's single-process
//!   cluster: operators run on the calling executor thread against a
//!   driver-local block store. No sockets, no processes — and no real
//!   failure domains.
//! * [`BackendKind::Proc`] gives every executor slot a real OS *worker
//!   process* owning that slot's shards, spoken to over a Unix-domain
//!   socket with the [`crate::wire`] frame protocol. Worker keepalives
//!   are stamped into the driver's `HealthBoard` by per-session reader
//!   threads, so the PR 9 loss detector fires on genuine process death:
//!   a `SIGKILL`ed worker stops heartbeating, is declared lost, its slot
//!   is killed through the standard recovery path, and this backend
//!   respawns a fresh incarnation — no `kill_executor` call anywhere.
//!
//! Selection: `SPANGLE_BACKEND=proc|inproc` seeds the builder default;
//! [`crate::SpangleContextBuilder::backend`] wins over the environment.
//! Under `proc`, `SPANGLE_PROC_MAX_WORKERS` caps how many slots get real
//! processes (the rest degrade to the in-driver store, covered by a
//! stamper thread so loss detection never fires on them), and
//! `SPANGLE_WORKER_BIN` points at the worker binary when automatic
//! discovery (alongside the current executable) cannot find it.

use crate::env::env_parse;
use crate::health::{jittered_backoff, HealthBoard};
use crate::ops::OpStore;
use crate::sync::channel::{unbounded, RecvTimeoutError, Sender};
use crate::sync::Mutex;
use crate::wire::{self, BlockKey, BlockMeta, Frame, OpInput, ReplyBody, RequestBody};
use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which executor backend a context runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Operators run on the in-process executor threads against a
    /// driver-local block store (the historical behavior).
    #[default]
    InProc,
    /// Every executor slot is a worker *process* reached over a Unix
    /// socket; process death is a real failure domain.
    Proc,
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "inproc" | "in-process" | "thread" => Ok(BackendKind::InProc),
            "proc" | "process" | "multiproc" => Ok(BackendKind::Proc),
            other => Err(format!("unknown backend {other:?}")),
        }
    }
}

/// Why a backend call failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The slot's worker is unreachable: never spawned, crashed,
    /// `SIGKILL`ed, or its connection produced a torn frame. The caller
    /// must *wait for the health plane to notice* (or for its own
    /// cancellation), never paper over it.
    WorkerDead,
    /// The call hit its deadline with the worker still connected.
    Timeout,
    /// The calling task was cancelled while waiting.
    Cancelled,
    /// No block is stored under the requested key.
    NotFound,
    /// The operator itself failed — a task-level error on a healthy
    /// worker (quarantine-eligible, like any panicking task body).
    Op(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::WorkerDead => write!(f, "worker process unreachable"),
            BackendError::Timeout => write!(f, "backend call timed out"),
            BackendError::Cancelled => write!(f, "task cancelled while waiting on backend"),
            BackendError::NotFound => write!(f, "block not found"),
            BackendError::Op(msg) => write!(f, "operator failed: {msg}"),
        }
    }
}

/// A worker store snapshot, for tests and diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerStats {
    /// Blocks resident in the slot's store.
    pub blocks: u64,
    /// Total encoded bytes of those blocks.
    pub bytes: u64,
    /// Incarnation the store belongs to.
    pub epoch: u64,
    /// OS pid of the owning process (the driver's own pid for in-process
    /// and degraded slots).
    pub pid: u64,
}

/// Where named operators execute and where their blocks live; one
/// implementation per [`BackendKind`].
pub trait ExecutorBackend: Send + Sync {
    /// Which kind this backend is.
    fn kind(&self) -> BackendKind;

    /// Whether this backend is the cluster's heartbeat source (socket
    /// keepalives + degraded-slot stamper). When `false`, the pool's
    /// in-process heartbeater thread runs instead.
    fn provides_heartbeats(&self) -> bool;

    /// Runs the named operator on `slot`'s store, depositing its outputs
    /// under `out_keys`. Deterministic ops + keyed outputs make this
    /// idempotent: a replay answers from the store.
    fn run_op(
        &self,
        slot: usize,
        op: &str,
        args: &[u8],
        inputs: Vec<OpInput>,
        out_keys: &[BlockKey],
    ) -> Result<Vec<BlockMeta>, BackendError>;

    /// Fetches a stored block's bytes from `slot` — the remote
    /// shuffle-fetch path under the process backend.
    fn fetch(&self, slot: usize, key: BlockKey) -> Result<Vec<u8>, BackendError>;

    /// Snapshot of `slot`'s store.
    fn stats(&self, slot: usize) -> Result<WorkerStats, BackendError>;

    /// Called by `SpangleContext::kill_executor` after the pool seated a
    /// replacement incarnation: reap the dead worker and bring up a fresh
    /// one for `new_epoch` (or clear the degraded slot's local store).
    fn on_executor_killed(&self, slot: usize, new_epoch: u64);

    /// OS pid of `slot`'s worker process, when one is running.
    fn worker_pid(&self, slot: usize) -> Option<u32>;

    /// Test hook: `SIGKILL` the worker process of `slot` and tell no one
    /// — detection must come from missed heartbeats. Returns whether a
    /// process was actually signalled.
    fn sigkill_worker(&self, slot: usize) -> bool;

    /// Number of slots currently served by real worker processes (0 for
    /// the in-process backend and fully degraded process backends).
    fn real_worker_slots(&self) -> usize;

    /// Stops workers, joins session threads, removes sockets. Idempotent.
    fn shutdown(&self);
}

/// `SPANGLE_BACKEND` seeds the builder default (invalid values warn once
/// through the knob parser and fall back to in-process).
pub(crate) fn backend_kind_from_env() -> BackendKind {
    env_parse::<BackendKind>("SPANGLE_BACKEND").unwrap_or_default()
}

/// Builds the backend for `kind` over `executors` slots.
pub(crate) fn make_backend(
    kind: BackendKind,
    executors: usize,
    board: Arc<HealthBoard>,
    heartbeat_interval: Duration,
) -> Arc<dyn ExecutorBackend> {
    match kind {
        BackendKind::InProc => Arc::new(InProcBackend {
            local: LocalStore::new(executors),
        }),
        BackendKind::Proc => Arc::new(ProcBackend::start(executors, board, heartbeat_interval)),
    }
}

/// The driver-local operator stores, one per slot: the whole data plane
/// of the in-process backend, and the degraded tier of the process backend
/// (slots past the worker cap, or slots whose worker could not be spawned).
struct LocalStore {
    slots: Vec<Mutex<OpStore>>,
}

impl LocalStore {
    fn new(executors: usize) -> Self {
        LocalStore {
            slots: (0..executors).map(|_| Mutex::default()).collect(),
        }
    }

    fn run_op(
        &self,
        slot: usize,
        op: &str,
        args: &[u8],
        inputs: &[OpInput],
        out_keys: &[BlockKey],
    ) -> Result<Vec<BlockMeta>, BackendError> {
        self.slots[slot]
            .lock()
            .run(op, args, inputs, out_keys, &AtomicU64::new(0))
            .map_err(BackendError::Op)
    }

    fn fetch(&self, slot: usize, key: BlockKey) -> Result<Vec<u8>, BackendError> {
        self.slots[slot]
            .lock()
            .get(key)
            .ok_or(BackendError::NotFound)
    }

    fn stats(&self, slot: usize, epoch: u64) -> WorkerStats {
        self.slots[slot].lock().stats(epoch)
    }

    /// A killed incarnation's blocks die with it.
    fn discard(&self, slot: usize) {
        self.slots[slot].lock().clear();
    }
}

/// The in-process backend: the data plane shares the driver's heap.
struct InProcBackend {
    local: LocalStore,
}

impl ExecutorBackend for InProcBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::InProc
    }

    fn provides_heartbeats(&self) -> bool {
        false
    }

    fn run_op(
        &self,
        slot: usize,
        op: &str,
        args: &[u8],
        inputs: Vec<OpInput>,
        out_keys: &[BlockKey],
    ) -> Result<Vec<BlockMeta>, BackendError> {
        self.local.run_op(slot, op, args, &inputs, out_keys)
    }

    fn fetch(&self, slot: usize, key: BlockKey) -> Result<Vec<u8>, BackendError> {
        self.local.fetch(slot, key)
    }

    fn stats(&self, slot: usize) -> Result<WorkerStats, BackendError> {
        Ok(self.local.stats(slot, 0))
    }

    fn on_executor_killed(&self, slot: usize, _new_epoch: u64) {
        self.local.discard(slot);
    }

    fn worker_pid(&self, _slot: usize) -> Option<u32> {
        None
    }

    fn sigkill_worker(&self, _slot: usize) -> bool {
        false
    }

    fn real_worker_slots(&self) -> usize {
        0
    }

    fn shutdown(&self) {}
}

/// One live worker connection: a locked writer for requests, a reader
/// thread routing replies by request id and stamping keepalives into the
/// health board.
struct Session {
    writer: Mutex<UnixStream>,
    pending: Mutex<HashMap<u64, Sender<ReplyBody>>>,
    /// Latched by the reader on EOF / torn frame, and by a failed write.
    /// A dead session fails calls immediately; it never kills the slot —
    /// loss detection is the health monitor's job, driven purely by
    /// heartbeat age.
    dead: AtomicBool,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Session {
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        // Dropping the senders disconnects every waiting call.
        self.pending.lock().clear();
    }
}

/// How one executor slot is served.
enum SlotMode {
    /// A real worker process (the child handle is kept for reaping and
    /// for the `SIGKILL` test hook).
    Remote {
        child: std::process::Child,
        session: Arc<Session>,
    },
    /// Degraded to the driver-local store: past the worker cap, or the
    /// worker binary is unavailable. The stamper thread keeps such slots'
    /// heartbeats fresh so loss detection never fires on them.
    Local,
}

struct SlotState {
    epoch: u64,
    mode: SlotMode,
}

/// The multi-process backend.
struct ProcBackend {
    dir: std::path::PathBuf,
    socket: std::path::PathBuf,
    listener: Mutex<UnixListener>,
    /// Accepted connections whose `Hello` named a different slot than the
    /// spawner waiting on the listener (concurrent respawns): parked here
    /// for the right spawner to claim.
    parked: Mutex<Vec<(u64, u64, UnixStream)>>,
    slots: Vec<Mutex<SlotState>>,
    local: LocalStore,
    board: Arc<HealthBoard>,
    /// Which slots the stamper thread covers (the Local ones); shared
    /// with that thread and flipped on spawn/degrade transitions.
    local_flags: Mutex<Option<Arc<Vec<AtomicBool>>>>,
    /// Keepalive spacing passed to workers (half the heartbeat interval,
    /// clamped like the in-process heartbeater's step).
    keepalive: Duration,
    worker_bin: Option<std::path::PathBuf>,
    max_workers: usize,
    next_req: AtomicU64,
    stop: Arc<AtomicBool>,
    stamper: Mutex<Option<std::thread::JoinHandle<()>>>,
    shut_down: AtomicBool,
}

/// How long a spawner waits for a fresh worker's `Hello` before declaring
/// the spawn failed and degrading the slot.
const SPAWN_DEADLINE: Duration = Duration::from_secs(10);

/// Hard ceiling on one backend call; real waits end far earlier through
/// cancellation or the dead-session latch.
const CALL_DEADLINE: Duration = Duration::from_secs(600);

impl ProcBackend {
    fn start(executors: usize, board: Arc<HealthBoard>, heartbeat_interval: Duration) -> Self {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spangle-proc-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("failed to create backend socket dir");
        let socket = dir.join("driver.sock");
        let listener = UnixListener::bind(&socket).expect("failed to bind backend socket");
        listener
            .set_nonblocking(true)
            .expect("failed to configure backend socket");

        let worker_bin = find_worker_bin();
        if worker_bin.is_none() {
            warn_once(
                "spangle: SPANGLE_BACKEND=proc but no spangle_worker binary found \
                 (set SPANGLE_WORKER_BIN); degrading every slot to the in-driver store",
            );
        }
        let max_workers = env_parse::<usize>("SPANGLE_PROC_MAX_WORKERS").unwrap_or(executors);
        let keepalive =
            (heartbeat_interval / 2).clamp(Duration::from_millis(1), Duration::from_millis(50));

        let backend = ProcBackend {
            dir,
            socket,
            listener: Mutex::new(listener),
            parked: Mutex::new(Vec::new()),
            slots: (0..executors)
                .map(|_| {
                    Mutex::new(SlotState {
                        epoch: 0,
                        mode: SlotMode::Local,
                    })
                })
                .collect(),
            local: LocalStore::new(executors),
            board,
            local_flags: Mutex::new(None),
            keepalive,
            worker_bin,
            max_workers,
            next_req: AtomicU64::new(1),
            stop: Arc::new(AtomicBool::new(false)),
            stamper: Mutex::new(None),
            shut_down: AtomicBool::new(false),
        };

        // Eager spawn: loss detection exempts idle slots, so a slot must
        // have a keepalive source from the start — a lazily spawned
        // worker would leave long closure tasks on a silent slot looking
        // dead. Slots past the cap (or with no binary) stay Local.
        for slot in 0..executors.min(backend.max_workers) {
            if backend.worker_bin.is_some() {
                let mut state = backend.slots[slot].lock();
                backend.spawn_into(&mut state, slot, 0);
            }
        }
        backend.start_stamper(executors);
        backend
    }

    /// The stamper covers Local slots (and only those): they have no
    /// worker process, so without it the health monitor would declare
    /// them lost under any task longer than the loss threshold.
    fn start_stamper(&self, executors: usize) {
        let board = Arc::clone(&self.board);
        let stop = Arc::clone(&self.stop);
        let step = self.keepalive;
        let local_flags: Arc<Vec<AtomicBool>> =
            Arc::new((0..executors).map(|_| AtomicBool::new(true)).collect());
        for slot in 0..executors {
            let is_local = matches!(self.slots[slot].lock().mode, SlotMode::Local);
            local_flags[slot].store(is_local, Ordering::SeqCst);
        }
        self.local_flags.lock().replace(Arc::clone(&local_flags));
        let handle = std::thread::Builder::new()
            .name("spangle-proc-stamper".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    for (slot, flag) in local_flags.iter().enumerate() {
                        if flag.load(Ordering::SeqCst) {
                            board.stamp_heartbeat(slot);
                        }
                    }
                    std::thread::sleep(step);
                }
            })
            .expect("failed to spawn backend stamper thread");
        self.stamper.lock().replace(handle);
    }

    /// Spawns a worker for `(slot, epoch)` into `state`; on any failure
    /// the slot degrades to Local (and the stamper covers it).
    fn spawn_into(&self, state: &mut SlotState, slot: usize, epoch: u64) {
        state.epoch = epoch;
        let Some(bin) = &self.worker_bin else {
            self.set_local(state, slot);
            return;
        };
        let child = std::process::Command::new(bin)
            .arg(&self.socket)
            .arg(slot.to_string())
            .arg(epoch.to_string())
            .arg(self.keepalive.as_millis().to_string())
            .stdin(std::process::Stdio::null())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                warn_once(&format!(
                    "spangle: failed to spawn worker process ({e}); degrading to in-driver slots"
                ));
                self.set_local(state, slot);
                return;
            }
        };
        match self.accept_hello(slot as u64, epoch) {
            Some(stream) => {
                let session = self.install_session(slot, stream);
                state.mode = SlotMode::Remote { child, session };
                self.set_local_flag(slot, false);
            }
            None => {
                let _ = child.kill();
                let _ = child.wait();
                warn_once(&format!(
                    "spangle: worker for slot {slot} never said hello; degrading the slot"
                ));
                self.set_local(state, slot);
            }
        }
    }

    fn set_local(&self, state: &mut SlotState, slot: usize) {
        state.mode = SlotMode::Local;
        self.set_local_flag(slot, true);
        // A fresh heartbeat keeps the just-degraded slot from being
        // instantly declared lost before the stamper's next pass.
        self.board.stamp_heartbeat(slot);
    }

    fn set_local_flag(&self, slot: usize, local: bool) {
        if let Some(flags) = self.local_flags.lock().as_ref() {
            flags[slot].store(local, Ordering::SeqCst);
        }
    }

    /// Accepts connections until the `Hello` for `(slot, epoch)` arrives
    /// (checking the parked list first), with seeded backoff between
    /// polls — the PR 9 reconnect discipline. Hellos for *other* slots
    /// are parked for their spawners.
    fn accept_hello(&self, slot: u64, epoch: u64) -> Option<UnixStream> {
        let deadline = Instant::now() + SPAWN_DEADLINE;
        let mut attempt = 0usize;
        loop {
            {
                let mut parked = self.parked.lock();
                if let Some(idx) = parked
                    .iter()
                    .position(|(s, e, _)| *s == slot && *e == epoch)
                {
                    return Some(parked.swap_remove(idx).2);
                }
            }
            let accepted = self.listener.lock().accept();
            match accepted {
                Ok((stream, _)) => {
                    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
                    let mut reader = stream.try_clone().ok()?;
                    // Anything but a `Hello` on a fresh connection is a
                    // stranger and is dropped.
                    if let Ok(Frame::Hello { slot: s, epoch: e }) = wire::read_frame(&mut reader) {
                        stream.set_read_timeout(None).ok()?;
                        if s == slot && e == epoch {
                            return Some(stream);
                        }
                        // Someone else's worker: park it (stale epochs
                        // are dropped on claim timeout).
                        self.parked.lock().push((s, e, stream));
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline || self.stop.load(Ordering::SeqCst) {
                        return None;
                    }
                    attempt += 1;
                    std::thread::sleep(jittered_backoff(
                        Duration::from_millis(1),
                        Duration::from_millis(20),
                        attempt.min(8),
                        0x5EED_0C0D_u64 ^ slot ^ (epoch << 16) ^ attempt as u64,
                    ));
                }
                Err(_) => return None,
            }
        }
    }

    /// Wraps an accepted stream in a session and spawns its reader
    /// thread: replies route to waiting calls, keepalives stamp the
    /// health board, and connection death only latches the dead flag —
    /// deciding the *executor* is lost stays the health monitor's call.
    fn install_session(&self, slot: usize, stream: UnixStream) -> Arc<Session> {
        let writer = stream;
        let mut read_half = writer.try_clone().expect("failed to clone worker stream");
        let session = Arc::new(Session {
            writer: Mutex::new(writer),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            reader: Mutex::new(None),
        });
        let reader_session = Arc::downgrade(&session);
        let board = Arc::clone(&self.board);
        let op_seen = AtomicU64::new(0);
        let handle = std::thread::Builder::new()
            .name(format!("spangle-worker-io-{slot}"))
            .spawn(move || loop {
                match wire::read_frame(&mut read_half) {
                    Ok(Frame::Heartbeat { op_progress, .. }) => {
                        // A keepalive proves the process is alive; an
                        // advancing op counter additionally proves the
                        // operator body is moving (feeds the watchdog).
                        if op_progress > op_seen.swap(op_progress, Ordering::Relaxed) {
                            board.stamp_progress(slot);
                        } else {
                            board.stamp_heartbeat(slot);
                        }
                    }
                    Ok(Frame::Reply { req_id, body }) => {
                        if let Some(session) = reader_session.upgrade() {
                            if let Some(tx) = session.pending.lock().remove(&req_id) {
                                let _ = tx.send(body);
                            }
                        }
                    }
                    Ok(_) => {}
                    Err(_) => {
                        // EOF or torn frame: the connection is done. Fail
                        // the waiting calls and stop — no stamps, no
                        // kills; silence is the detection signal.
                        if let Some(session) = reader_session.upgrade() {
                            session.mark_dead();
                        }
                        return;
                    }
                }
            })
            .expect("failed to spawn worker io thread");
        session.reader.lock().replace(handle);
        session
    }

    /// The session serving `slot` right now, or `None` for Local slots.
    fn session_of(&self, slot: usize) -> Option<Arc<Session>> {
        match &self.slots[slot].lock().mode {
            SlotMode::Remote { session, .. } => Some(Arc::clone(session)),
            SlotMode::Local => None,
        }
    }

    /// Sends one request and waits for its reply, polling the dead latch
    /// and the calling task's cancellation between channel timeouts.
    fn call(&self, session: &Session, body: RequestBody) -> Result<ReplyBody, BackendError> {
        if session.dead.load(Ordering::SeqCst) {
            return Err(BackendError::WorkerDead);
        }
        let req_id = self.next_req.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = unbounded();
        session.pending.lock().insert(req_id, tx);
        let frame = Frame::Request { req_id, body };
        if wire::write_frame(&mut *session.writer.lock(), &frame).is_err() {
            session.pending.lock().remove(&req_id);
            session.mark_dead();
            return Err(BackendError::WorkerDead);
        }
        let deadline = Instant::now() + CALL_DEADLINE;
        loop {
            match rx.recv_timeout(Duration::from_millis(2)) {
                Ok(reply) => return Ok(reply),
                Err(RecvTimeoutError::Disconnected) => return Err(BackendError::WorkerDead),
                Err(RecvTimeoutError::Timeout) => {
                    if session.dead.load(Ordering::SeqCst) {
                        session.pending.lock().remove(&req_id);
                        return Err(BackendError::WorkerDead);
                    }
                    if crate::executor::is_task_cancelled() {
                        session.pending.lock().remove(&req_id);
                        return Err(BackendError::Cancelled);
                    }
                    if Instant::now() > deadline {
                        session.pending.lock().remove(&req_id);
                        return Err(BackendError::Timeout);
                    }
                }
            }
        }
    }
}

impl ExecutorBackend for ProcBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Proc
    }

    fn provides_heartbeats(&self) -> bool {
        true
    }

    fn run_op(
        &self,
        slot: usize,
        op: &str,
        args: &[u8],
        inputs: Vec<OpInput>,
        out_keys: &[BlockKey],
    ) -> Result<Vec<BlockMeta>, BackendError> {
        match self.session_of(slot) {
            None => self.local.run_op(slot, op, args, &inputs, out_keys),
            Some(session) => {
                let body = RequestBody::Run {
                    op: op.to_string(),
                    args: args.to_vec(),
                    inputs,
                    out_keys: out_keys.to_vec(),
                };
                match self.call(&session, body)? {
                    ReplyBody::RunOk(metas) => Ok(metas),
                    ReplyBody::OpError(msg) => Err(BackendError::Op(msg)),
                    _ => Err(BackendError::WorkerDead),
                }
            }
        }
    }

    fn fetch(&self, slot: usize, key: BlockKey) -> Result<Vec<u8>, BackendError> {
        match self.session_of(slot) {
            None => self.local.fetch(slot, key),
            Some(session) => match self.call(&session, RequestBody::Get { key })? {
                ReplyBody::GetOk(bytes) => Ok(bytes),
                ReplyBody::NotFound => Err(BackendError::NotFound),
                _ => Err(BackendError::WorkerDead),
            },
        }
    }

    fn stats(&self, slot: usize) -> Result<WorkerStats, BackendError> {
        let epoch = self.slots[slot].lock().epoch;
        match self.session_of(slot) {
            None => Ok(self.local.stats(slot, epoch)),
            Some(session) => match self.call(&session, RequestBody::Stats)? {
                ReplyBody::StatsOk(stats) => Ok(stats),
                _ => Err(BackendError::WorkerDead),
            },
        }
    }

    fn on_executor_killed(&self, slot: usize, new_epoch: u64) {
        let mut state = self.slots[slot].lock();
        match std::mem::replace(&mut state.mode, SlotMode::Local) {
            SlotMode::Remote { mut child, session } => {
                session.mark_dead();
                let _ = child.kill();
                let _ = child.wait();
                if let Some(handle) = session.reader.lock().take() {
                    let _ = handle.join();
                }
            }
            SlotMode::Local => self.local.discard(slot),
        }
        if self.shut_down.load(Ordering::SeqCst) {
            return;
        }
        if slot < self.max_workers {
            self.spawn_into(&mut state, slot, new_epoch);
        } else {
            // Capped slots stay on the in-driver store across kills.
            state.epoch = new_epoch;
            self.set_local(&mut state, slot);
        }
    }

    fn worker_pid(&self, slot: usize) -> Option<u32> {
        match &self.slots[slot].lock().mode {
            SlotMode::Remote { child, .. } => Some(child.id()),
            SlotMode::Local => None,
        }
    }

    fn sigkill_worker(&self, slot: usize) -> bool {
        // Signal only: no reaping, no session teardown, no respawn — the
        // driver must *notice* through missed keepalives, exactly like a
        // machine losing a process.
        match &mut self.slots[slot].lock().mode {
            SlotMode::Remote { child, .. } => child.kill().is_ok(),
            SlotMode::Local => false,
        }
    }

    fn real_worker_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.lock().mode, SlotMode::Remote { .. }))
            .count()
    }

    fn shutdown(&self) {
        if self.shut_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        for state in &self.slots {
            let mut state = state.lock();
            if let SlotMode::Remote { mut child, session } =
                std::mem::replace(&mut state.mode, SlotMode::Local)
            {
                // Ask politely (fire and forget), then make sure.
                let frame = Frame::Request {
                    req_id: self.next_req.fetch_add(1, Ordering::Relaxed),
                    body: RequestBody::Shutdown,
                };
                let _ = wire::write_frame(&mut *session.writer.lock(), &frame);
                let deadline = Instant::now() + Duration::from_millis(500);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
                session.mark_dead();
                // Closing our end unblocks the reader thread's read.
                let _ = session.writer.lock().shutdown(std::net::Shutdown::Both);
                if let Some(handle) = session.reader.lock().take() {
                    let _ = handle.join();
                }
            }
        }
        if let Some(handle) = self.stamper.lock().take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for ProcBackend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Finds the worker binary: `SPANGLE_WORKER_BIN`, else next to the
/// current executable (`target/<profile>/spangle_worker`, probing a few
/// ancestor directories to cover test executables under `deps/`).
fn find_worker_bin() -> Option<std::path::PathBuf> {
    if let Some(path) = std::env::var_os("SPANGLE_WORKER_BIN") {
        let path = std::path::PathBuf::from(path);
        if path.is_file() {
            return Some(path);
        }
        warn_once(&format!(
            "spangle: SPANGLE_WORKER_BIN={path:?} does not exist; trying discovery"
        ));
    }
    let exe = std::env::current_exe().ok()?;
    for dir in exe.ancestors().skip(1).take(4) {
        let candidate = dir.join("spangle_worker");
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

/// Prints `msg` to stderr once per distinct message per process.
fn warn_once(msg: &str) {
    use std::collections::HashSet;
    use std::sync::OnceLock;
    static SEEN: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(HashSet::new()));
    if seen.lock().insert(msg.to_string()) {
        eprintln!("{msg}");
    }
}
