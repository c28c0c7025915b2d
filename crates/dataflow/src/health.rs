//! Autonomous failure detection: the per-executor slot table (heartbeats,
//! progress ticks, incarnations, the quarantine placement state) and
//! seeded retry backoff.
//!
//! The `HealthBoard` is the shared blackboard between the executor pool
//! and the scheduler's driver loop: one `ExecutorSlot` per executor
//! holding everything the runtime knows about it. A pool-owned
//! *heartbeater* thread stamps every slot's heartbeat (an
//! executor-is-alive timestamp) each half-interval — heartbeats model the
//! dedicated reporter a remote executor process would run, so silence
//! means the executor is *gone*, never merely busy in a long compute
//! kernel. Workers additionally stamp around every task and tick
//! *progress* (a monotone per-executor counter) at chunk boundaries
//! through `cancellation_point`. The driver reads the ages back to declare
//! an executor lost after `missed_heartbeat_limit` silent intervals and a
//! task wedged after a no-progress watchdog interval, then routes into
//! the existing recovery paths (kill + lineage recompute, or a
//! speculation-style duplicate) — detection is new, recovery semantics
//! are not.
//!
//! The slot's *placement state* is the quarantine mask: an executor whose
//! recent task-failure rate crosses the threshold is drained (placement
//! and stealing both read the one state and skip it) and re-admitted
//! through probation with a single canary task. Everything in a slot but
//! the running-task handle is an atomic: stamping sits on the task hot
//! path and must cost no more than a TLS read and a store.

use crate::context::SpangleContext;
use crate::executor::{CancelToken, Executing};
use crate::metrics::MetricField;
use crate::scheduler::TaskError;
use crate::sync::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Placement states of one executor slot. `Healthy` is the only state
/// placement targets and the only one that may steal; `Probation` admits
/// exactly one canary task (CAS to `Canary`); `Quarantined` flips to
/// `Probation` lazily once its deadline passes.
const STATE_HEALTHY: u8 = 0;
const STATE_QUARANTINED: u8 = 1;
const STATE_PROBATION: u8 = 2;
const STATE_CANARY: u8 = 3;

/// Minimum recent outcomes observed on an executor before its failure
/// rate is judged at all.
const QUARANTINE_MIN_SAMPLES: usize = 5;
/// How many recent task outcomes per executor feed the failure rate.
const QUARANTINE_WINDOW: usize = 20;

/// When the driver declares executors lost and tasks wedged; configured
/// through [`crate::SpangleContextBuilder`], interval defaults overridable
/// with `SPANGLE_HEARTBEAT_MS` and `SPANGLE_WATCHDOG_MS`.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Master switch for the whole layer: loss detection, watchdog,
    /// quarantine. Off restores announced-failures-only behavior.
    pub enabled: bool,
    /// Expected spacing of executor heartbeats; the loss threshold is
    /// `heartbeat_interval * missed_heartbeat_limit`.
    pub heartbeat_interval: Duration,
    /// Consecutive missed heartbeats before an executor with a running
    /// task is declared lost and killed through the PR 4 recovery path.
    pub missed_heartbeat_limit: u32,
    /// A running task whose executor still heartbeats but whose progress
    /// counter has not moved for this long is declared wedged and
    /// duplicated through the speculation path.
    pub watchdog_interval: Duration,
    /// Recent task-failure rate (failures / window) at or above which an
    /// executor is quarantined.
    pub quarantine_threshold: f64,
    /// How long a quarantined executor is drained before probation offers
    /// it one canary task (doubled with jitter per failed canary).
    pub probation: Duration,
}

fn env_millis(var: &str) -> Option<Duration> {
    // A malformed knob (`SPANGLE_HEARTBEAT_MS=abc`) warns once and falls
    // back to the built-in default instead of being silently ignored.
    crate::env::env_parse::<u64>(var).map(Duration::from_millis)
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            enabled: true,
            // Heartbeats come from the pool's dedicated heartbeater, so
            // task-body length cannot trip loss detection; the margins
            // only cover scheduler-delay of the heartbeater thread itself:
            // 100 ms * 10 = 1 s loss threshold, 10 s watchdog (progress is
            // body-driven, so its margin must clear long compute kernels).
            // The `health` CI step tightens both via env.
            heartbeat_interval: env_millis("SPANGLE_HEARTBEAT_MS")
                .unwrap_or(Duration::from_millis(100)),
            missed_heartbeat_limit: 10,
            watchdog_interval: env_millis("SPANGLE_WATCHDOG_MS").unwrap_or(Duration::from_secs(10)),
            quarantine_threshold: 0.5,
            probation: Duration::from_millis(250),
        }
    }
}

impl HealthConfig {
    /// Heartbeat silence past this declares a busy executor lost.
    pub(crate) fn loss_threshold(&self) -> Duration {
        self.heartbeat_interval * self.missed_heartbeat_limit.max(1)
    }
}

/// Seeded, deterministic exponential backoff with jitter, applied to every
/// retry path: task retries, executor-loss/fetch-failure resubmissions,
/// and quarantine probation.
#[derive(Clone, Copy, Debug)]
pub struct RetryBackoffConfig {
    /// Off means every delay is zero (immediate retry, the pre-health
    /// behavior).
    pub enabled: bool,
    /// Delay before the first retry; doubles per subsequent strike.
    pub base: Duration,
    /// Upper bound the doubling saturates at.
    pub cap: Duration,
    /// Seed for the deterministic jitter hash.
    pub seed: u64,
}

impl Default for RetryBackoffConfig {
    fn default() -> Self {
        RetryBackoffConfig {
            enabled: true,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(64),
            seed: 0x5EED_BACC_0FF5,
        }
    }
}

impl RetryBackoffConfig {
    /// The delay before re-running `partition` of `stage` in `job` for
    /// the `strike`-th time: `base * 2^strike` saturating at `cap`, then
    /// jittered into `[1/2, 1]` of that by a hash of the identifiers —
    /// deterministic for a fixed seed, decorrelated across partitions.
    pub(crate) fn delay(
        &self,
        job: usize,
        stage: usize,
        partition: usize,
        strike: usize,
    ) -> Duration {
        if !self.enabled {
            return Duration::ZERO;
        }
        let salt = splitmix64(
            (job as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add((stage as u64) << 24)
                .wrapping_add((partition as u64) << 8)
                .wrapping_add(strike as u64),
        );
        jittered_backoff(self.base, self.cap, strike, self.seed ^ salt)
    }
}

/// SplitMix64 — the standard 64-bit finalizer; cheap, seedable, and good
/// enough to decorrelate backoff jitter across partitions.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `base * 2^strike` saturating at `cap`, jittered deterministically into
/// `[1/2, 1]` of the raw value by `seed`.
fn jittered_backoff(base: Duration, cap: Duration, strike: usize, seed: u64) -> Duration {
    let base = base.as_nanos() as u64;
    if base == 0 {
        return Duration::ZERO;
    }
    let cap = (cap.as_nanos() as u64).max(base);
    let raw = base
        .checked_shl(strike.min(32) as u32)
        .unwrap_or(u64::MAX)
        .min(cap);
    let jittered = raw / 2 + splitmix64(seed) % (raw / 2 + 1);
    Duration::from_nanos(jittered)
}

/// Everything the runtime knows about one executor, in one place (Spark's
/// `ExecutorData`): which incarnation sits in the slot, what it is running,
/// how much it has run, when it was last heard from, and whether placement
/// may target it. Written by the slot's worker thread, the pool's
/// heartbeater, chunk-boundary stamps from task bodies, kills, the failure
/// injector's pause and the driver's quarantine monitor; read by
/// placement, the steal loop, the straggler scan and the reports.
pub(crate) struct ExecutorSlot {
    /// Time base of the nanosecond stamps below.
    origin: Instant,
    /// Incarnation seated in the slot; bumped by [`ExecutorSlot::kill`].
    epoch: AtomicU64,
    /// Last incarnation to *complete* a task. A slot whose `epoch` is
    /// ahead of this is a freshly-seated replacement still warming up.
    active_epoch: AtomicU64,
    /// Token of the task body the worker is running, if any, with the
    /// instant it started: a kill cancels it so the dead incarnation's
    /// body stops at its next cancellation point, and the straggler scan
    /// measures *running* time from the stamp (queue time must not count
    /// toward the median-multiple threshold).
    running: Mutex<Option<(CancelToken, Instant)>>,
    /// Nanoseconds spent inside task bodies.
    busy_nanos: AtomicU64,
    /// Tasks run here that were placed on a sibling.
    steals: AtomicU64,
    /// Last heartbeat, nanos since `origin`.
    hb_nanos: AtomicU64,
    /// Monotone chunk-boundary tick counter.
    progress: AtomicU64,
    /// Failure injection: a paused executor's stamps are suppressed, so
    /// it looks silent to the monitor while actually running.
    paused: AtomicBool,
    /// Placement state (`STATE_*`).
    state: AtomicU8,
    /// When a quarantined slot's probation opens, nanos since `origin`.
    probation_until: AtomicU64,
}

impl ExecutorSlot {
    fn new(origin: Instant) -> Self {
        ExecutorSlot {
            origin,
            epoch: AtomicU64::new(0),
            active_epoch: AtomicU64::new(0),
            running: Mutex::new(None),
            busy_nanos: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            hb_nanos: AtomicU64::new(0),
            progress: AtomicU64::new(0),
            paused: AtomicBool::new(false),
            state: AtomicU8::new(STATE_HEALTHY),
            probation_until: AtomicU64::new(0),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Current incarnation (0 until the slot's first kill).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Whether the current incarnation is a warming replacement: seated by
    /// a kill and yet to complete a task. Epoch 0 counts as warmed at
    /// birth.
    pub(crate) fn is_warming(&self) -> bool {
        self.epoch() != self.active_epoch.load(Ordering::SeqCst)
    }

    /// The worker is about to run a task body: stamps a heartbeat, counts
    /// a steal, and publishes the body's token so a kill or shutdown can
    /// reach it. Returns the incarnation the task runs under and when it
    /// started.
    pub(crate) fn begin(&self, token: Option<&CancelToken>, stolen: bool) -> (u64, Instant) {
        self.stamp_heartbeat();
        let epoch = self.epoch();
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        let started = Instant::now();
        *self.running.lock() = token.map(|t| (t.clone(), started));
        (epoch, started)
    }

    /// The body [`ExecutorSlot::begin`] announced returned (or unwound).
    pub(crate) fn finish(&self, epoch: u64, started: Instant) {
        *self.running.lock() = None;
        self.stamp_heartbeat();
        let nanos = started.elapsed().as_nanos() as u64;
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        // The incarnation that started this task has now completed one; it
        // is no longer a warming replacement. Tasks run serially per
        // worker, so the stored epoch is monotone without a
        // compare-exchange.
        self.active_epoch.store(epoch, Ordering::SeqCst);
    }

    /// Retires the current incarnation and seats a replacement, returning
    /// its epoch. The body the dead incarnation was running is cancelled
    /// through its token, and the replacement starts un-paused with a
    /// fresh heartbeat — a lost executor must not look lost again the
    /// moment it is reseated, and a pause injection dies with the
    /// incarnation it silenced.
    pub(crate) fn kill(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.cancel_running();
        self.paused.store(false, Ordering::Relaxed);
        self.hb_nanos.store(self.now_nanos(), Ordering::Relaxed);
        epoch
    }

    /// Cancels the token of the running body, if any.
    pub(crate) fn cancel_running(&self) {
        if let Some((token, _)) = self.running.lock().as_ref() {
            token.cancel();
        }
    }

    /// What the slot is executing right now (`None` when idle, or running
    /// an untokened task).
    pub(crate) fn executing(&self) -> Option<Executing> {
        let (token, since) = self.running.lock().clone()?;
        Some(Executing {
            token,
            since,
            progress: self.progress.load(Ordering::Relaxed),
            silent_for: self.heartbeat_age(),
        })
    }

    pub(crate) fn busy_nanos(&self) -> u64 {
        self.busy_nanos.load(Ordering::Relaxed)
    }

    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Stamp "this executor is alive" — the worker loop, the heartbeater
    /// and injected stall spins call this.
    pub(crate) fn stamp_heartbeat(&self) {
        if !self.is_paused() {
            self.hb_nanos.store(self.now_nanos(), Ordering::Relaxed);
        }
    }

    /// Stamp a chunk-boundary progress tick (which is also a heartbeat).
    pub(crate) fn stamp_progress(&self) {
        if !self.is_paused() {
            self.progress.fetch_add(1, Ordering::Relaxed);
            self.hb_nanos.store(self.now_nanos(), Ordering::Relaxed);
        }
    }

    /// Time since the slot last stamped anything.
    fn heartbeat_age(&self) -> Duration {
        let last = self.hb_nanos.load(Ordering::Relaxed);
        Duration::from_nanos(self.now_nanos().saturating_sub(last))
    }

    /// Failure injection: suppress (or restore) all stamps from the slot.
    pub(crate) fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
    }

    pub(crate) fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Relaxed)
    }

    /// Whether placement may target the slot and its worker may steal:
    /// not quarantined, on probation, or mid-canary.
    pub(crate) fn is_healthy(&self) -> bool {
        self.state.load(Ordering::Relaxed) == STATE_HEALTHY
    }

    /// Drain the slot: placement and stealing skip it until probation
    /// opens, `probation_in` from now.
    pub(crate) fn quarantine(&self, probation_in: Duration) {
        let until = self
            .now_nanos()
            .saturating_add(probation_in.as_nanos() as u64);
        self.probation_until.store(until, Ordering::Relaxed);
        self.state.store(STATE_QUARANTINED, Ordering::Relaxed);
    }

    /// Re-admit the slot as fully healthy (its canary succeeded).
    pub(crate) fn mark_healthy(&self) {
        self.state.store(STATE_HEALTHY, Ordering::Relaxed);
    }

    /// Whether the quarantine canary is currently in flight.
    pub(crate) fn is_canary(&self) -> bool {
        self.state.load(Ordering::Relaxed) == STATE_CANARY
    }

    fn advance(&self, from: u8, to: u8) -> bool {
        let relaxed = Ordering::Relaxed;
        self.state
            .compare_exchange(from, to, relaxed, relaxed)
            .is_ok()
    }

    /// A canary attempt resolved without verdict (cancelled, or lost with
    /// its executor): re-open probation so the next placement can admit a
    /// fresh canary instead of leaving the slot stuck mid-trial.
    pub(crate) fn reopen_probation(&self) {
        self.advance(STATE_CANARY, STATE_PROBATION);
    }

    /// Whether the slot takes one more task placed on it: always when
    /// healthy, exactly once — the canary — when its quarantine deadline
    /// has passed (probation opens lazily, here), otherwise not.
    fn admits(&self) -> bool {
        if self.is_healthy() {
            return true;
        }
        if self.now_nanos() >= self.probation_until.load(Ordering::Relaxed) {
            self.advance(STATE_QUARANTINED, STATE_PROBATION);
        }
        self.advance(STATE_PROBATION, STATE_CANARY)
    }
}

/// The slot table: one [`ExecutorSlot`] per executor, shared between the
/// pool's threads (writers) and the driver loop (reader and quarantine
/// state machine).
pub(crate) struct HealthBoard {
    slots: Vec<ExecutorSlot>,
}

impl HealthBoard {
    pub(crate) fn new(num_executors: usize) -> Self {
        let origin = Instant::now();
        HealthBoard {
            slots: (0..num_executors)
                .map(|_| ExecutorSlot::new(origin))
                .collect(),
        }
    }

    pub(crate) fn slot(&self, executor: usize) -> &ExecutorSlot {
        &self.slots[executor]
    }

    pub(crate) fn slots(&self) -> &[ExecutorSlot] {
        &self.slots
    }

    /// Executors currently excluded from placement (quarantined, on
    /// probation, or mid-canary).
    pub(crate) fn quarantined_executors(&self) -> Vec<usize> {
        let unhealthy = |e: &usize| !self.slots[*e].is_healthy();
        (0..self.slots.len()).filter(unhealthy).collect()
    }

    /// Where a task placed on `home` actually goes. Healthy executors keep
    /// their placement; an executor on probation admits exactly one canary
    /// task; otherwise the next healthy slot takes the task. With every
    /// slot unhealthy the home placement stands — the system degrades to
    /// normal retry rather than deadlocking.
    pub(crate) fn place(&self, home: usize) -> usize {
        if self.slots[home].admits() {
            return home;
        }
        let n = self.slots.len();
        (1..n)
            .map(|off| (home + off) % n)
            .find(|&e| self.slots[e].is_healthy())
            .unwrap_or(home)
    }
}

/// Driver-local half of the quarantine state machine: per-executor
/// recent-outcome windows plus strike counts. The shared [`ExecutorSlot`]
/// carries only what workers must see (heartbeats, the placement state);
/// what only the driver reasons about lives here, unsynchronized.
#[derive(Default)]
pub(crate) struct QuarantineMonitor {
    /// Recent task outcomes per executor (`true` = success), bounded by
    /// [`QUARANTINE_WINDOW`].
    outcomes: Vec<VecDeque<bool>>,
    /// Times each executor has been quarantined; doubles (with jitter) its
    /// probation on every failed canary.
    strikes: Vec<usize>,
}

impl QuarantineMonitor {
    /// Benches `executor`: drains placement and stealing for a probation
    /// of the configured base doubled per prior strike (jittered
    /// deterministically from the backoff seed), and counts the
    /// quarantine.
    fn quarantine(&mut self, ctx: &SpangleContext, executor: usize) {
        let config = ctx.config();
        let probation = jittered_backoff(
            config.health.probation,
            config.health.probation.saturating_mul(64),
            self.strikes[executor],
            config.backoff.seed ^ splitmix64(executor as u64),
        );
        ctx.inner.pool.slot(executor).quarantine(probation);
        self.strikes[executor] += 1;
        self.outcomes[executor].clear();
        ctx.metrics().add(MetricField::ExecutorsQuarantined, 1);
    }

    /// Feeds one task outcome into the quarantine state machine: resolves
    /// an in-flight canary, or updates the executor's failure window and
    /// benches it when the recent rate crosses the threshold. Only genuine
    /// task faults (injected failures, panics) count against an executor —
    /// cancellations, kills, and fetch failures are the scheduler's (or a
    /// parent's) doing, and counting them would quarantine executors the
    /// driver itself disrupted.
    pub(crate) fn observe_task(
        &mut self,
        ctx: &SpangleContext,
        executor: usize,
        outcome: Result<(), &TaskError>,
    ) {
        let cfg = &ctx.config().health;
        if !cfg.enabled {
            return;
        }
        let n = ctx.num_executors();
        self.outcomes.resize_with(n, VecDeque::new);
        self.strikes.resize(n, 0);
        let slot = ctx.inner.pool.slot(executor);
        let fault = matches!(
            outcome,
            Err(TaskError::Injected) | Err(TaskError::Panicked(_))
        );
        if slot.is_canary() {
            match outcome {
                Ok(()) => {
                    // The canary came back clean: full re-admission.
                    ctx.inner.pool.readmit(executor);
                    self.outcomes[executor].clear();
                }
                Err(_) if fault => self.quarantine(ctx, executor),
                Err(_) => slot.reopen_probation(),
            }
            return;
        }
        if !fault && outcome.is_err() {
            return;
        }
        let window = &mut self.outcomes[executor];
        window.push_back(outcome.is_ok());
        while window.len() > QUARANTINE_WINDOW {
            window.pop_front();
        }
        if !fault || !slot.is_healthy() {
            return;
        }
        let samples = window.len();
        if samples < QUARANTINE_MIN_SAMPLES {
            return;
        }
        let failures = window.iter().filter(|&&ok| !ok).count();
        if failures as f64 / samples as f64 >= cfg.quarantine_threshold {
            self.quarantine(ctx, executor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_saturates_and_jitters_deterministically() {
        let cfg = RetryBackoffConfig {
            enabled: true,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(16),
            seed: 42,
        };
        let d0 = cfg.delay(1, 0, 3, 0);
        let d3 = cfg.delay(1, 0, 3, 3);
        let d9 = cfg.delay(1, 0, 3, 9);
        // Jitter keeps each delay in [raw/2, raw].
        assert!(d0 >= Duration::from_millis(1) && d0 <= Duration::from_millis(2));
        assert!(d3 >= Duration::from_millis(8) && d3 <= Duration::from_millis(16));
        assert!(
            d9 >= Duration::from_millis(8) && d9 <= Duration::from_millis(16),
            "capped"
        );
        // Deterministic for a fixed seed, different across partitions.
        assert_eq!(d3, cfg.delay(1, 0, 3, 3));
        let other = cfg.delay(1, 0, 4, 3);
        assert!(other >= Duration::from_millis(8) && other <= Duration::from_millis(16));
        // Disabled means zero everywhere.
        let off = RetryBackoffConfig {
            enabled: false,
            ..cfg
        };
        assert_eq!(off.delay(1, 0, 3, 3), Duration::ZERO);
    }

    fn ticks(slot: &ExecutorSlot) -> u64 {
        slot.progress.load(Ordering::Relaxed)
    }

    #[test]
    fn heartbeats_and_progress_stamp_and_pause() {
        let board = HealthBoard::new(2);
        let (a, b) = (board.slot(0), board.slot(1));
        a.stamp_heartbeat();
        assert!(a.heartbeat_age() < Duration::from_secs(1));
        assert_eq!(ticks(a), 0);
        a.stamp_progress();
        assert_eq!(ticks(a), 1);

        // Pausing suppresses both stamps, on that slot only.
        b.set_paused(true);
        b.stamp_progress();
        assert_eq!((ticks(b), b.is_paused(), a.is_paused()), (0, true, false));
    }

    /// A kill retires the incarnation and re-seats the slot: the running
    /// body is cancelled, the replacement is warming, un-paused, and
    /// freshly heard from — it must not look lost the moment it sits down.
    #[test]
    fn a_kill_reseats_the_slot_unpaused_with_a_fresh_heartbeat() {
        let board = HealthBoard::new(1);
        let slot = board.slot(0);
        let token = CancelToken::new();
        let (epoch, started) = slot.begin(Some(&token), true);
        assert_eq!((epoch, slot.steals(), slot.is_warming()), (0, 1, false));
        assert!(slot.executing().is_some_and(|run| run.token.same(&token)));
        slot.set_paused(true);

        assert_eq!(slot.kill(), 1);
        assert!(token.is_cancelled(), "the dead incarnation's body stops");
        assert!(!slot.is_paused(), "the pause died with the incarnation");
        assert!(slot.heartbeat_age() < Duration::from_secs(1));
        slot.stamp_progress();
        assert_eq!(ticks(slot), 1);

        // The dead incarnation's body returning does not warm the
        // replacement; the replacement's own first task does.
        slot.finish(epoch, started);
        assert!(slot.is_warming() && slot.executing().is_none());
        let (epoch, started) = slot.begin(None, false);
        slot.finish(epoch, started);
        assert_eq!((epoch, slot.is_warming()), (1, false));
    }

    #[test]
    fn quarantine_drains_placement_and_probation_admits_one_canary() {
        let board = HealthBoard::new(3);
        let slot = board.slot(1);
        assert_eq!(board.place(1), 1, "healthy executors keep their home");
        assert!(slot.is_healthy(), "and may steal");

        slot.quarantine(Duration::from_secs(60));
        assert_eq!(
            board.place(1),
            2,
            "quarantined home diverts to the next healthy slot"
        );
        assert!(!slot.is_healthy(), "a quarantined worker steals nothing");
        assert_eq!(board.quarantined_executors(), vec![1]);

        // Expired probation admits exactly one canary; the next placement
        // diverts again until the canary resolves.
        slot.quarantine(Duration::ZERO);
        assert_eq!(board.place(1), 1, "probation admits the canary");
        assert!(slot.is_canary());
        assert_eq!(board.place(1), 2, "only one canary at a time");
        assert!(!slot.is_healthy(), "nor does the slot steal mid-trial");

        // A canary lost without a verdict re-opens probation for another.
        slot.reopen_probation();
        assert_eq!((board.place(1), board.place(1)), (1, 2));

        slot.mark_healthy();
        assert_eq!(board.place(1), 1);
        assert!(slot.is_healthy() && board.quarantined_executors().is_empty());
    }

    #[test]
    fn all_unhealthy_placement_falls_back_to_home() {
        let board = HealthBoard::new(2);
        board.slot(0).quarantine(Duration::from_secs(60));
        board.slot(1).quarantine(Duration::from_secs(60));
        assert_eq!(board.place(0), 0, "no healthy slot: home placement stands");
    }

    #[test]
    fn loss_threshold_multiplies_interval_by_limit() {
        let cfg = HealthConfig {
            heartbeat_interval: Duration::from_millis(40),
            missed_heartbeat_limit: 10,
            ..HealthConfig::default()
        };
        assert_eq!(cfg.loss_threshold(), Duration::from_millis(400));
    }
}
