//! Autonomous failure detection: heartbeats, progress ticks, the
//! quarantine placement mask, and seeded retry backoff.
//!
//! The `HealthBoard` is the shared blackboard between the executor pool
//! and the scheduler's driver loop. A pool-owned *heartbeater* thread
//! stamps every executor's heartbeat (an executor-is-alive timestamp)
//! each half-interval — heartbeats model the dedicated reporter a remote
//! executor process would run, so silence means the executor is *gone*,
//! never merely busy in a long compute kernel. Workers additionally stamp
//! at their loop points (task pop, task completion) and tick *progress*
//! (a monotone per-executor counter) at chunk boundaries through
//! `cancellation_point`. The driver reads the ages back to declare an
//! executor lost after `missed_heartbeat_limit` silent intervals and a
//! task wedged after a no-progress watchdog interval, then routes into
//! the existing recovery paths (kill + lineage recompute, or a
//! speculation-style duplicate) — detection is new, recovery semantics
//! are not.
//!
//! The board also owns the *placement mask* for quarantine: an executor
//! whose recent task-failure rate crosses the threshold is drained
//! (placement and stealing skip it) and re-admitted through probation
//! with a single canary task. Everything on the board is a relaxed
//! atomic: stamping sits on the task hot path and must cost no more than
//! a TLS read and a store.

use crate::context::SpangleContext;
use crate::metrics::MetricField;
use crate::scheduler::TaskError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Placement states of one executor slot, kept in the board's mask.
/// `Healthy` is the only state placement targets; `Probation` admits
/// exactly one canary task (CAS to `Canary`); `Quarantined` flips to
/// `Probation` lazily once its deadline passes.
pub(crate) const STATE_HEALTHY: u8 = 0;
pub(crate) const STATE_QUARANTINED: u8 = 1;
pub(crate) const STATE_PROBATION: u8 = 2;
pub(crate) const STATE_CANARY: u8 = 3;

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
    /// Minimum recent outcomes observed on an executor before its failure
    /// rate is judged at all.
    pub quarantine_min_samples: usize,
    /// How many recent task outcomes per executor feed the failure rate.
    pub quarantine_window: usize,
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
            quarantine_min_samples: 5,
            quarantine_window: 20,
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

/// One executor's health slot plus the quarantine placement mask, shared
/// between the pool's workers (writers) and the driver loop (reader and
/// state machine).
pub(crate) struct HealthBoard {
    /// Board creation; heartbeat timestamps are nanos since this.
    epoch: Instant,
    /// Last heartbeat per executor, nanos since `epoch`.
    hb_nanos: Vec<AtomicU64>,
    /// Monotone chunk-boundary tick counter per executor.
    progress: Vec<AtomicU64>,
    /// Failure injection: a paused executor's stamps are suppressed, so
    /// it looks silent to the monitor while actually running.
    paused: Vec<AtomicBool>,
    /// Placement mask (`STATE_*`).
    state: Vec<AtomicU8>,
    /// When a quarantined executor's probation opens, nanos since `epoch`.
    probation_until: Vec<AtomicU64>,
}

impl HealthBoard {
    pub(crate) fn new(num_executors: usize) -> Self {
        let slot = |_| AtomicU64::new(0);
        HealthBoard {
            epoch: Instant::now(),
            hb_nanos: (0..num_executors).map(slot).collect(),
            progress: (0..num_executors).map(slot).collect(),
            paused: (0..num_executors).map(|_| AtomicBool::new(false)).collect(),
            state: (0..num_executors)
                .map(|_| AtomicU8::new(STATE_HEALTHY))
                .collect(),
            probation_until: (0..num_executors).map(slot).collect(),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stamp "executor `e` is alive" — worker loop points and injected
    /// stall spins call this.
    pub(crate) fn stamp_heartbeat(&self, executor: usize) {
        if self.paused[executor].load(Ordering::Relaxed) {
            return;
        }
        self.hb_nanos[executor].store(self.now_nanos(), Ordering::Relaxed);
    }

    /// Stamp a chunk-boundary progress tick (which is also a heartbeat).
    pub(crate) fn stamp_progress(&self, executor: usize) {
        if self.paused[executor].load(Ordering::Relaxed) {
            return;
        }
        self.progress[executor].fetch_add(1, Ordering::Relaxed);
        self.hb_nanos[executor].store(self.now_nanos(), Ordering::Relaxed);
    }

    /// Time since executor `e` last stamped anything.
    pub(crate) fn heartbeat_age(&self, executor: usize) -> Duration {
        let last = self.hb_nanos[executor].load(Ordering::Relaxed);
        Duration::from_nanos(self.now_nanos().saturating_sub(last))
    }

    /// Current progress-tick count of executor `e`.
    pub(crate) fn progress_value(&self, executor: usize) -> u64 {
        self.progress[executor].load(Ordering::Relaxed)
    }

    /// Failure injection: suppress (or restore) all stamps from `e`.
    pub(crate) fn set_paused(&self, executor: usize, paused: bool) {
        self.paused[executor].store(paused, Ordering::Relaxed);
    }

    pub(crate) fn any_paused(&self) -> bool {
        self.paused.iter().any(|p| p.load(Ordering::Relaxed))
    }

    /// Reset slot `e` after a kill: the replacement incarnation starts
    /// with a fresh heartbeat (so it is not instantly re-declared lost)
    /// and any pause injection dies with the old incarnation.
    pub(crate) fn reset_after_kill(&self, executor: usize) {
        self.paused[executor].store(false, Ordering::Relaxed);
        self.hb_nanos[executor].store(self.now_nanos(), Ordering::Relaxed);
    }

    pub(crate) fn state(&self, executor: usize) -> u8 {
        self.state[executor].load(Ordering::Relaxed)
    }

    /// Drain `e`: placement and stealing skip it until probation.
    pub(crate) fn quarantine(&self, executor: usize, probation_in: Duration) {
        self.probation_until[executor].store(
            self.now_nanos()
                .saturating_add(probation_in.as_nanos() as u64),
            Ordering::Relaxed,
        );
        self.state[executor].store(STATE_QUARANTINED, Ordering::Relaxed);
    }

    /// Re-admit `e` as fully healthy (a canary task succeeded).
    pub(crate) fn mark_healthy(&self, executor: usize) {
        self.state[executor].store(STATE_HEALTHY, Ordering::Relaxed);
    }

    /// Executors currently excluded from placement (quarantined, on
    /// probation, or mid-canary).
    pub(crate) fn quarantined_executors(&self) -> Vec<usize> {
        (0..self.state.len())
            .filter(|&e| self.state(e) != STATE_HEALTHY)
            .collect()
    }

    /// Whether the quarantine canary for `e` is currently in flight.
    pub(crate) fn is_canary(&self, executor: usize) -> bool {
        self.state(executor) == STATE_CANARY
    }

    /// A canary attempt resolved without verdict (cancelled, or lost with
    /// its executor): re-open probation so the next placement can admit a
    /// fresh canary instead of leaving the slot stuck mid-trial.
    pub(crate) fn reopen_probation(&self, executor: usize) {
        let _ = self.state[executor].compare_exchange(
            STATE_CANARY,
            STATE_PROBATION,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Lazily open probation once a quarantine deadline passes.
    fn maybe_open_probation(&self, executor: usize) {
        if self.state(executor) == STATE_QUARANTINED
            && self.now_nanos() >= self.probation_until[executor].load(Ordering::Relaxed)
        {
            let _ = self.state[executor].compare_exchange(
                STATE_QUARANTINED,
                STATE_PROBATION,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Where a task placed on `home` actually goes. Healthy executors keep
    /// their placement; an executor on probation admits exactly one canary
    /// task (CAS `Probation -> Canary`); otherwise the next healthy slot
    /// takes the task. With every slot unhealthy the home placement stands
    /// — the system degrades to normal retry rather than deadlocking.
    pub(crate) fn place(&self, home: usize) -> usize {
        let n = self.state.len();
        self.maybe_open_probation(home);
        match self.state(home) {
            STATE_HEALTHY => return home,
            STATE_PROBATION
                if self.state[home]
                    .compare_exchange(
                        STATE_PROBATION,
                        STATE_CANARY,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok() =>
            {
                return home;
            }
            _ => {}
        }
        for off in 1..n {
            let e = (home + off) % n;
            if self.state(e) == STATE_HEALTHY {
                return e;
            }
        }
        home
    }
}

/// Driver-local half of the quarantine state machine: per-executor
/// recent-outcome windows plus strike counts. The shared [`HealthBoard`]
/// carries only what workers must see (heartbeats, the placement mask);
/// what only the driver reasons about lives here, unsynchronized.
#[derive(Default)]
pub(crate) struct QuarantineMonitor {
    /// Recent task outcomes per executor (`true` = success), bounded by
    /// the configured quarantine window.
    outcomes: Vec<VecDeque<bool>>,
    /// Times each executor has been quarantined; doubles (with jitter) its
    /// probation on every failed canary.
    strikes: Vec<usize>,
}

impl QuarantineMonitor {
    /// Benches `executor`: drains placement to it for a probation of the
    /// configured base doubled per prior strike (jittered
    /// deterministically from the backoff seed), bans it from stealing,
    /// and counts the quarantine.
    fn quarantine(&mut self, ctx: &SpangleContext, board: &HealthBoard, executor: usize) {
        let cfg = &ctx.inner.health;
        let probation = jittered_backoff(
            cfg.probation,
            cfg.probation.saturating_mul(64),
            self.strikes[executor],
            ctx.inner.backoff.seed ^ splitmix64(executor as u64),
        );
        board.quarantine(executor, probation);
        ctx.inner.pool.set_steal_ban(executor, true);
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
        let cfg = &ctx.inner.health;
        if !cfg.enabled {
            return;
        }
        let n = ctx.num_executors();
        self.outcomes.resize_with(n, VecDeque::new);
        self.strikes.resize(n, 0);
        let board = ctx.inner.pool.health_board();
        let fault = matches!(
            outcome,
            Err(TaskError::Injected) | Err(TaskError::Panicked(_))
        );
        if board.is_canary(executor) {
            match outcome {
                Ok(()) => {
                    // The canary came back clean: full re-admission.
                    board.mark_healthy(executor);
                    ctx.inner.pool.set_steal_ban(executor, false);
                    self.outcomes[executor].clear();
                }
                Err(_) if fault => self.quarantine(ctx, &board, executor),
                Err(_) => board.reopen_probation(executor),
            }
            return;
        }
        if !fault && outcome.is_err() {
            return;
        }
        let window = &mut self.outcomes[executor];
        window.push_back(outcome.is_ok());
        while window.len() > cfg.quarantine_window {
            window.pop_front();
        }
        if !fault || board.state(executor) != STATE_HEALTHY {
            return;
        }
        let samples = window.len();
        if samples < cfg.quarantine_min_samples {
            return;
        }
        let failures = window.iter().filter(|&&ok| !ok).count();
        if failures as f64 / samples as f64 >= cfg.quarantine_threshold {
            self.quarantine(ctx, &board, executor);
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

    #[test]
    fn heartbeats_and_progress_stamp_and_pause() {
        let board = HealthBoard::new(2);
        board.stamp_heartbeat(0);
        assert!(board.heartbeat_age(0) < Duration::from_secs(1));
        assert_eq!(board.progress_value(0), 0);
        board.stamp_progress(0);
        assert_eq!(board.progress_value(0), 1);

        // Pausing suppresses both stamps; a kill reset lifts the pause.
        board.set_paused(1, true);
        assert!(board.any_paused());
        board.stamp_progress(1);
        assert_eq!(board.progress_value(1), 0);
        board.reset_after_kill(1);
        assert!(!board.any_paused());
        assert!(board.heartbeat_age(1) < Duration::from_secs(1));
        board.stamp_progress(1);
        assert_eq!(board.progress_value(1), 1);
    }

    #[test]
    fn quarantine_drains_placement_and_probation_admits_one_canary() {
        let board = HealthBoard::new(3);
        assert_eq!(board.place(1), 1, "healthy executors keep their home");

        board.quarantine(1, Duration::from_secs(60));
        assert_eq!(
            board.place(1),
            2,
            "quarantined home diverts to the next healthy slot"
        );
        assert_eq!(board.quarantined_executors(), vec![1]);

        // Expired probation admits exactly one canary; the next placement
        // diverts again until the canary resolves.
        board.quarantine(1, Duration::ZERO);
        assert_eq!(board.place(1), 1, "probation admits the canary");
        assert!(board.is_canary(1));
        assert_eq!(board.place(1), 2, "only one canary at a time");

        board.mark_healthy(1);
        assert_eq!(board.place(1), 1);
        assert!(board.quarantined_executors().is_empty());
    }

    #[test]
    fn all_unhealthy_placement_falls_back_to_home() {
        let board = HealthBoard::new(2);
        board.quarantine(0, Duration::from_secs(60));
        board.quarantine(1, Duration::from_secs(60));
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
