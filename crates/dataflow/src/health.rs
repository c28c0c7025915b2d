//! Autonomous failure detection: the per-executor slot table (incarnations,
//! the running task, progress ticks) and seeded retry backoff.
//!
//! Executors are worker threads of one process, so the one failure the
//! driver must notice on its own is a task that stops making progress.
//! Each worker publishes the task it runs in its `ExecutorSlot`, and task
//! bodies tick the slot's *progress* (a monotone per-executor counter) at
//! chunk boundaries through `cancellation_point`. The driver's straggler
//! scan reads both back and declares a task wedged once its executor's
//! progress has not moved for a no-progress watchdog interval, then routes
//! into the existing recovery path (a speculation-style duplicate) —
//! detection is new, recovery semantics are not.
//!
//! Everything in a slot but the running-task handle is an atomic: stamping
//! sits on the task hot path and must cost no more than a TLS read and an
//! increment.

use crate::executor::{CancelToken, Executing};
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// When the driver declares a running task wedged; configured through
/// [`crate::SpangleContextBuilder`], the interval default overridable with
/// `SPANGLE_WATCHDOG_MS`.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Master switch for the no-progress watchdog. Off restores
    /// announced-failures-only behavior.
    pub enabled: bool,
    /// A running task whose executor's progress counter has not moved for
    /// this long is declared wedged and duplicated through the speculation
    /// path.
    pub watchdog_interval: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        // Progress is body-driven, so the margin must clear long compute
        // kernels: 10 s. The `health` CI step tightens it via env; a
        // malformed value warns once and the default stands.
        let watchdog =
            crate::env::env_parse::<u64>("SPANGLE_WATCHDOG_MS").map(Duration::from_millis);
        HealthConfig {
            enabled: true,
            watchdog_interval: watchdog.unwrap_or(Duration::from_secs(10)),
        }
    }
}

/// Seeded, deterministic exponential backoff with jitter, applied to every
/// retry path: task retries and executor-loss/fetch-failure resubmissions.
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
fn splitmix64(mut x: u64) -> u64 {
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
/// `ExecutorData`): which incarnation sits in the slot, what it is running
/// and how much it has run. Written by the slot's worker thread,
/// chunk-boundary stamps from task bodies and kills; read by the steal
/// loop, the straggler scan and the reports.
#[derive(Default)]
pub(crate) struct ExecutorSlot {
    /// Incarnation seated in the slot; bumped by [`ExecutorSlot::kill`].
    epoch: AtomicU64,
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
    /// Monotone chunk-boundary tick counter.
    progress: AtomicU64,
}

impl ExecutorSlot {
    /// Current incarnation (0 until the slot's first kill).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The worker is about to run a task body: counts a steal and
    /// publishes the body's token so a kill or shutdown can reach it.
    /// Returns the incarnation the task runs under and when it started.
    pub(crate) fn begin(&self, token: Option<&CancelToken>, stolen: bool) -> (u64, Instant) {
        let epoch = self.epoch();
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        let started = Instant::now();
        *self.running.lock() = token.map(|t| (t.clone(), started));
        (epoch, started)
    }

    /// The body [`ExecutorSlot::begin`] announced returned (or unwound).
    pub(crate) fn finish(&self, started: Instant) {
        *self.running.lock() = None;
        let nanos = started.elapsed().as_nanos() as u64;
        self.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Retires the current incarnation and seats a replacement, returning
    /// its epoch. The body the dead incarnation was running is cancelled
    /// through its token.
    pub(crate) fn kill(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.cancel_running();
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
        })
    }

    pub(crate) fn busy_nanos(&self) -> u64 {
        self.busy_nanos.load(Ordering::Relaxed)
    }

    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Stamp a chunk-boundary progress tick.
    pub(crate) fn stamp_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
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

    /// A kill retires the incarnation and re-seats the slot: the running
    /// body is cancelled, and the replacement runs under the new epoch and
    /// keeps ticking progress on the same counter.
    #[test]
    fn a_kill_reseats_the_slot_and_cancels_the_running_body() {
        let slot = ExecutorSlot::default();
        let token = CancelToken::new();
        let (epoch, started) = slot.begin(Some(&token), true);
        assert_eq!((epoch, slot.steals()), (0, 1));
        assert!(slot.executing().is_some_and(|run| run.token.same(&token)));
        slot.stamp_progress();
        assert_eq!(slot.executing().map(|run| run.progress), Some(1));

        assert_eq!(slot.kill(), 1);
        assert!(token.is_cancelled(), "the dead incarnation's body stops");
        slot.stamp_progress();
        assert_eq!(ticks(&slot), 2);

        slot.finish(started);
        assert!(slot.executing().is_none());
        let (epoch, started) = slot.begin(None, false);
        slot.finish(started);
        assert_eq!(epoch, 1, "the replacement runs under the new epoch");
    }
}
