//! Autonomous failure detection: the per-executor slot table (incarnations,
//! the running task, progress ticks).
//!
//! Executors are worker threads of one process, so the one failure the
//! driver must notice on its own is a task that stops making progress.
//! Each worker publishes the task it runs in its `ExecutorSlot`, and task
//! bodies tick the slot's *progress* (a monotone per-executor counter) at
//! chunk boundaries through `cancellation_point`. The driver's watchdog
//! scan reads both back and declares a task wedged once its executor's
//! progress has not moved for a no-progress watchdog interval, then
//! launches a duplicate of it on another executor — first completion wins.
//!
//! Everything in a slot but the running-task handle is an atomic: stamping
//! sits on the task hot path and must cost no more than a TLS read and an
//! increment.

use crate::executor::{CancelToken, Executing};
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Everything the runtime knows about one executor, in one place (Spark's
/// `ExecutorData`): which incarnation sits in the slot, what it is running
/// and how much it has run. Written by the slot's worker thread,
/// chunk-boundary stamps from task bodies and kills; read by the steal
/// loop, the watchdog scan and the reports.
#[derive(Default)]
pub(crate) struct ExecutorSlot {
    /// Incarnation seated in the slot; bumped by [`ExecutorSlot::kill`].
    epoch: AtomicU64,
    /// Token of the task body the worker is running, if any, with the
    /// instant it started: a kill cancels it so the dead incarnation's
    /// body stops at its next cancellation point, and the watchdog
    /// measures *running* time from the stamp (queue time must not count
    /// as a frozen interval).
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
