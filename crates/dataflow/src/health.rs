//! The per-executor slot table: incarnations, the running task, busy
//! time and steals.
//!
//! Executors are worker threads of one process, so every failure the
//! driver acts on is announced: a body's panic or typed fetch failure, or
//! an explicit kill. A kill is what this table serves: it retires the
//! slot's incarnation and cancels the body the slot is running, through
//! the token the worker published when the body began.
//!
//! Everything in a slot but the running-task token is an atomic: the
//! worker updates it around every body.

use crate::executor::CancelToken;
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Everything the runtime knows about one executor, in one place (Spark's
/// `ExecutorData`): which incarnation sits in the slot, what it is running
/// and how much it has run. Written by the slot's worker thread and by
/// kills; read by the steal loop and the reports.
#[derive(Default)]
pub(crate) struct ExecutorSlot {
    /// Incarnation seated in the slot; bumped by [`ExecutorSlot::kill`].
    epoch: AtomicU64,
    /// Token of the task body the worker is running, if any: a kill
    /// cancels it so the dead incarnation's body stops at its next
    /// cancellation point.
    running: Mutex<Option<CancelToken>>,
    /// Nanoseconds spent inside task bodies.
    busy_nanos: AtomicU64,
    /// Tasks run here that were placed on a sibling.
    steals: AtomicU64,
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
        *self.running.lock() = token.cloned();
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
        if let Some(token) = self.running.lock().as_ref() {
            token.cancel();
        }
    }

    pub(crate) fn busy_nanos(&self) -> u64 {
        self.busy_nanos.load(Ordering::Relaxed)
    }

    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A kill retires the incarnation and re-seats the slot: the running
    /// body is cancelled, and the replacement runs under the new epoch.
    #[test]
    fn a_kill_reseats_the_slot_and_cancels_the_running_body() {
        let slot = ExecutorSlot::default();
        let token = CancelToken::new();
        let (epoch, started) = slot.begin(Some(&token), true);
        assert_eq!((epoch, slot.steals()), (0, 1));

        assert_eq!(slot.kill(), 1);
        assert!(token.is_cancelled(), "the dead incarnation's body stops");

        slot.finish(started);
        let (epoch, started) = slot.begin(None, false);
        slot.finish(started);
        assert_eq!(epoch, 1, "the replacement runs under the new epoch");
    }
}
