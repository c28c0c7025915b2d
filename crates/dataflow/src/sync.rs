//! Minimal synchronisation primitives over `std::sync`.
//!
//! The runtime used to depend on `parking_lot` (locks) and `crossbeam`
//! (channels, work-stealing deques). All of it is replaced here with thin
//! wrappers over the standard library so the workspace builds with no
//! external crates at all: the locks expose the `parking_lot`-style
//! non-poisoning API (a panicked holder does not wedge every later job —
//! lineage recomputation assumes the runtime's own state stays usable
//! after a task panic), the channel module re-exports the unbounded MPSC
//! channel under the same names the scheduler and executor pool were
//! written against (plus [`channel::MuxSender`], the tagged sender the
//! shared scheduler service multiplexes every job's events through),
//! [`StealQueues`] provides the executor pool's locality-aware
//! work-stealing FIFO queues, and [`Subscribers`] is the one-shot callback
//! list behind the shuffle service's event-driven completion
//! notifications.

use std::collections::VecDeque;
use std::sync::{LockResult, PoisonError};

/// Unwraps a poisoned lock into its inner guard: a panicking task must not
/// take the whole runtime's shared state down with it.
fn ignore_poison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A mutual-exclusion lock with the `parking_lot` calling convention:
/// `lock()` returns the guard directly and never observes poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a lock holding `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        ignore_poison(self.0.lock())
    }
}

/// A readers-writer lock with the `parking_lot` calling convention.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        ignore_poison(self.0.read())
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        ignore_poison(self.0.write())
    }
}

/// A condition variable paired with [`Mutex`] guards.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Blocks on the guard until notified.
    pub fn wait<'a, T>(&self, guard: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
        ignore_poison(self.0.wait(guard))
    }

    /// Wakes every waiting thread.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Unbounded MPSC channels under the names the runtime was written
/// against (previously `crossbeam::channel`).
pub mod channel {
    pub use std::sync::mpsc::{
        Receiver, RecvError, RecvTimeoutError, SendError, Sender, TryRecvError,
    };

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }

    /// A message labelled with the integer tag of its producer, for many
    /// logical streams multiplexed onto one shared channel (the scheduler
    /// service demultiplexes job events by tag).
    #[derive(Debug)]
    pub struct Tagged<T> {
        /// Producer tag stamped by the [`MuxSender`] (a job id, in the
        /// scheduler's case).
        pub tag: usize,
        /// The message itself.
        pub msg: T,
    }

    /// A sender that stamps a fixed tag on every message before putting it
    /// on a shared `Sender<Tagged<T>>`.
    ///
    /// Handing a `MuxSender` to a producer (an executor task, a shuffle
    /// subscription) lets it post into a multiplexed event loop without
    /// ever knowing — or being able to forge — whose stream it belongs to.
    pub struct MuxSender<T> {
        tag: usize,
        tx: Sender<Tagged<T>>,
    }

    // Manual impl: `T` itself need not be `Clone`.
    impl<T> Clone for MuxSender<T> {
        fn clone(&self) -> Self {
            MuxSender {
                tag: self.tag,
                tx: self.tx.clone(),
            }
        }
    }

    impl<T> MuxSender<T> {
        /// Wraps `tx`, stamping `tag` on every message sent through.
        pub fn new(tx: Sender<Tagged<T>>, tag: usize) -> Self {
            MuxSender { tag, tx }
        }

        /// The tag stamped on every message.
        pub fn tag(&self) -> usize {
            self.tag
        }

        /// Sends `msg` tagged with this sender's tag. Fails only when the
        /// receiving loop is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<Tagged<T>>> {
            self.tx.send(Tagged { tag: self.tag, msg })
        }
    }
}

/// What [`StealQueues::next`] hands a worker.
#[derive(Debug)]
pub enum Next<T> {
    /// An item from the worker's own queue.
    Local(T),
    /// The worker's own queue was empty; this item was stolen from the
    /// back of `victim`'s queue.
    Stolen {
        /// The stolen item.
        item: T,
        /// Queue index the item was taken from.
        victim: usize,
    },
    /// The queues are closed and fully drained; the worker should exit.
    Closed,
}

/// Pushing onto closed [`StealQueues`]; hands the rejected item back.
pub struct Closed<T>(pub T);

impl<T> std::fmt::Debug for Closed<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Closed(..)")
    }
}

struct QueuesState<T> {
    queues: Vec<VecDeque<T>>,
    closed: bool,
}

/// A fixed set of FIFO work queues with locality-aware stealing.
///
/// Each worker owns one queue and pops its front. A worker whose own
/// queue is empty steals one item from the *back* of the currently
/// longest sibling queue (its newest item, leaving the oldest to the
/// owner) — but only when that queue holds at least
/// [`StealQueues::MIN_STEAL_LEN`] items, so a victim that is merely
/// keeping up never loses the single task placed on it (the locality
/// guard: perfectly balanced loads see zero steals).
///
/// [`StealQueues::close`] stops accepting pushes and switches the steal
/// threshold to one, so already-queued items are drained exactly once —
/// each by its owner or by any still-live sibling — before workers see
/// [`Next::Closed`]. All queues share one lock; at executor-pool scale
/// (tens of workers, tasks that do real work) the lock is never the
/// bottleneck, and it makes pop/steal trivially race-free.
pub struct StealQueues<T> {
    state: Mutex<QueuesState<T>>,
    /// Signalled on push and on close.
    available: Condvar,
}

impl<T> StealQueues<T> {
    /// Minimum queue length a victim must have before it can be stolen
    /// from (while the queues are open).
    pub const MIN_STEAL_LEN: usize = 2;

    /// Creates `n` empty queues.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "at least one queue is required");
        StealQueues {
            state: Mutex::new(QueuesState {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Appends an item to `owner`'s queue, waking idle workers. Fails
    /// (returning the item) once the queues are closed.
    pub fn push(&self, owner: usize, item: T) -> Result<(), Closed<T>> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(Closed(item));
        }
        st.queues[owner].push_back(item);
        drop(st);
        self.available.notify_all();
        Ok(())
    }

    /// Blocks until an item is available for `worker` (own queue first,
    /// then the busiest stealable sibling) or the queues are closed and
    /// drained.
    pub fn next(&self, worker: usize) -> Next<T> {
        let mut st = self.state.lock();
        loop {
            if let Some(item) = st.queues[worker].pop_front() {
                return Next::Local(item);
            }
            let min_len = if st.closed { 1 } else { Self::MIN_STEAL_LEN };
            let victim = st
                .queues
                .iter()
                .enumerate()
                .filter(|(i, q)| *i != worker && q.len() >= min_len)
                .max_by_key(|(_, q)| q.len())
                .map(|(i, _)| i);
            if let Some(victim) = victim {
                let item = st.queues[victim]
                    .pop_back()
                    .expect("victim emptied while the queue lock was held");
                return Next::Stolen { item, victim };
            }
            if st.closed {
                return Next::Closed;
            }
            st = self.available.wait(st);
        }
    }

    /// Stops accepting pushes and wakes every worker so the queues drain.
    /// Idempotent.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Whether [`StealQueues::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

/// A drain-on-fire list of one-shot callbacks.
///
/// The shuffle service keeps one `Subscribers<bool>` per in-flight map
/// stage; completion fires `true`, abandonment fires `false`. The list is
/// meant to be *taken out* of whatever lock guards it (`std::mem::take`)
/// and fired after the lock is released, so callbacks may freely call back
/// into the guarded structure.
pub struct Subscribers<A>(Vec<Box<dyn FnOnce(A) + Send>>);

impl<A> Default for Subscribers<A> {
    fn default() -> Self {
        Subscribers(Vec::new())
    }
}

impl<A: Clone> Subscribers<A> {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one callback.
    pub fn push(&mut self, callback: Box<dyn FnOnce(A) + Send>) {
        self.0.push(callback);
    }

    /// Number of registered callbacks.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no callbacks are registered.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Invokes every callback with `arg`, consuming the list.
    pub fn fire(self, arg: A) {
        for callback in self.0 {
            callback(arg.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_a_panicked_holder() {
        let lock = Arc::new(Mutex::new(1u64));
        let l2 = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _guard = l2.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*lock.lock(), 1, "lock must stay usable after poisoning");
    }

    #[test]
    fn rwlock_allows_concurrent_readers() {
        let lock = RwLock::new(7u64);
        let a = lock.read();
        let b = lock.read();
        assert_eq!(*a + *b, 14);
    }

    #[test]
    fn channel_roundtrip() {
        let (tx, rx) = channel::unbounded();
        let tx2 = tx.clone();
        tx.send(1u64).unwrap();
        tx2.send(2u64).unwrap();
        assert_eq!(rx.recv().unwrap() + rx.recv().unwrap(), 3);
    }

    #[test]
    fn own_queue_is_served_fifo_before_stealing() {
        let q = StealQueues::new(2);
        q.push(0, 1u64).unwrap();
        q.push(0, 2).unwrap();
        q.push(1, 9).unwrap();
        assert!(matches!(q.next(0), Next::Local(1)));
        assert!(matches!(q.next(0), Next::Local(2)));
        assert!(matches!(q.next(1), Next::Local(9)));
    }

    #[test]
    fn idle_worker_steals_from_the_back_of_the_busiest_queue() {
        let q = StealQueues::new(3);
        q.push(0, 1u64).unwrap();
        q.push(0, 2).unwrap();
        q.push(0, 3).unwrap();
        q.push(1, 4).unwrap();
        // Worker 2 owns nothing; queue 0 (len 3) beats queue 1 (len 1,
        // below the steal threshold), and the steal comes from the back.
        match q.next(2) {
            Next::Stolen { item, victim } => {
                assert_eq!(item, 3);
                assert_eq!(victim, 0);
            }
            other => panic!("expected a steal, got {other:?}"),
        }
    }

    #[test]
    fn lone_items_are_never_stolen_while_open() {
        let q = Arc::new(StealQueues::new(2));
        q.push(0, 7u64).unwrap();
        // Worker 1 must not steal queue 0's only item; it blocks until its
        // own arrives.
        let t = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.next(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.push(1, 8).unwrap();
        assert!(matches!(t.join().unwrap(), Next::Local(8)));
        assert!(matches!(q.next(0), Next::Local(7)));
    }

    #[test]
    fn close_drains_every_item_exactly_once_even_lone_ones() {
        let q = StealQueues::new(2);
        q.push(0, 1u64).unwrap();
        q.push(1, 2).unwrap();
        q.close();
        assert!(q.push(0, 3).is_err(), "closed queues reject pushes");
        // After close the steal threshold drops to one: worker 1 drains
        // its own item and then steals worker 0's lone leftover.
        let mut seen = vec![];
        loop {
            match q.next(1) {
                Next::Local(v) => seen.push(v),
                Next::Stolen { item, .. } => seen.push(item),
                Next::Closed => break,
            }
        }
        seen.sort();
        assert_eq!(seen, vec![1, 2]);
        assert!(matches!(q.next(0), Next::Closed));
    }

    #[test]
    fn mux_sender_tags_every_message() {
        let (tx, rx) = channel::unbounded();
        let a = channel::MuxSender::new(tx.clone(), 7);
        let b = channel::MuxSender::new(tx, 9);
        let a2 = a.clone();
        assert_eq!(a.tag(), 7);
        assert_eq!(a2.tag(), 7);
        a.send("x").unwrap();
        b.send("y").unwrap();
        a2.send("z").unwrap();
        let got: Vec<(usize, &str)> = (0..3)
            .map(|_| rx.recv().map(|t| (t.tag, t.msg)).unwrap())
            .collect();
        assert_eq!(got, vec![(7, "x"), (9, "y"), (7, "z")]);
    }

    #[test]
    fn subscribers_fire_once_with_the_argument() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits = Arc::new(AtomicUsize::new(0));
        let mut subs = Subscribers::new();
        assert!(subs.is_empty());
        for _ in 0..3 {
            let hits = Arc::clone(&hits);
            subs.push(Box::new(move |ok: bool| {
                if ok {
                    hits.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        assert_eq!(subs.len(), 3);
        subs.fire(true);
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }
}
