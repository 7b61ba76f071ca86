//! The bounded ingest queue: admission control and backpressure for the
//! claim service.
//!
//! A plain two-condvar MPMC queue over a mutexed ring. The capacity bound
//! is the service's **admission-control invariant**: the queue never holds
//! more than `capacity` requests, so a producer always learns about
//! overload *at submit time* — either by blocking ([`IngestQueue::push`])
//! or by an immediate [`SubmitError::Full`] ([`IngestQueue::try_push`]) —
//! instead of the service buffering unboundedly and collapsing later.
//!
//! A consumer takes a **share** per lock acquisition:
//! [`pop`](IngestQueue::pop) moves the oldest `⌈depth / consumers⌉` queued
//! items into the caller's buffer, where `depth` is the queue length at the
//! pop and `consumers` the number of threads draining the queue. A consumer
//! that keeps up with its producers finds one item and takes one, while a
//! backlog is split about evenly, so `consumers` threads drain it in a few
//! acquisitions each instead of one per item. A consumer that cannot serve
//! the share it took hands it back to the front of the queue
//! (`readmit`, for the service's workers that die for good).
//!
//! A condvar is **notified only when a thread is parked on it**. The state
//! counts, under the mutex, the consumers parked in `pop` and the producers
//! parked in `push`; each parked thread raises its count before it waits
//! and lowers it after it wakes, so the count never reads below the number
//! of threads actually waiting, and a push or pop that sees zero has no one
//! to wake. The check is what saves the claim path its cost: std's condvar
//! makes a wake-up system call on every `notify_one`, whether or not a
//! thread is parked, and a busy service pushes and pops with nobody
//! waiting. A pop that frees `k` slots notifies up to `k` parked producers,
//! one per slot, so every producer a share makes room for is woken.
//! [`close`](IngestQueue::close) still wakes everyone.
//!
//! The queue is **poison-tolerant**: a worker that panics while holding
//! the lock (a chaos kill, a process bug) leaves the mutex poisoned but
//! the state itself consistent — it is a plain deque plus counters, with
//! no invariant ever spanning a panic point (a parked thread alone changes
//! its waiter count, under the lock, with no panic point between raising
//! and lowering it) — so every operation recovers the guard from
//! [`PoisonError`] instead of cascading the panic
//! into blocked producers as a deadlock-by-unwind.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Recovers the guard from a poisoned lock or condvar wait: the queue's
/// state holds no invariant across a panic point, so the poison flag is
/// noise here, not evidence of corruption (see the module docs).
fn recover<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Why a submission did not enter the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity (backpressure): retry, back off, or use
    /// the blocking [`IngestQueue::push`].
    Full,
    /// The queue was closed; no further submissions are accepted.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "queue full (backpressure)"),
            SubmitError::Closed => write!(f, "queue closed"),
        }
    }
}

/// A rejected submission: the item back, plus why.
#[derive(Debug)]
pub struct Rejected<T> {
    /// The item that did not enter the queue.
    pub item: T,
    /// The rejection reason.
    pub reason: SubmitError,
}

/// Counters describing what the queue saw over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items that entered the queue.
    pub accepted: u64,
    /// `try_push` attempts bounced with [`SubmitError::Full`].
    pub rejected_full: u64,
    /// Deepest the queue ever got: `≤ capacity`, unless a consumer put a
    /// share back into a queue that producers had refilled meanwhile.
    pub peak_depth: usize,
}

struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
    /// Consumers waiting on `not_empty` in [`IngestQueue::pop`].
    parked_consumers: usize,
    /// Producers waiting on `not_full` in [`IngestQueue::push`].
    parked_producers: usize,
}

/// A bounded blocking MPMC queue (see the module docs).
pub struct IngestQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> IngestQueue<T> {
    /// Creates a queue holding at most `capacity` queued items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(State {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
                stats: QueueStats::default(),
                parked_consumers: 0,
                parked_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking submit: enqueues `item`, or returns it with
    /// [`SubmitError::Full`] when the bound is hit (the backpressure
    /// signal) / [`SubmitError::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, item: T) -> Result<(), Rejected<T>> {
        let mut st = recover(self.state.lock());
        if st.closed {
            return Err(Rejected {
                item,
                reason: SubmitError::Closed,
            });
        }
        if st.buf.len() >= self.capacity {
            st.stats.rejected_full += 1;
            return Err(Rejected {
                item,
                reason: SubmitError::Full,
            });
        }
        st.buf.push_back(item);
        st.stats.accepted += 1;
        st.stats.peak_depth = st.stats.peak_depth.max(st.buf.len());
        if st.parked_consumers > 0 {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Blocking submit: waits while the queue is at capacity. Fails only
    /// when the queue is (or becomes, while waiting) closed.
    pub fn push(&self, item: T) -> Result<(), Rejected<T>> {
        let mut st = recover(self.state.lock());
        loop {
            if st.closed {
                return Err(Rejected {
                    item,
                    reason: SubmitError::Closed,
                });
            }
            if st.buf.len() < self.capacity {
                st.buf.push_back(item);
                st.stats.accepted += 1;
                st.stats.peak_depth = st.stats.peak_depth.max(st.buf.len());
                if st.parked_consumers > 0 {
                    self.not_empty.notify_one();
                }
                return Ok(());
            }
            st.parked_producers += 1;
            st = recover(self.not_full.wait(st));
            st.parked_producers -= 1;
        }
    }

    /// Blocking share consume: waits for an item, then moves the oldest
    /// `⌈depth / consumers⌉` queued items to the back of `into`, where
    /// `depth` is the queue length now and `consumers` the number of
    /// threads draining the queue. Returns `false` exactly when the queue
    /// is closed **and** drained — every accepted item is delivered to some
    /// consumer before the `false`s begin.
    ///
    /// # Panics
    ///
    /// Panics if `consumers` is zero.
    pub fn pop(&self, consumers: usize, into: &mut VecDeque<T>) -> bool {
        assert!(consumers > 0, "a share needs at least one consumer");
        let mut st = recover(self.state.lock());
        loop {
            if !st.buf.is_empty() {
                let share = st.buf.len().div_ceil(consumers);
                into.extend(st.buf.drain(..share));
                for _ in 0..share.min(st.parked_producers) {
                    self.not_full.notify_one();
                }
                return true;
            }
            if st.closed {
                return false;
            }
            st.parked_consumers += 1;
            st = recover(self.not_empty.wait(st));
            st.parked_consumers -= 1;
        }
    }

    /// Puts `share` back at the front of the queue, in order, ahead of
    /// everything queued since it was popped: the way out for a consumer
    /// that took a share it can no longer serve. The items were counted in
    /// [`QueueStats::accepted`] when they were admitted, so they are not
    /// counted again; they go back even into a closed queue (they are still
    /// owed) or a full one (they already held their slots), and wake up to
    /// `share.len()` parked consumers.
    pub(crate) fn readmit(&self, share: &mut VecDeque<T>) {
        let mut st = recover(self.state.lock());
        let k = share.len();
        while let Some(item) = share.pop_back() {
            st.buf.push_front(item);
        }
        st.stats.peak_depth = st.stats.peak_depth.max(st.buf.len());
        for _ in 0..k.min(st.parked_consumers) {
            self.not_empty.notify_one();
        }
    }

    /// Closes the queue: rejects future submissions, wakes every blocked
    /// producer and consumer. Already-accepted items remain poppable (the
    /// drain guarantee).
    pub fn close(&self) {
        let mut st = recover(self.state.lock());
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Lifetime counters (see [`QueueStats`]).
    pub fn stats(&self) -> QueueStats {
        recover(self.state.lock()).stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::within_watchdog;
    use std::sync::Arc;

    /// One share of a queue drained by `consumers` threads, or `None` once
    /// the queue is closed and drained.
    fn share<T>(q: &IngestQueue<T>, consumers: usize) -> Option<Vec<T>> {
        let mut into = VecDeque::new();
        q.pop(consumers, &mut into).then(|| into.into())
    }

    /// Spins (yielding, never sleeping) until `count` reads `target`.
    fn wait_parked<T>(q: &IngestQueue<T>, count: impl Fn(&State<T>) -> usize, target: usize) {
        while count(&*recover(q.state.lock())) < target {
            std::thread::yield_now();
        }
    }

    #[test]
    fn bounded_try_push_signals_backpressure() {
        let q = IngestQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let rej = q.try_push(3).unwrap_err();
        assert_eq!(rej.reason, SubmitError::Full);
        assert_eq!(rej.item, 3);
        let stats = q.stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected_full, 1);
        assert_eq!(stats.peak_depth, 2);
    }

    #[test]
    fn a_share_is_the_oldest_ceil_depth_over_consumers() {
        within_watchdog(|| {
            let q = IngestQueue::new(8);
            for item in 1..=7 {
                q.try_push(item).unwrap();
            }
            assert_eq!(share(&q, 2), Some(vec![1, 2, 3, 4]), "⌈7/2⌉ = 4");
            assert_eq!(share(&q, 3), Some(vec![5]), "⌈3/3⌉ = 1");
            let mut into = VecDeque::from([0]);
            assert!(q.pop(1, &mut into));
            assert_eq!(into, [0, 6, 7], "a share goes to the back of the buffer");
        });
    }

    #[test]
    fn close_drains_then_ends() {
        within_watchdog(|| {
            let q = IngestQueue::new(8);
            for item in 10..15 {
                q.try_push(item).unwrap();
            }
            q.close();
            assert_eq!(
                q.try_push(15).unwrap_err().reason,
                SubmitError::Closed,
                "closed queue admits nothing"
            );
            assert_eq!(
                share(&q, 2),
                Some(vec![10, 11, 12]),
                "accepted items survive the close"
            );
            assert_eq!(share(&q, 2), Some(vec![13]));
            assert_eq!(share(&q, 2), Some(vec![14]));
            assert_eq!(share(&q, 2), None);
        });
    }

    #[test]
    fn blocking_push_waits_for_room() {
        let q = Arc::new(IngestQueue::new(1));
        q.try_push(1u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2).is_ok())
        };
        // The producer is blocked on the full queue until we pop.
        assert_eq!(share(&q, 2), Some(vec![1]));
        assert!(producer.join().unwrap());
        assert_eq!(share(&q, 2), Some(vec![2]));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(IngestQueue::<u32>::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || share(&q, 2))
        };
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = IngestQueue::<u32>::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one consumer")]
    fn zero_consumers_rejected() {
        let q = IngestQueue::new(1);
        q.try_push(1u32).unwrap();
        let _ = share(&q, 0);
    }

    /// Regression for the panic-safety audit: a worker dying mid-drain
    /// while holding the queue lock poisons the mutex, but the state is
    /// still consistent — every operation (including the drain guarantee)
    /// must keep working instead of deadlocking blocked pushers with a
    /// cascading poison panic.
    #[test]
    fn poisoned_lock_does_not_deadlock_the_queue() {
        let q = Arc::new(IngestQueue::new(4));
        q.try_push(1u32).unwrap();
        let dying_worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.state.lock().unwrap();
                panic!("worker killed mid-drain");
            })
        };
        assert!(dying_worker.join().is_err(), "the worker really died");
        // The mutex is now poisoned; everything must still work.
        assert_eq!(share(&q, 1), Some(vec![1]));
        q.push(2).unwrap();
        q.try_push(3).unwrap();
        assert_eq!(q.stats().accepted, 3);
        q.close();
        assert_eq!(
            share(&q, 2),
            Some(vec![2]),
            "drain guarantee survives the poison"
        );
        assert_eq!(share(&q, 2), Some(vec![3]));
        assert_eq!(share(&q, 2), None);
    }

    /// Two pushes must wake both parked consumers, not one: each push
    /// finds a consumer still counted as parked and notifies.
    #[test]
    fn every_parked_consumer_is_woken() {
        within_watchdog(|| {
            let q = Arc::new(IngestQueue::new(4));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || share(&q, 2))
                })
                .collect();
            wait_parked(&q, |st| st.parked_consumers, 2);
            q.try_push(1u32).unwrap();
            q.try_push(2).unwrap();
            let mut got: Vec<_> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, [Some(vec![1]), Some(vec![2])]);
        });
    }

    /// A share pop that frees two slots must wake both producers parked on
    /// the full queue, not one.
    #[test]
    fn a_share_pop_wakes_every_producer_it_frees_room_for() {
        within_watchdog(|| {
            let q = Arc::new(IngestQueue::new(4));
            for item in 0..4u32 {
                q.try_push(item).unwrap();
            }
            let producers: Vec<_> = (4..6)
                .map(|item| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || q.push(item).is_ok())
                })
                .collect();
            wait_parked(&q, |st| st.parked_producers, 2);
            assert_eq!(share(&q, 2), Some(vec![0, 1]), "⌈4/2⌉ = 2 slots freed");
            for p in producers {
                assert!(p.join().unwrap(), "a parked producer got through");
            }
            let mut rest = share(&q, 1).expect("four items queued");
            rest[2..].sort_unstable();
            assert_eq!(rest, [2, 3, 4, 5]);
        });
    }

    /// A share put back goes ahead of everything queued since, is not
    /// counted as a second admission, and wakes a parked consumer.
    #[test]
    fn a_readmitted_share_goes_back_to_the_front() {
        within_watchdog(|| {
            let q = Arc::new(IngestQueue::new(4));
            for item in 1..=4u32 {
                q.try_push(item).unwrap();
            }
            let mut held: VecDeque<u32> = share(&q, 2).expect("queued").into();
            q.try_push(5).unwrap();
            q.try_push(6).unwrap();
            q.readmit(&mut held);
            assert!(held.is_empty());
            let stats = q.stats();
            assert_eq!(stats.accepted, 6, "a re-admission is no admission");
            assert_eq!(stats.peak_depth, 6, "the share went back into a full queue");
            assert_eq!(share(&q, 1), Some(vec![1, 2, 3, 4, 5, 6]));

            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || share(&q, 2))
            };
            wait_parked(&q, |st| st.parked_consumers, 1);
            q.readmit(&mut VecDeque::from([7]));
            assert_eq!(consumer.join().unwrap(), Some(vec![7]));
            q.close();
            q.readmit(&mut VecDeque::from([8]));
            assert_eq!(share(&q, 2), Some(vec![8]), "still owed after the close");
            assert_eq!(share(&q, 2), None);
        });
    }

    /// Blocking producers and consumers on a one-slot queue, so nearly
    /// every operation parks or wakes someone: every item must come out
    /// exactly once, and nobody may stay parked.
    #[test]
    fn parked_producers_and_consumers_never_lose_a_wake_up() {
        const ITEMS: u32 = 20_000;
        const PRODUCERS: u32 = 3;
        within_watchdog(|| {
            let q = Arc::new(IngestQueue::new(1));
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for item in (p..ITEMS).step_by(PRODUCERS as usize) {
                            q.push(item).unwrap();
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        std::iter::from_fn(|| share(&q, 2))
                            .flatten()
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            let mut got: Vec<u32> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            got.sort_unstable();
            assert!(got.iter().copied().eq(0..ITEMS), "every item exactly once");
            assert_eq!(q.stats().peak_depth, 1);
        });
    }
}
