//! Readiness interface over in-process transports.
//!
//! In-process channels have no OS-pollable file descriptor, so a reactor
//! built on them needs its own wakeup plumbing: this module provides it.
//! A [`Poller`] owns a set of *tokens* (small integers — stream ids, shard
//! indices, whatever the caller multiplexes). Each token has a cheap,
//! cloneable [`Waker`] handle; calling [`Waker::wake`] marks the token
//! ready and rouses any thread blocked in [`Poller::poll`] /
//! [`Poller::poll_one`]. The intended wiring is *wake-on-send*: the sending
//! side of a channel wakes the receiving side's token right after every
//! send, so one thread can sleep on a single condition variable while
//! servicing thousands of mostly-idle endpoints — instead of spinning
//! `try_recv` across all of them or parking one OS thread per endpoint in
//! `recv_timeout`.
//!
//! The `shadowtutor` crate's server pool wires its stream-tagged uplinks
//! and downlinks this way.
//!
//! Readiness is *edge-ish*: a token is queued at most once until it is
//! returned by a poll, so a burst of sends costs one dispatch. Consumers
//! must therefore drain their channel completely when dispatched (the
//! standard readiness contract), or re-arm the token themselves with
//! [`Waker::wake`] when they stop early.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

// The sync facade: std's Mutex/Condvar in normal builds, the instrumented
// model-checking primitives under `--features model-check` (see the
// `st_check` crate). Production code is identical either way.
use st_check::sync::{Condvar, Mutex};

/// The readiness queue shared by a [`Poller`] and its [`Waker`]s.
struct PollShared {
    state: Mutex<PollState>,
    cond: Condvar,
}

struct PollState {
    /// Ready tokens in wake order (each at most once).
    queued: Vec<usize>,
    /// Membership set deduplicating `queued`.
    member: HashSet<usize>,
    /// Total [`Waker::wake`] calls that actually queued a token.
    wakeups: u64,
    /// Closed pollers return immediately from every poll.
    closed: bool,
}

/// A blocking readiness selector over wakeup tokens.
///
/// One `Poller` serves any number of producer-side [`Waker`]s and any
/// number of consumer threads (a single driver loop calling [`poll`], or a
/// fixed worker set each calling [`poll_one`]).
///
/// [`poll`]: Poller::poll
/// [`poll_one`]: Poller::poll_one
pub struct Poller {
    shared: Arc<PollShared>,
}

/// A cheap, cloneable handle that marks one token ready on its [`Poller`].
///
/// Send one to the producer side of a channel and call [`wake`](Waker::wake)
/// after every send.
#[derive(Clone)]
pub struct Waker {
    shared: Arc<PollShared>,
    token: usize,
}

/// One batch of ready tokens drained from a [`Poller::poll`] call, in wake
/// order, each token at most once.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReadySet {
    tokens: Vec<usize>,
}

impl ReadySet {
    /// The ready tokens in wake order.
    pub fn tokens(&self) -> &[usize] {
        &self.tokens
    }

    /// Number of ready tokens in the batch.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the batch is empty (the poll timed out or the poller closed).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Whether `token` is in the batch.
    pub fn contains(&self, token: usize) -> bool {
        self.tokens.contains(&token)
    }
}

impl IntoIterator for ReadySet {
    type Item = usize;
    type IntoIter = std::vec::IntoIter<usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.tokens.into_iter()
    }
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

impl Poller {
    /// A poller with no ready tokens.
    pub fn new() -> Self {
        Poller {
            shared: Arc::new(PollShared {
                state: Mutex::new(PollState {
                    queued: Vec::new(),
                    member: HashSet::new(),
                    wakeups: 0,
                    closed: false,
                }),
                cond: Condvar::new(),
            }),
        }
    }

    /// A waker that marks `token` ready on this poller.
    pub fn waker(&self, token: usize) -> Waker {
        Waker {
            shared: Arc::clone(&self.shared),
            token,
        }
    }

    /// Block until at least one token is ready (or `timeout` passes, or the
    /// poller is closed) and drain the whole ready batch.
    ///
    /// An empty [`ReadySet`] means timeout or closure, never a spurious
    /// wakeup.
    pub fn poll(&self, timeout: Duration) -> ReadySet {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("poller lock");
        loop {
            if !state.queued.is_empty() {
                state.member.clear();
                return ReadySet {
                    tokens: std::mem::take(&mut state.queued),
                };
            }
            if state.closed {
                return ReadySet::default();
            }
            let now = Instant::now();
            if now >= deadline {
                return ReadySet::default();
            }
            let (next, timed_out) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .expect("poller lock");
            state = next;
            if timed_out.timed_out() && state.queued.is_empty() {
                return ReadySet::default();
            }
        }
    }

    /// Block until one token is ready and take just that token, leaving the
    /// rest queued for other consumer threads.
    ///
    /// This is the fixed-worker-set entry point: each worker takes one ready
    /// token, services it, and comes back, so concurrent readiness spreads
    /// across the set instead of being drained by whichever thread polled
    /// first. Returns `None` on timeout or closure.
    pub fn poll_one(&self, timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("poller lock");
        loop {
            if !state.queued.is_empty() {
                let token = state.queued.remove(0);
                state.member.remove(&token);
                return Some(token);
            }
            if state.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, timed_out) = self
                .shared
                .cond
                .wait_timeout(state, deadline - now)
                .expect("poller lock");
            state = next;
            if timed_out.timed_out() && state.queued.is_empty() {
                return None;
            }
        }
    }

    /// Total wake calls that queued a not-already-ready token so far.
    pub fn wakeups(&self) -> u64 {
        self.shared.state.lock().expect("poller lock").wakeups
    }

    /// Close the poller: every blocked and future poll returns empty
    /// immediately. Used for shutdown — consumer loops exit when a poll
    /// comes back empty and their work is done.
    pub fn close(&self) {
        let mut state = self.shared.state.lock().expect("poller lock");
        state.closed = true;
        self.shared.cond.notify_all();
    }

    /// Whether [`close`](Poller::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.shared.state.lock().expect("poller lock").closed
    }
}

impl Waker {
    /// Mark the token ready and rouse a blocked poller. Idempotent while the
    /// token is still queued: a burst of wakes costs one dispatch.
    pub fn wake(&self) {
        let mut state = self.shared.state.lock().expect("poller lock");
        if state.member.insert(self.token) {
            state.queued.push(self.token);
            state.wakeups += 1;
            self.shared.cond.notify_one();
        }
    }

    /// The token this waker marks ready.
    pub fn token(&self) -> usize {
        self.token
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock().expect("poller lock");
        f.debug_struct("Poller")
            .field("ready", &state.queued)
            .field("wakeups", &state.wakeups)
            .field("closed", &state.closed)
            .finish()
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").field("token", &self.token).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wake_before_poll_is_not_lost() {
        let poller = Poller::new();
        poller.waker(3).wake();
        let ready = poller.poll(Duration::from_millis(1));
        assert_eq!(ready.tokens(), &[3]);
        assert!(ready.contains(3) && !ready.contains(4));
        assert_eq!(ready.len(), 1);
    }

    #[test]
    fn duplicate_wakes_coalesce_until_polled() {
        let poller = Poller::new();
        let waker = poller.waker(7);
        waker.wake();
        waker.wake();
        waker.wake();
        assert_eq!(poller.wakeups(), 1);
        assert_eq!(poller.poll(Duration::from_millis(1)).tokens(), &[7]);
        // After the poll the token can be queued again.
        waker.wake();
        assert_eq!(poller.wakeups(), 2);
        assert_eq!(poller.poll(Duration::from_millis(1)).tokens(), &[7]);
    }

    #[test]
    fn poll_preserves_wake_order_across_tokens() {
        let poller = Poller::new();
        poller.waker(2).wake();
        poller.waker(0).wake();
        poller.waker(5).wake();
        assert_eq!(poller.poll(Duration::from_millis(1)).tokens(), &[2, 0, 5]);
    }

    #[test]
    fn poll_times_out_empty() {
        let poller = Poller::new();
        let started = Instant::now();
        assert!(poller.poll(Duration::from_millis(20)).is_empty());
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert_eq!(poller.poll_one(Duration::from_millis(1)), None);
    }

    #[test]
    fn poll_one_hands_tokens_to_distinct_callers() {
        let poller = Poller::new();
        poller.waker(1).wake();
        poller.waker(2).wake();
        assert_eq!(poller.poll_one(Duration::from_millis(1)), Some(1));
        assert_eq!(poller.poll_one(Duration::from_millis(1)), Some(2));
        assert_eq!(poller.poll_one(Duration::from_millis(1)), None);
    }

    #[test]
    fn cross_thread_wake_rouses_a_blocked_poll() {
        let poller = Poller::new();
        let waker = poller.waker(9);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            waker.wake();
        });
        let ready = poller.poll(Duration::from_secs(5));
        assert_eq!(ready.tokens(), &[9]);
        handle.join().unwrap();
    }

    #[test]
    fn close_releases_blocked_pollers() {
        let poller = Poller::new();
        let closer = poller.waker(0); // clone the shared state via a waker
        let _ = closer;
        assert!(!poller.is_closed());
        std::thread::scope(|scope| {
            let p = &poller;
            let t = scope.spawn(move || p.poll(Duration::from_secs(30)));
            std::thread::sleep(Duration::from_millis(10));
            p.close();
            assert!(t.join().unwrap().is_empty());
        });
        assert!(poller.is_closed());
        // Polls after closure return immediately.
        assert!(poller.poll(Duration::from_secs(30)).is_empty());
        assert_eq!(poller.poll_one(Duration::from_secs(30)), None);
    }

    #[test]
    fn ready_set_iterates_tokens() {
        let poller = Poller::new();
        poller.waker(4).wake();
        poller.waker(8).wake();
        let collected: Vec<usize> = poller.poll(Duration::from_millis(1)).into_iter().collect();
        assert_eq!(collected, vec![4, 8]);
    }
}
