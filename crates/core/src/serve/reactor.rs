//! The reactor: the pool's one driver. A fixed worker set hosts every shard
//! state machine, dispatching a pass when a shard's readiness token wakes.
//! It keeps no timers: every event a shard reacts to arrives as traffic on
//! its uplink (or a wake another worker sends), so a worker only ever
//! parks in the poller. It reaches a [`ShardState`] only through
//! `run_pass`, `recover` and `finish`.

use super::state::{ShardOutput, ShardState};
use super::PoolError;
use st_teacher::Teacher;
use st_tensor::TensorError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The longest a reactor worker parks in the poller before it re-checks the
/// abort flag. A backstop, not a service cadence: a send, a recovery or a
/// backlog wakes a shard's token, an abort or the last shard finishing
/// closes the poller, and a timed-out park runs no pass.
const REACTOR_IDLE_TICK: Duration = Duration::from_millis(50);

/// Render a caught panic payload for the failure report. Panics raised with
/// a string literal or a formatted message (the overwhelmingly common
/// cases, including injected faults) come through verbatim.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "shard worker panicked".to_string()
    }
}

/// Everything the reactor's fixed worker set shares: the shard state
/// machines, the readiness poller whose token *n* means "shard *n* has
/// traffic", and completion accounting.
pub(super) struct ReactorShared<T: Teacher> {
    /// `states[i]` hosts shard *i*'s machine until the shard finishes (slot
    /// emptied) or dies unrecovered (slot emptied, pool aborted). Any
    /// worker may run any shard; the mutex serializes passes per shard
    /// while leaving distinct shards fully parallel. A worker holds a
    /// slot's guard for one pass, and catches a dying pass's unwind before
    /// releasing it, so a death never poisons the slot.
    states: Vec<Mutex<Option<ShardState<T>>>>,
    poller: st_net::Poller,
    /// Set when a worker hits a hard error or an unrecovered death, telling
    /// its peers to stop instead of serving a half-dead pool.
    aborted: AtomicBool,
    /// Shards finalized so far; the worker set exits when this reaches the
    /// shard count.
    finished: AtomicUsize,
    /// `rerun[i]` records a wake token consumed for shard *i* while another
    /// worker was mid-pass on it. The pass holder re-wakes the shard when it
    /// releases the lock, so the traffic behind the dropped token is
    /// re-dispatched instead of lost — and no worker ever parks on a busy
    /// shard's mutex while other shards' traffic waits.
    rerun: Vec<AtomicBool>,
    shard_wakers: Arc<Vec<st_net::Waker>>,
}

impl<T: Teacher> ReactorShared<T> {
    /// Shared state for a worker set hosting `states`; token *n* of
    /// `poller` (and `shard_wakers[n]`) belongs to shard *n*.
    pub(super) fn new(
        states: Vec<ShardState<T>>,
        poller: st_net::Poller,
        shard_wakers: Arc<Vec<st_net::Waker>>,
    ) -> Self {
        ReactorShared {
            rerun: states.iter().map(|_| AtomicBool::new(false)).collect(),
            states: states.into_iter().map(|s| Mutex::new(Some(s))).collect(),
            poller,
            aborted: AtomicBool::new(false),
            finished: AtomicUsize::new(0),
            shard_wakers,
        }
    }
}

/// The error a panic that escaped reactor worker `worker_index` *outside*
/// any shard pass (dispatch bookkeeping, a shard's exit
/// protocol) surfaces as. A dying pass is caught where it runs and blamed on
/// its shard; this one came from no shard, so it names only the worker.
pub(super) fn escaped_panic(
    worker_index: usize,
    payload: &(dyn std::any::Any + Send),
) -> TensorError {
    TensorError::InvalidArgument(format!(
        "reactor worker {worker_index}, outside any shard pass, panicked: {}",
        panic_message(payload)
    ))
}

/// One reactor worker: block on the readiness poller and run a pass on
/// whichever shard woke. A worker holds at most one shard-state lock, and
/// only ever takes it with `try_lock`.
///
/// A shard death the shard did not recover from comes back from the worker
/// that caught it as [`PoolError::WorkerFailed`].
pub(super) fn run_reactor_worker<T: Teacher>(
    shared: &ReactorShared<T>,
    worker_index: usize,
) -> Result<Vec<ShardOutput>, PoolError> {
    let mut outputs = Vec::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        reactor_loop(shared, &mut outputs)
    }))
    .unwrap_or_else(|payload| Err(escaped_panic(worker_index, payload.as_ref()).into()));
    if let Err(err) = result {
        // Take the whole pool down with us: peers observe the flag (or the
        // closed poller) and return their partial outputs; join() surfaces
        // this error.
        shared.aborted.store(true, Ordering::SeqCst);
        shared.poller.close();
        return Err(err);
    }
    Ok(outputs)
}

fn reactor_loop<T: Teacher>(
    shared: &ReactorShared<T>,
    outputs: &mut Vec<ShardOutput>,
) -> Result<(), PoolError> {
    let total = shared.states.len();
    loop {
        if shared.aborted.load(Ordering::SeqCst) || shared.finished.load(Ordering::SeqCst) == total
        {
            return Ok(());
        }
        if let Some(token) = shared.poller.poll_one(REACTOR_IDLE_TICK) {
            dispatch_pass(shared, token, outputs)?;
        }
    }
}

/// Run one pass on `shard`, then wake it again at once while backlog (or a
/// shutdown drain) remains. A pass that dies is followed, under the same
/// guard, by the shard's recovery; a death it does not recover from fails
/// the worker with [`PoolError::WorkerFailed`].
fn dispatch_pass<T: Teacher>(
    shared: &ReactorShared<T>,
    shard: usize,
    outputs: &mut Vec<ShardOutput>,
) -> Result<(), PoolError> {
    // Set-then-try ordering makes the handoff airtight: if the try_lock
    // below fails, the current holder is guaranteed to observe our flag
    // after it releases and re-wake the shard; if the holder released just
    // before we set, our try_lock succeeds and we run the pass ourselves.
    // A pass never parks a worker on a busy shard's mutex — the alternative
    // lets one long pass (e.g. a Shutdown flush) capture every worker while
    // other shards starve.
    shared.rerun[shard].store(true, Ordering::SeqCst);
    let mut guard = match shared.states[shard].try_lock() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::WouldBlock) => return Ok(()),
        Err(std::sync::TryLockError::Poisoned(_)) => {
            // Reactor passes never unwind through the guard (the pass body
            // is caught below), so poison here is a bug, not a shard death.
            return Err(TensorError::InvalidArgument("shard state lock poisoned".into()).into());
        }
    };
    shared.rerun[shard].store(false, Ordering::SeqCst);
    let Some(state) = guard.as_mut() else {
        // The shard already finished; a late wake is harmless.
        return Ok(());
    };
    // A shard death must not take the hosting OS thread (and every other
    // shard it would have run) down with it: catch the unwind and recover
    // the shard where it stands. The guard is released normally, so no
    // poison.
    let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.run_pass()));
    let backlog = match pass {
        Ok(outcome) => {
            let outcome = outcome?;
            if outcome.done {
                let Some(state) = guard.take() else {
                    unreachable!("shard state present: matched Some above")
                };
                outputs.push(state.finish());
                if shared.finished.fetch_add(1, Ordering::SeqCst) + 1 == shared.states.len() {
                    // Release every worker parked in poll_one.
                    shared.poller.close();
                }
                return Ok(());
            }
            outcome.backlog
        }
        Err(payload) => {
            let died_at = Instant::now();
            // Recovery is caught as the pass was: a panic in it leaves the
            // death unrecovered.
            let recovered =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.recover(died_at)))
                    .unwrap_or(false);
            if !recovered {
                // Replication off, or a second death: the shard's state
                // goes with it, and the pool stops; join() reports the
                // death.
                *guard = None;
                return Err(PoolError::WorkerFailed {
                    shard,
                    panic_msg: panic_message(payload.as_ref()),
                });
            }
            // The recovered shard's queue and uplink are served by its
            // next pass.
            true
        }
    };
    drop(guard);
    if shared.rerun[shard].swap(false, Ordering::SeqCst) {
        // A wake token for this shard was consumed (and dropped) while we
        // were mid-pass; re-issue it.
        shared.shard_wakers[shard].wake();
    }
    if backlog {
        // Work the shard can do now (queued jobs of streams that are home,
        // or a shutdown drain in progress): hand it straight back to the
        // worker set instead of waiting for traffic. Work waiting on an
        // item out on a lane is woken by the lane's post instead.
        shared.shard_wakers[shard].wake();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_teacher::OracleTeacher;
    use std::sync::Mutex;

    #[test]
    fn escaped_panic_aborts_the_pool_and_blames_the_worker_not_a_shard() {
        // One (already vacated) shard slot, and a dispatch bug: a wake
        // addressed to a shard that does not exist. Dispatching it panics
        // outside any shard pass.
        let poller = st_net::Poller::new();
        let shard_wakers = Arc::new(vec![poller.waker(0)]);
        let shared = ReactorShared::<OracleTeacher> {
            states: vec![Mutex::new(None)],
            poller,
            aborted: AtomicBool::new(false),
            finished: AtomicUsize::new(0),
            rerun: vec![AtomicBool::new(false)],
            shard_wakers,
        };
        shared.poller.waker(7).wake();
        let Err(err) = run_reactor_worker(&shared, 3) else {
            panic!("a panicking worker must fail the pool");
        };
        // A tensor error naming the worker, not a shard's death.
        let PoolError::Tensor(err) = err else {
            panic!("blamed a shard: {err:?}");
        };
        let message = err.to_string();
        assert!(
            message.contains("reactor worker 3, outside any shard pass"),
            "{message}"
        );
        assert!(
            !message.contains("shard 3") && !message.contains("shard 7"),
            "blamed a shard: {message}"
        );
        // The pool was aborted the way a hard error aborts it: peers see the
        // flag and a closed poller.
        assert!(shared.aborted.load(Ordering::SeqCst));
        assert_eq!(shared.poller.poll_one(Duration::from_secs(5)), None);
    }
}
