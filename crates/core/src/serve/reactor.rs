//! The reactor: the pool's one driver. A fixed worker set hosts every shard
//! state machine, dispatching a pass when a shard's readiness token wakes
//! and a retry when one of its timers fires. It reaches a [`ShardState`] only through
//! `run_pass`, `on_need_frame_retry` and `finish`.

use super::failover::{panic_message, FailoverShared};
use super::locked;
use super::state::ShardOutput;
#[cfg(doc)]
use super::state::ShardState;
use crate::timer::DeadlineHeap;
use crate::Result;
use st_net::StreamId;
use st_teacher::Teacher;
use st_tensor::TensorError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The longest a reactor worker parks in the poller: the bound on how late
/// it notices a retry another worker armed meanwhile, the abort flag or an
/// orphaned death — not a service cadence (a send wakes a worker at once,
/// and a park never outlasts the next deadline already on the heap).
const REACTOR_IDLE_TICK: Duration = Duration::from_millis(50);

/// How long the reactor waits for a `ReShare` before re-sending `NeedFrame`.
/// Without the retry a lost request would park the job until shutdown.
const NEED_FRAME_RETRY: Duration = Duration::from_millis(100);

/// The one kind of deadline the reactor's shared heap holds: re-send
/// `NeedFrame` for a job still parked on an evicted frame.
struct NeedFrameRetry {
    shard: usize,
    stream_id: StreamId,
    frame_index: usize,
}

/// Everything the reactor's fixed worker set shares: the shard state
/// machines, the readiness poller whose token *n* means "shard *n* has
/// traffic", the deadline heap, and completion accounting.
pub(super) struct ReactorShared<T: Teacher> {
    /// The hosted shard-state slots (`failover.states[i]` holds shard *i*
    /// until it finishes or dies), the failover board, and the replica
    /// store. Any worker may run any shard; the mutex serializes passes per
    /// shard while leaving distinct shards fully parallel. Completion is
    /// counted on the board (`finished`), which also covers dead shards
    /// finalized by their standby.
    failover: FailoverShared<T>,
    poller: st_net::Poller,
    timers: Mutex<DeadlineHeap<NeedFrameRetry>>,
    /// Set when a worker hits a hard error, telling its peers to stop
    /// instead of serving a half-dead pool.
    aborted: AtomicBool,
    /// `rerun[i]` records a wake token consumed for shard *i* while another
    /// worker was mid-pass on it. The pass holder re-wakes the shard when it
    /// releases the lock, so the traffic behind the dropped token is
    /// re-dispatched instead of lost — and no worker ever parks on a busy
    /// shard's mutex while timers starve.
    rerun: Vec<AtomicBool>,
    shard_wakers: Arc<Vec<st_net::Waker>>,
}

impl<T: Teacher> ReactorShared<T> {
    /// Shared state for a worker set hosting `failover.states`; token *n*
    /// of `poller` (and `shard_wakers[n]`) belongs to shard *n*.
    pub(super) fn new(
        failover: FailoverShared<T>,
        poller: st_net::Poller,
        shard_wakers: Arc<Vec<st_net::Waker>>,
    ) -> Self {
        ReactorShared {
            rerun: (0..failover.states.len())
                .map(|_| AtomicBool::new(false))
                .collect(),
            failover,
            poller,
            timers: Mutex::new(DeadlineHeap::new(Instant::now())),
            aborted: AtomicBool::new(false),
            shard_wakers,
        }
    }
}

/// The error a panic that escaped reactor worker `worker_index` *outside*
/// any shard pass (timer plumbing, dispatch bookkeeping, a shard's exit
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

/// One reactor worker: fire due timers, then block on the readiness poller
/// (bounded by the next deadline) and run a pass on whichever shard woke.
/// Lock order is always shard-state before timers, never the reverse with a
/// state lock held across a blocking acquisition of another state.
pub(super) fn run_reactor_worker<T: Teacher>(
    shared: &ReactorShared<T>,
    worker_index: usize,
) -> Result<Vec<ShardOutput>> {
    let mut outputs = Vec::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        reactor_loop(shared, &mut outputs)
    }))
    .unwrap_or_else(|payload| Err(escaped_panic(worker_index, payload.as_ref())));
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
) -> Result<()> {
    let total = shared.failover.states.len();
    loop {
        if shared.aborted.load(Ordering::SeqCst) || shared.failover.board.finished_count() == total
        {
            return Ok(());
        }
        // A death no standby can ever recover (replication off, or the
        // standby itself dead or already finished) would otherwise leave
        // the pool polling forever; abort so join() reports the death
        // instead of hanging.
        if shared.failover.board.has_orphan_death() {
            shared.aborted.store(true, Ordering::SeqCst);
            shared.poller.close();
            return Ok(());
        }
        // Fire due timers. The heap lock is released before dispatching so
        // a handler arming follow-up timers never self-deadlocks.
        let due = locked(&shared.timers).advance(Instant::now());
        for retry in due {
            dispatch_need_frame_retry(shared, retry);
        }
        // Park until a shard's token wakes, but never sleep past the next
        // timer deadline (or the idle tick, whichever is sooner).
        let next_deadline = locked(&shared.timers).next_deadline();
        let timeout = next_deadline.map_or(REACTOR_IDLE_TICK, |deadline| {
            deadline
                .saturating_duration_since(Instant::now())
                .min(REACTOR_IDLE_TICK)
        });
        if let Some(token) = shared.poller.poll_one(timeout) {
            dispatch_pass(shared, token, outputs)?;
        }
    }
}

/// Run one pass on `shard`, then arm whatever follow-up events the pass
/// asked for: an immediate self-wake while backlog (or a shutdown drain)
/// remains, and a retry timer per `NeedFrame` sent.
fn dispatch_pass<T: Teacher>(
    shared: &ReactorShared<T>,
    shard: usize,
    outputs: &mut Vec<ShardOutput>,
) -> Result<()> {
    // Set-then-try ordering makes the handoff airtight: if the try_lock
    // below fails, the current holder is guaranteed to observe our flag
    // after it releases and re-wake the shard; if the holder released just
    // before we set, our try_lock succeeds and we run the pass ourselves.
    // A pass never parks a worker on a busy shard's mutex — the alternative
    // lets one long pass (e.g. a Shutdown flush) capture every worker while
    // timers starve.
    shared.rerun[shard].store(true, Ordering::SeqCst);
    let mut guard = match shared.failover.states[shard].try_lock() {
        Ok(guard) => guard,
        Err(std::sync::TryLockError::WouldBlock) => return Ok(()),
        Err(std::sync::TryLockError::Poisoned(_)) => {
            // Reactor passes never unwind through the guard (the pass body
            // is caught below), so poison here is a bug, not a shard death.
            return Err(TensorError::InvalidArgument(
                "shard state lock poisoned".into(),
            ));
        }
    };
    shared.rerun[shard].store(false, Ordering::SeqCst);
    if shared.failover.board.is_dead(shard) {
        // A late wake for a dead shard: the carcass in the slot belongs to
        // its standby, not to us.
        return Ok(());
    }
    let outcome = {
        let Some(state) = guard.as_mut() else {
            // The shard already finished; a late wake is harmless.
            return Ok(());
        };
        // A shard death must not take the hosting OS thread (and every
        // other shard it would have run) down with it: catch the unwind,
        // publish the death, and hand the carcass to the standby. The guard
        // is released normally, so no poison.
        let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            state.run_pass(&shared.failover)
        }));
        let outcome = match pass {
            Ok(outcome) => outcome?,
            Err(payload) => {
                shared
                    .failover
                    .board
                    .mark_dead(shard, panic_message(payload.as_ref()));
                if shared.failover.replicas.is_some() {
                    // Wake the standby so its next pass runs the takeover.
                    let standby = (shard + 1) % shared.failover.states.len();
                    shared.shard_wakers[standby].wake();
                } else {
                    // No standby to adopt the shard: stop the pool; join()
                    // surfaces the death as WorkerFailed.
                    shared.aborted.store(true, Ordering::SeqCst);
                    shared.poller.close();
                }
                return Ok(());
            }
        };
        if outcome.done {
            let Some(state) = guard.take() else {
                unreachable!("shard state present: matched Some above")
            };
            shared.failover.board.mark_finished(shard);
            outputs.push(state.finish());
            if shared.failover.board.note_finished() == shared.failover.states.len() {
                // Release every worker parked in poll_one.
                shared.poller.close();
            }
            return Ok(());
        }
        outcome
    };
    drop(guard);
    if shared.rerun[shard].swap(false, Ordering::SeqCst) {
        // A wake token for this shard was consumed (and dropped) while we
        // were mid-pass; re-issue it.
        shared.shard_wakers[shard].wake();
    }
    for &(stream_id, frame_index) in &outcome.need_frames {
        locked(&shared.timers).schedule_after(
            NEED_FRAME_RETRY,
            NeedFrameRetry {
                shard,
                stream_id,
                frame_index,
            },
        );
    }
    if outcome.backlog || outcome.disconnected {
        // Queued jobs (or a shutdown drain in progress): hand the shard
        // straight back to the worker set instead of waiting for traffic.
        shared.shard_wakers[shard].wake();
    }
    Ok(())
}

/// Deliver a `NeedFrameRetry` timer to its shard, re-arming it while the
/// job stays parked (or while the shard is too busy to answer).
fn dispatch_need_frame_retry<T: Teacher>(shared: &ReactorShared<T>, retry: NeedFrameRetry) {
    let still_waiting = match shared.failover.states[retry.shard].try_lock() {
        Ok(mut guard) => match guard.as_mut() {
            Some(state) => state.on_need_frame_retry(retry.stream_id, retry.frame_index),
            None => false,
        },
        // Mid-pass: the pass may well deliver the re-share; check again
        // next period.
        Err(_) => true,
    };
    if still_waiting {
        locked(&shared.timers).schedule_after(NEED_FRAME_RETRY, retry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::failover::FailoverBoard;
    use st_teacher::OracleTeacher;

    #[test]
    fn escaped_panic_aborts_the_pool_and_blames_the_worker_not_a_shard() {
        // One (already vacated) shard slot, and a timer-plumbing bug: a
        // retry addressed to a shard that does not exist. Dispatching it
        // panics outside any shard pass.
        let poller = st_net::Poller::new();
        let shard_wakers = Arc::new(vec![poller.waker(0)]);
        let shared = ReactorShared::<OracleTeacher>::new(
            FailoverShared {
                states: vec![Mutex::new(None)],
                board: Arc::new(FailoverBoard::new(1, false)),
                replicas: None,
            },
            poller,
            shard_wakers,
        );
        locked(&shared.timers).schedule_after(
            Duration::ZERO,
            NeedFrameRetry {
                shard: 7,
                stream_id: 0,
                frame_index: 0,
            },
        );
        let Err(err) = run_reactor_worker(&shared, 3) else {
            panic!("a panicking worker must fail the pool");
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
        // flag and a closed poller, and no shard was marked dead.
        assert!(shared.aborted.load(Ordering::SeqCst));
        assert_eq!(shared.poller.poll_one(Duration::from_secs(5)), None);
        assert!(shared.failover.board.unrecovered_death().is_none());
    }
}
