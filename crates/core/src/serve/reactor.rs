//! The reactor: the pool's one driver. A fixed worker set hosts every shard
//! state machine, dispatching a pass when a shard's readiness token wakes.
//! It keeps no timers: every event a shard reacts to arrives as traffic on
//! its uplink (or a wake another worker sends), so a worker only ever
//! parks in the poller. It reaches a [`ShardState`] only through `run_pass`
//! and `finish`.

use super::failover::{panic_message, FailoverShared};
use super::state::ShardOutput;
#[cfg(doc)]
use super::state::ShardState;
use crate::Result;
use st_teacher::Teacher;
use st_tensor::TensorError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The longest a reactor worker parks in the poller before it re-checks the
/// abort and orphaned-death flags. A backstop, not a service cadence: a
/// send, a death or a backlog wakes a shard's token, an abort or the last
/// shard finishing closes the poller, and a timed-out park runs no pass.
const REACTOR_IDLE_TICK: Duration = Duration::from_millis(50);

/// Everything the reactor's fixed worker set shares: the shard state
/// machines, the readiness poller whose token *n* means "shard *n* has
/// traffic", and completion accounting.
pub(super) struct ReactorShared<T: Teacher> {
    /// The hosted shard-state slots (`failover.states[i]` holds shard *i*
    /// until it finishes or dies) and the failover board. Any worker may
    /// run any shard; the mutex serializes passes per shard while leaving
    /// distinct shards fully parallel. Completion is counted on the board
    /// (`finished`), which also covers dead shards finalized by their
    /// standby.
    failover: FailoverShared<T>,
    poller: st_net::Poller,
    /// Set when a worker hits a hard error, telling its peers to stop
    /// instead of serving a half-dead pool.
    aborted: AtomicBool,
    /// `rerun[i]` records a wake token consumed for shard *i* while another
    /// worker was mid-pass on it. The pass holder re-wakes the shard when it
    /// releases the lock, so the traffic behind the dropped token is
    /// re-dispatched instead of lost — and no worker ever parks on a busy
    /// shard's mutex while other shards' traffic waits.
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
            aborted: AtomicBool::new(false),
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
        if let Some(token) = shared.poller.poll_one(REACTOR_IDLE_TICK) {
            dispatch_pass(shared, token, outputs)?;
        }
    }
}

/// Run one pass on `shard`, then wake it again at once while backlog (or a
/// shutdown drain) remains. A wake for a dead shard goes to its standby.
fn dispatch_pass<T: Teacher>(
    shared: &ReactorShared<T>,
    shard: usize,
    outputs: &mut Vec<ShardOutput>,
) -> Result<()> {
    // The dead shard's streams still send to its uplink, which its standby
    // drains (or will, once its pass runs the takeover); the carcass in the
    // slot is the standby's, not ours. A chain of dead shards forwards hop
    // by hop.
    let forward_to_standby = || {
        let standby = (shard + 1) % shared.failover.states.len();
        shared.shard_wakers[standby].wake();
    };
    if shared.failover.board.is_dead(shard) {
        forward_to_standby();
        return Ok(());
    }
    // Set-then-try ordering makes the handoff airtight: if the try_lock
    // below fails, the current holder is guaranteed to observe our flag
    // after it releases and re-wake the shard; if the holder released just
    // before we set, our try_lock succeeds and we run the pass ourselves.
    // A pass never parks a worker on a busy shard's mutex — the alternative
    // lets one long pass (e.g. a Shutdown flush) capture every worker while
    // other shards starve.
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
        // It died in a pass that ended between the check above and the lock.
        forward_to_standby();
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
                if shared.failover.board.replication() {
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
    if outcome.backlog {
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
    use crate::config::ShadowTutorConfig;
    use crate::serve::failover::FailoverBoard;
    use crate::serve::state::ShardState;
    use crate::serve::{PoolConfig, ServeShard};
    use st_nn::student::{StudentConfig, StudentNet};
    use st_teacher::OracleTeacher;
    use std::sync::{mpsc, Mutex};

    #[test]
    fn a_wake_for_a_dead_shard_runs_a_pass_on_its_standby() {
        // Shard 0 has died, and a client's send wakes its token. The dead
        // shard's uplink is its standby's to drain, so the wake must reach
        // shard 1, not vanish with the carcass. No client is connected, so
        // the pass that shard 1 runs finds its uplink closed and finishes.
        let poller = st_net::Poller::new();
        let shard_wakers = Arc::new(vec![poller.waker(0), poller.waker(1)]);
        let board = Arc::new(FailoverBoard::new(2, false));
        let states = (0..2)
            .map(|shard_index| {
                let shard = ServeShard::new(
                    ShadowTutorConfig::paper(),
                    StudentNet::new(StudentConfig::tiny()).unwrap(),
                    OracleTeacher::perfect(5),
                    0.013,
                );
                let (_, rx) = mpsc::channel();
                let config = PoolConfig::with_shards(2);
                let state = ShardState::new(shard, rx, config, shard_index, Arc::clone(&board));
                Mutex::new(Some(state))
            })
            .collect();
        let failover = FailoverShared {
            states,
            board: Arc::clone(&board),
        };
        let shared = ReactorShared::new(failover, poller, shard_wakers);
        board.mark_dead(0, "killed by the test".into());
        shared.shard_wakers[0].wake();
        let mut outputs = Vec::new();
        for shard in 0..2 {
            let woken = shared.poller.poll_one(Duration::from_secs(5));
            assert_eq!(woken, Some(shard), "the dead shard's wake was discarded");
            dispatch_pass(&shared, shard, &mut outputs).unwrap();
        }
        let [standby] = &outputs[..] else {
            panic!("the standby ran no pass");
        };
        assert_eq!((standby.shard, standby.stats.poll_wakeups), (1, 1));
    }

    #[test]
    fn escaped_panic_aborts_the_pool_and_blames_the_worker_not_a_shard() {
        // One (already vacated) shard slot, and a dispatch bug: a wake
        // addressed to a shard that does not exist. Dispatching it panics
        // outside any shard pass.
        let poller = st_net::Poller::new();
        let shard_wakers = Arc::new(vec![poller.waker(0)]);
        let shared = ReactorShared::<OracleTeacher>::new(
            FailoverShared {
                states: vec![Mutex::new(None)],
                board: Arc::new(FailoverBoard::new(1, false)),
            },
            poller,
            shard_wakers,
        );
        shared.poller.waker(7).wake();
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
