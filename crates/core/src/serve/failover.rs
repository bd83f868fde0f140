//! The failover blackboard: shard status, death certificates, adoption claims,
//! and the hosted shard-state slots a standby adopts a carcass from. The
//! takeover itself is the shard state machine's (`state/takeover.rs`).

use super::locked;
use super::state::{ShardOutput, ShardState};
#[cfg(doc)]
use super::PoolError;
use st_teacher::Teacher;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Render a caught panic payload for the failure report. Panics raised with
/// a string literal or a formatted message (the overwhelmingly common
/// cases, including injected faults) come through verbatim.
pub(super) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        (*msg).to_string()
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg.clone()
    } else {
        "shard worker panicked".to_string()
    }
}

/// Shard status: serving.
const LIVE: u8 = 0;
/// Shard status: a pass of its state machine unwound (a caught panic).
const DEAD: u8 = 1;
/// Shard status: the shard ran its exit protocol to completion.
const FINISHED: u8 = 2;

/// A shard worker's death certificate.
#[derive(Debug, Clone)]
struct ShardDeath {
    /// The worker's actual panic payload.
    panic_msg: String,
    /// When the death was published — takeover latency is measured from
    /// here to the standby's adoption.
    died_at: Instant,
}

/// The pool's non-generic failover blackboard, shared by the pool handle
/// (which is not generic over the teacher) and every worker.
///
/// Each shard has a status, [`LIVE`] until a caught unwind publishes
/// [`DEAD`] or a clean exit [`FINISHED`]; nothing polls it on a timer, the
/// standby reads it on the pass the death wakes it for. The
/// `claimed` slots are the adoption lock — exactly one standby wins the
/// compare-exchange and performs the takeover; `recovered` confirms the
/// takeover actually completed, so a standby that dies *mid-takeover*
/// still surfaces as a failure instead of a hang.
pub(super) struct FailoverBoard {
    status: Vec<AtomicU8>,
    /// CAS guard: set by the standby that won the right to adopt.
    claimed: Vec<AtomicBool>,
    /// Set once the standby finished adopting the shard's streams.
    recovered: Vec<AtomicBool>,
    deaths: Vec<Mutex<Option<ShardDeath>>>,
    /// Final outputs of dead shards, assembled from their carcasses by the
    /// adopting standby (a dead worker returns nothing through its join
    /// handle).
    dead_outputs: Mutex<Vec<ShardOutput>>,
    /// Shards finalized so far (clean exits and completed adoptions); the
    /// reactor's worker set exits when this reaches the shard count.
    finished: AtomicUsize,
    /// Whether checkpoint replication (and hence standby adoption) is on.
    replication: bool,
}

impl FailoverBoard {
    pub(super) fn new(shards: usize, replication: bool) -> Self {
        FailoverBoard {
            status: (0..shards).map(|_| AtomicU8::new(LIVE)).collect(),
            claimed: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            recovered: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            deaths: (0..shards).map(|_| Mutex::new(None)).collect(),
            dead_outputs: Mutex::new(Vec::new()),
            finished: AtomicUsize::new(0),
            replication,
        }
    }

    /// Publish a death: certificate first, then the status, so any
    /// observer of `is_dead` finds the certificate present.
    pub(super) fn mark_dead(&self, shard: usize, panic_msg: String) {
        *locked(&self.deaths[shard]) = Some(ShardDeath {
            panic_msg,
            died_at: Instant::now(),
        });
        self.status[shard].store(DEAD, Ordering::SeqCst);
    }

    pub(super) fn mark_finished(&self, shard: usize) {
        self.status[shard].store(FINISHED, Ordering::SeqCst);
    }

    /// Whether checkpoint replication (and hence standby adoption) is on.
    pub(super) fn replication(&self) -> bool {
        self.replication
    }

    pub(super) fn is_dead(&self, shard: usize) -> bool {
        self.status[shard].load(Ordering::SeqCst) == DEAD
    }

    fn is_finished(&self, shard: usize) -> bool {
        self.status[shard].load(Ordering::SeqCst) == FINISHED
    }

    /// Win (or lose) the exclusive right to adopt a dead shard.
    pub(super) fn try_claim(&self, shard: usize) -> bool {
        self.claimed[shard]
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    pub(super) fn death_instant(&self, shard: usize) -> Option<Instant> {
        locked(&self.deaths[shard]).as_ref().map(|d| d.died_at)
    }

    /// File a dead shard's final output (assembled from its carcass) and
    /// mark the shard recovered.
    pub(super) fn push_dead_output(&self, output: ShardOutput) {
        let shard = output.shard;
        locked(&self.dead_outputs).push(output);
        self.recovered[shard].store(true, Ordering::SeqCst);
        self.finished.fetch_add(1, Ordering::SeqCst);
    }

    pub(super) fn take_dead_outputs(&self) -> Vec<ShardOutput> {
        std::mem::take(&mut *locked(&self.dead_outputs))
    }

    /// Record one more finalized shard; returns the new total.
    pub(super) fn note_finished(&self) -> usize {
        self.finished.fetch_add(1, Ordering::SeqCst) + 1
    }

    pub(super) fn finished_count(&self) -> usize {
        self.finished.load(Ordering::SeqCst)
    }

    /// A death no standby recovered from (replication off, or the standby
    /// itself died — possibly mid-takeover). `join` turns this into
    /// [`PoolError::WorkerFailed`].
    pub(super) fn unrecovered_death(&self) -> Option<(usize, String)> {
        (0..self.status.len()).find_map(|shard| {
            if !self.is_dead(shard) || self.recovered[shard].load(Ordering::SeqCst) {
                return None;
            }
            let msg = locked(&self.deaths[shard])
                .as_ref()
                .map(|death| death.panic_msg.clone())
                .unwrap_or_else(|| "shard worker panicked".to_string());
            Some((shard, msg))
        })
    }

    /// A dead shard that can never be adopted: replication off, or its
    /// standby (the next shard) is itself dead or already finished. The
    /// reactor aborts on this instead of waiting forever.
    pub(super) fn has_orphan_death(&self) -> bool {
        let shards = self.status.len();
        (0..shards).any(|shard| {
            if !self.is_dead(shard) || self.recovered[shard].load(Ordering::SeqCst) {
                return false;
            }
            if !self.replication {
                return true;
            }
            let standby = (shard + 1) % shards;
            self.is_dead(standby) || self.is_finished(standby)
        })
    }
}

/// Everything the failover protocol shares between workers, generic over
/// the teacher: the hosted shard-state slots and the blackboard.
///
/// `states[i]` hosts shard *i*'s machine until the shard finishes (slot
/// emptied) or dies (the carcass stays in the slot for its standby). A
/// reactor worker holds a slot's guard only for the length of one pass and
/// catches a dying pass's unwind before releasing it, so a death never
/// poisons the slot: the standby simply finds the carcass behind a free
/// lock.
pub(super) struct FailoverShared<T: Teacher> {
    pub(super) states: Vec<Mutex<Option<ShardState<T>>>>,
    pub(super) board: Arc<FailoverBoard>,
}
