//! The failover blackboard: liveness, death certificates, adoption claims,
//! and the hosted shard-state slots a standby adopts a carcass from. The
//! takeover itself is the shard state machine's (`state/takeover.rs`).

use super::locked;
use super::replica::ReplicaStore;
use super::state::{ShardOutput, ShardState};
#[cfg(doc)]
use super::PoolError;
use st_teacher::Teacher;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// Liveness sentinel: the shard's worker died with a panic.
const LIVENESS_DEAD: u64 = u64::MAX;
/// Liveness sentinel: the shard ran its exit protocol to completion.
const LIVENESS_FINISHED: u64 = u64::MAX - 1;

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
/// Liveness is a per-shard epoch: live workers bump theirs every pass, a
/// death stores [`LIVENESS_DEAD`], a clean exit [`LIVENESS_FINISHED`]. The
/// `claimed` slots are the adoption lock — exactly one standby wins the
/// compare-exchange and performs the takeover; `recovered` confirms the
/// takeover actually completed, so a standby that dies *mid-takeover*
/// still surfaces as a failure instead of a hang.
pub(super) struct FailoverBoard {
    liveness: Vec<AtomicU64>,
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
            liveness: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            claimed: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            recovered: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            deaths: (0..shards).map(|_| Mutex::new(None)).collect(),
            dead_outputs: Mutex::new(Vec::new()),
            finished: AtomicUsize::new(0),
            replication,
        }
    }

    /// Bump the shard's liveness epoch (one per pass). The sentinels are
    /// terminal: a dead or finished shard never looks live again.
    pub(super) fn beat(&self, shard: usize) {
        let cell = &self.liveness[shard];
        // ORDER: the epoch has a single writer (the hosting worker), so a
        // relaxed read of our own last store is exact.
        let epoch = cell.load(Ordering::Relaxed);
        if epoch < LIVENESS_FINISHED {
            // ORDER: single writer per live shard; Release pairs with the
            // SeqCst readers below.
            cell.store(epoch + 1, Ordering::Release);
        }
    }

    /// Publish a death: certificate first, then the liveness sentinel, so
    /// any observer of `is_dead` finds the certificate present.
    pub(super) fn mark_dead(&self, shard: usize, panic_msg: String) {
        *locked(&self.deaths[shard]) = Some(ShardDeath {
            panic_msg,
            died_at: Instant::now(),
        });
        self.liveness[shard].store(LIVENESS_DEAD, Ordering::SeqCst);
    }

    pub(super) fn mark_finished(&self, shard: usize) {
        self.liveness[shard].store(LIVENESS_FINISHED, Ordering::SeqCst);
    }

    pub(super) fn is_dead(&self, shard: usize) -> bool {
        self.liveness[shard].load(Ordering::SeqCst) == LIVENESS_DEAD
    }

    fn is_finished(&self, shard: usize) -> bool {
        self.liveness[shard].load(Ordering::SeqCst) == LIVENESS_FINISHED
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
        (0..self.liveness.len()).find_map(|shard| {
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
        let shards = self.liveness.len();
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
/// the teacher: the hosted shard-state slots, the blackboard, and the
/// checkpoint-replica store.
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
    pub(super) replicas: Option<Arc<ReplicaStore>>,
}
