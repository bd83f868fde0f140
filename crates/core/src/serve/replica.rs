//! Checkpoint replicas: the failover index over the shared weight store.

use super::locked;
use st_net::StreamId;
use st_nn::snapshot::WeightSnapshot;
use st_nn::store::{CheckpointRef, InternStats, WeightStore};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One stream's replicated session checkpoint: a refcounted
/// [`CheckpointRef`] into the pool's shared [`WeightStore`], plus the
/// distillation counters. It is the one part of a stream a takeover cannot
/// take from the dead shard's state, which a panic inside `distill` can
/// leave half-stepped; nothing else of a stream is written inside a step.
struct SessionReplica {
    checkpoint: CheckpointRef,
    key_frames: usize,
    distill_steps: usize,
}

/// A replica materialized for takeover: checkpoint resolved from the store
/// and its references released.
pub(super) struct RestoredReplica {
    pub(super) snapshot: WeightSnapshot,
    pub(super) key_frames: usize,
    pub(super) distill_steps: usize,
}

/// The pool's shared checkpoint-replica index over the content-addressed
/// [`WeightStore`].
///
/// After every accepted update a shard publishes the stream's full session
/// checkpoint here, keyed by owning shard; when a shard dies, its buddy
/// adopts the dead shard's slot and rebuilds every stream's session from it.
/// The replica store holds [`CheckpointRef`]s — replication publishes
/// *references* into the same store that also interns the pretrained
/// template, so the frozen front-end a partial-distillation session never
/// touches is resident **once** across the template and every stream's
/// replica. `ShardStats::replica_bytes_published` versus
/// `ShardStats::replica_bytes_shared` measures exactly that saving.
pub struct ReplicaStore {
    /// `slots[owner]` = replicas of the streams shard `owner` serves.
    slots: Vec<Mutex<HashMap<StreamId, SessionReplica>>>,
    /// The shared chunk store (also holds the interned template).
    store: Arc<WeightStore>,
}

impl ReplicaStore {
    pub(super) fn new(shards: usize, store: Arc<WeightStore>) -> Self {
        ReplicaStore {
            slots: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            store,
        }
    }

    /// Publish one stream's checkpoint under `owner`, replacing any prior
    /// replica of the stream. Returns the [`InternStats`] byte split: bytes
    /// the store had to materialize versus bytes it deduplicated (against
    /// the template, other streams, or the stream's own prior replica).
    pub(super) fn publish(
        &self,
        owner: usize,
        stream_id: StreamId,
        checkpoint: &WeightSnapshot,
        key_frames: usize,
        distill_steps: usize,
    ) -> InternStats {
        let (checkpoint, stats) = self.store.intern(checkpoint);
        let previous = locked(&self.slots[owner]).insert(
            stream_id,
            SessionReplica {
                checkpoint,
                key_frames,
                distill_steps,
            },
        );
        if let Some(previous) = previous {
            self.store.release(previous.checkpoint);
        }
        stats
    }

    /// Drop one stream's replica (the stream retired normally; there is
    /// nothing left to fail over).
    pub(super) fn remove(&self, owner: usize, stream_id: StreamId) {
        if let Some(replica) = locked(&self.slots[owner]).remove(&stream_id) {
            self.store.release(replica.checkpoint);
        }
    }

    /// Take every replica a dead shard owned, materialized for restore
    /// (references released) and sorted by stream id so adoption order is
    /// deterministic.
    pub(super) fn take_owner(&self, owner: usize) -> Vec<(StreamId, RestoredReplica)> {
        let mut replicas: Vec<(StreamId, SessionReplica)> = {
            let mut slot = locked(&self.slots[owner]);
            slot.drain().collect()
        };
        replicas.sort_by_key(|(id, _)| *id);
        replicas
            .into_iter()
            .map(|(stream_id, replica)| {
                let snapshot = match self.store.resolve_release(replica.checkpoint) {
                    Ok(snapshot) => snapshot,
                    // The replica held a reference since publish, so every
                    // chunk is pinned; a miss is corrupted store accounting,
                    // which no takeover should paper over.
                    Err(err) => unreachable!("replica checkpoint unresolvable: {err:?}"),
                };
                (
                    stream_id,
                    RestoredReplica {
                        snapshot,
                        key_frames: replica.key_frames,
                        distill_steps: replica.distill_steps,
                    },
                )
            })
            .collect()
    }
}
