//! The warm-standby half of the shard state machine: heartbeat, death
//! detection, and adopting a dead ward's entire serving surface.

use super::{carcass_output, deliver, locked, note_drop, ShardState};
use crate::serve::failover::FailoverShared;
use crate::serve::FrameStore;
use crate::Result;
use st_net::message::MESSAGE_OVERHEAD_BYTES;
use st_net::{DropReason, ServerToClient, StreamId};
use st_teacher::Teacher;
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl<T: Teacher> ShardState<T> {
    /// The shard whose death this one stands by for: its predecessor in the
    /// ring (shard `k`'s standby is `k + 1`, so shard `b` watches `b - 1`).
    fn ward(&self) -> usize {
        (self.shard_index + self.pool_config.shards - 1) % self.pool_config.shards
    }

    /// Failover housekeeping, run once per pass: beat our liveness epoch
    /// and, as the warm standby for our ward, adopt its streams if it died.
    /// The claim CAS guarantees exactly one adopter even if another path
    /// (e.g. a future multi-standby scheme) races us.
    pub(super) fn failover_tick(&mut self, failover: &FailoverShared<T>) -> Result<()> {
        self.board.beat(self.shard_index);
        if self.replicas.is_none() {
            return Ok(());
        }
        let ward = self.ward();
        if ward != self.shard_index && self.board.is_dead(ward) && self.board.try_claim(ward) {
            self.take_over(ward, failover)?;
        }
        Ok(())
    }

    /// Adopt a dead ward's entire serving surface: restore its sessions
    /// from their replicated checkpoints, flip its routes here, re-queue
    /// its surviving jobs, drop-ack what is genuinely lost, and assemble
    /// its final report from the carcass.
    fn take_over(&mut self, dead: usize, failover: &FailoverShared<T>) -> Result<()> {
        // The carcass: the dead shard's state machine, left in its slot by
        // the pass that caught its unwind. An empty slot means the shard
        // actually finished cleanly and the death raced the exit — nothing
        // to adopt.
        let Some(mut carcass) = locked(&failover.states[dead]).take() else {
            return Ok(());
        };
        // Routing flip: every stream the table still points at the dead
        // shard — including connected-but-unregistered ones — now routes
        // here. Clients that loaded the old value already enqueued into the
        // dead uplink, which we drain via `adopted_rx` below.
        {
            let placements = locked(&self.placements);
            for route in placements.values() {
                if route.load(Ordering::SeqCst) == dead {
                    route.store(self.shard_index, Ordering::SeqCst);
                }
            }
        }
        // Restore every replicated session: full weights from the
        // content-addressed store, distillation counters, unspent DRR
        // deficit, and a known-but-evicted frame cache whose content the
        // existing NeedFrame/ReShare recovery re-fetches on demand.
        let mut restored: Vec<StreamId> = Vec::new();
        if let Some(store) = self.replicas.clone() {
            for (stream_id, replica) in store.take_owner(dead) {
                let frames = FrameStore::from_known_indices(
                    &replica.known_frames,
                    self.pool_config.frame_budget_bytes,
                );
                self.shard.restore_stream(
                    stream_id,
                    &replica.snapshot,
                    replica.key_frames,
                    replica.distill_steps,
                    frames,
                    replica.supports_delta,
                )?;
                self.scheduler.set_deficit(stream_id, replica.deficit);
                self.loads[dead].fetch_sub(1, Ordering::SeqCst);
                self.loads[self.shard_index].fetch_add(1, Ordering::SeqCst);
                self.shard.stats.streams_adopted += 1;
                restored.push(stream_id);
            }
        }
        // The adopted sessions are ours now; replicate them under our slot
        // so a second failure stays recoverable.
        self.publish_replicas(&restored);
        // Per-stream plumbing survives the crash: downlinks (the clients
        // are still connected) and live wait meters.
        for (stream_id, downlink) in carcass.downlinks.drain() {
            self.downlinks.entry(stream_id).or_insert(downlink);
        }
        for (stream_id, meter) in carcass.meters.drain() {
            let merged = self.meters.entry(stream_id).or_default();
            merged.wait_total += meter.wait_total;
            merged.wait_max = merged.wait_max.max(meter.wait_max);
            merged.throttled += meter.throttled;
            merged.dropped += meter.dropped;
        }
        // Queued jobs survived in the carcass scheduler (a clean kill fires
        // before the drain): re-queue them with their original arrival
        // times. A job whose stream has no restored session is
        // unrecoverable — explicit ShardFailed ack, never silence.
        let requeued = carcass.scheduler.drain_all();
        let torn = std::mem::take(&mut carcass.torn_jobs);
        for job in requeued {
            let stream_id = job.job.stream_id;
            if self.shard.has_stream(stream_id) {
                self.scheduler
                    .push(stream_id, job.job.frame_index, job.enqueued_at);
            } else {
                self.drop_failed_job(stream_id, job.job.frame_index);
            }
        }
        // What the dying pass had in flight and had not answered — a torn
        // kill's whole batch, or the rest of a batch a panic cut short —
        // died with the shard. (Jobs it *had* answered are not here.)
        for job in torn {
            self.drop_failed_job(job.job.stream_id, job.job.frame_index);
        }
        // Jobs parked for a re-share: merge them and re-issue one NeedFrame
        // per parked index — the original request may have been answered
        // into the dead shard's frame cache, which is gone.
        for (stream_id, indices) in carcass.awaiting.drain() {
            let parked = self.awaiting.entry(stream_id).or_default();
            for (frame_index, jobs) in indices {
                let entry = parked.entry(frame_index).or_default();
                let request_content = entry.is_empty();
                entry.extend(jobs);
                if request_content {
                    if let Some(downlink) = self.downlinks.get(&stream_id) {
                        deliver(
                            &mut self.shard.stats,
                            downlink,
                            MESSAGE_OVERHEAD_BYTES,
                            ServerToClient::NeedFrame { frame_index },
                        );
                    }
                    self.need_frames_sent.push((stream_id, frame_index));
                }
            }
        }
        // Adopt the dead shard's ingress for the rest of the pool's life:
        // its uplink receiver (clients may race the routing flip), its
        // connect-time registry (a Register may race the death), and — if
        // the dead shard was itself an adopter — everything *it* adopted.
        let (_closed_tx, closed_rx) = crossbeam::channel::unbounded();
        self.adopted_rx
            .push(std::mem::replace(&mut carcass.rx, closed_rx));
        self.adopted_registries.push(Arc::clone(&carcass.registry));
        self.adopted_shards.push(dead);
        self.adopted_rx.append(&mut carcass.adopted_rx);
        self.adopted_registries
            .append(&mut carcass.adopted_registries);
        self.adopted_shards.append(&mut carcass.adopted_shards);
        // The carcass's sessions were superseded by the replica restore;
        // keep their cache counters, then file the dead shard's report.
        carcass.shard.discard_sessions();
        let died_at = self.board.death_instant(dead);
        self.board.push_dead_output(carcass_output(carcass));
        self.shard.stats.failovers += 1;
        if let Some(died_at) = died_at {
            self.takeover_samples.push(died_at.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Ack one job lost to a shard failure with [`DropReason::ShardFailed`].
    fn drop_failed_job(&mut self, stream_id: StreamId, frame_index: usize) {
        self.shard.stats.frames_lost_on_failover += 1;
        self.shard.stats.dropped_jobs += 1;
        note_drop(&mut self.streams, &mut self.meters, stream_id);
        if let Some(downlink) = self.downlinks.get(&stream_id) {
            deliver(
                &mut self.shard.stats,
                downlink,
                MESSAGE_OVERHEAD_BYTES,
                ServerToClient::Dropped {
                    frame_index,
                    reason: DropReason::ShardFailed,
                },
            );
        }
    }
}
