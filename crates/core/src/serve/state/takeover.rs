//! The warm-standby half of the shard state machine: noticing a ward's
//! published death and adopting its entire serving surface.
//!
//! An adopted stream is the dead shard's own, moved: its session (optimizer
//! included), frame store, delta track, DRR deficit, downlink, meter and
//! jobs come from the carcass (the dead shard's state, left in its slot).
//! No carcass holds a half-stepped session: a shard rebuilds a failed
//! item's session from the stream's checkpoint before the panic leaves it.
//! Items the dead shard left out on the crew come home before anything
//! moves: the lanes finish them regardless, and their key frames are
//! answered, not lost.

use super::{carcass_output, deliver, locked, note_drop, ShardState, Wait};
use crate::serve::failover::FailoverShared;
use st_net::{DropReason, ServerToClient, StreamId};
use st_teacher::Teacher;
use std::sync::mpsc;

impl<T: Teacher> ShardState<T> {
    /// The shard whose death this one stands by for: its predecessor in the
    /// ring (shard `k`'s standby is `k + 1`, so shard `b` watches `b - 1`).
    fn ward(&self) -> usize {
        (self.shard_index + self.pool_config.shards - 1) % self.pool_config.shards
    }

    /// Failover housekeeping, run once per pass: as the warm standby for
    /// our ward, adopt its streams if the board says it died. A death is a
    /// caught unwind, published on the board by the worker that caught it,
    /// which also wakes us, so the pass that reads it runs promptly. The
    /// claim CAS guarantees exactly one adopter even if another path (e.g.
    /// a future multi-standby scheme) races us.
    pub(super) fn failover_tick(&mut self, failover: &FailoverShared<T>) {
        if !self.pool_config.replication {
            return;
        }
        let ward = self.ward();
        if ward != self.shard_index && self.board.is_dead(ward) && self.board.try_claim(ward) {
            self.take_over(ward, failover);
        }
    }

    /// Adopt a dead ward's entire serving surface: move its streams here,
    /// re-queue its surviving jobs, drop-ack what is genuinely lost, take
    /// over its uplink, and assemble its final report from the carcass.
    fn take_over(&mut self, dead: usize, failover: &FailoverShared<T>) {
        // The carcass: the dead shard's state machine, left in its slot by
        // the pass that caught its unwind. An empty slot means the shard
        // actually finished cleanly and the death raced the exit — nothing
        // to adopt.
        let Some(mut carcass) = locked(&failover.states[dead]).take() else {
            return;
        };
        // Bring home every item the dead shard left out on the crew, waiting
        // for the lanes that still run them, and answer their key frames
        // through the carcass's downlinks, as the dead shard would have.
        // A failed one comes home rebuilt like any; its panic stays with
        // the dead shard, and its unanswered jobs are drop-acked below.
        carcass.drain_away(Wait::All);
        let _second_failure = carcass.shard.take_failure();
        // Move every stream here, in stream-id order: its session, frame
        // store, delta track and unspent DRR deficit as the carcass holds
        // them (the deficit is read before the carcass scheduler is drained
        // below). With every crew item home, the carcass holds every
        // registered stream. The adopter cannot prove what a
        // delta-negotiated client last applied, so the stream's next update
        // ships as a full snapshot (the delta re-sync).
        let mut adopted = carcass.shard.session_ids();
        adopted.sort_unstable();
        for stream_id in adopted {
            let Some(mut entry) = carcass.shard.evict_stream(stream_id) else {
                unreachable!("stream {stream_id} listed by the carcass")
            };
            if let Some(track) = &mut entry.delta {
                track.synced = false;
            }
            self.shard.adopt_stream(stream_id, entry);
            self.scheduler
                .set_deficit(stream_id, carcass.scheduler.deficit_of(stream_id));
            self.shard.stats.streams_adopted += 1;
        }
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
        // times. A job whose stream has no adopted session is
        // unrecoverable — explicit ShardFailed ack, never silence.
        let requeued = carcass.scheduler.drain_all();
        let torn = std::mem::take(&mut carcass.in_flight);
        for job in requeued {
            let stream_id = job.job.stream_id;
            if self.shard.has_stream(stream_id) {
                self.scheduler
                    .push(stream_id, job.job.frame_index, job.enqueued_at);
            } else {
                self.drop_failed_job(stream_id, job.job.frame_index);
            }
        }
        // What is still unanswered with every item home — a torn kill's
        // whole batch, the jobs of an item that failed — died with the
        // shard. (Jobs answered, by the dead shard or by the drain above,
        // are not here.)
        for job in torn.into_iter().flat_map(|flight| flight.unanswered) {
            self.drop_failed_job(job.job.stream_id, job.job.frame_index);
        }
        // Adopt the dead shard's ingress for the rest of the pool's life:
        // its uplink receiver (its streams keep sending there, and a
        // `Register` brings its own link) and — if the dead shard was
        // itself an adopter — every uplink *it* adopted. The reactor
        // forwards the dead shard's wakes here.
        let (_closed_tx, closed_rx) = mpsc::channel();
        self.adopted_rx
            .push(std::mem::replace(&mut carcass.rx, closed_rx));
        self.adopted_rx.append(&mut carcass.adopted_rx);
        // Every stream has left the carcass; file the dead shard's report.
        let died_at = self.board.death_instant(dead);
        self.board.push_dead_output(carcass_output(carcass));
        self.shard.stats.failovers += 1;
        if let Some(died_at) = died_at {
            self.takeover_samples.push(died_at.elapsed().as_secs_f64());
        }
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
                ServerToClient::Dropped {
                    frame_index,
                    reason: DropReason::ShardFailed,
                },
            );
        }
    }
}
