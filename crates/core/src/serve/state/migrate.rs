//! The work-stealing half of the shard state machine: what a migrating
//! stream carries, the donation policy, adoption, and the steal-protocol
//! housekeeping each pass runs.

use super::{locked, AwaitingFrames, Downlink, Envelope, Placements, ShardState, StreamMeter};
use crate::serve::shard::{ServeShard, StreamEntry};
use crate::serve::{FairScheduler, ScheduledJob};
use crate::steal::{FulfilOutcome, RequestReview, StealCore, MIN_STEAL_BACKLOG};
use st_net::StreamId;
use st_teacher::Teacher;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A whole stream in flight between two shards: everything the thief needs
/// to continue serving it exactly where the victim stopped.
pub(in crate::serve) struct MigratedStream {
    stream_id: StreamId,
    /// The donating shard — the thief re-homes the stream's checkpoint
    /// replica from this slot to its own.
    from_shard: usize,
    entry: StreamEntry,
    downlink: Downlink,
    meter: StreamMeter,
    /// The stream's still-queued jobs, FIFO order, original arrival times.
    jobs: Vec<ScheduledJob>,
    /// Jobs parked waiting for a frame re-share, keyed by frame index
    /// (every job waiting on that index).
    awaiting: Vec<(usize, Vec<ScheduledJob>)>,
}

/// The pool's instantiation of the generic work-stealing coordination core
/// ([`crate::steal::StealCore`]): migrated payloads are whole serving
/// sessions, forwarded payloads are uplink envelopes. The request-slot and
/// mailbox protocol lives in `steal.rs`, where the model-check suite
/// explores it exhaustively; the state machine only decides *when* to post,
/// donate, withdraw and close.
pub(in crate::serve) type StealRegistry = StealCore<MigratedStream, Envelope>;

/// A freshly adopted stream cannot be donated onward for this long, so a
/// backlogged stream ping-ponging between idle shards is bounded to one
/// hop per cooldown (and gets real service in between).
const STEAL_STICKY: Duration = Duration::from_millis(100);

/// A steal request left unanswered this long is withdrawn and re-targeted:
/// the victim it sits at may never become donatable (a lone backlogged
/// session, say) while some other shard's backlog deepens.
const STEAL_RETARGET: Duration = Duration::from_millis(100);

/// Install a migrated stream on its new shard: session + frame cache,
/// downlink, wait meter, queued jobs (original arrival times intact) and any
/// jobs parked for a frame re-share.
fn adopt_migrated<T: Teacher>(
    migrated: MigratedStream,
    shard: &mut ServeShard<T>,
    scheduler: &mut FairScheduler,
    downlinks: &mut HashMap<StreamId, Downlink>,
    meters: &mut HashMap<StreamId, StreamMeter>,
    awaiting: &mut AwaitingFrames,
    adopted_at: &mut HashMap<StreamId, Instant>,
) {
    let id = migrated.stream_id;
    adopted_at.insert(id, Instant::now());
    shard.adopt_stream(id, migrated.entry);
    downlinks.insert(id, migrated.downlink);
    let meter = meters.entry(id).or_default();
    meter.wait_total += migrated.meter.wait_total;
    meter.wait_max = meter.wait_max.max(migrated.meter.wait_max);
    meter.throttled += migrated.meter.throttled;
    meter.dropped += migrated.meter.dropped;
    for job in migrated.jobs {
        scheduler.push(id, job.job.frame_index, job.enqueued_at);
    }
    if !migrated.awaiting.is_empty() {
        let parked = awaiting.entry(id).or_default();
        for (frame_index, jobs) in migrated.awaiting {
            parked.entry(frame_index).or_default().extend(jobs);
        }
    }
}

/// Fulfil a pending steal request against this shard, if one exists and the
/// shard can spare a stream: hand the stream with the deepest queue — whole,
/// with its session, frame cache, queued jobs and parked re-shares — to the
/// thief's mailbox, and repoint the routing table so new traffic follows it.
///
/// The slot-lock discipline that makes the handoff race-free lives in
/// [`StealCore::fulfil_request`]; this function supplies the donation
/// *policy* (what to give, and when giving rebalances at all).
#[allow(clippy::too_many_arguments)]
fn maybe_donate<T: Teacher>(
    shard: &mut ServeShard<T>,
    scheduler: &mut FairScheduler,
    downlinks: &mut HashMap<StreamId, Downlink>,
    meters: &mut HashMap<StreamId, StreamMeter>,
    awaiting: &mut AwaitingFrames,
    adopted_at: &HashMap<StreamId, Instant>,
    steal: &StealRegistry,
    placements: &Placements,
    shard_index: usize,
    shard_wakers: &[st_net::Waker],
) {
    // The donated stream's id crosses from the prepare callback to the
    // delivered callback (which flips its route under the same slot lock).
    let donated = std::cell::Cell::new(None::<StreamId>);
    let outcome = steal.fulfil_request(
        shard_index,
        |_thief| {
            // Donate only when it actually rebalances: either there is
            // queued work *besides* the donated stream's queue, or this
            // shard keeps at least one other live session (whose future
            // arrivals it will serve while the thief drains the donated
            // backlog). A shard whose only session is its only backlog
            // never donates — that would just swap which worker idles. The
            // request stays pending otherwise — the backlog may deepen.
            let (stream_id, depth) = scheduler.busiest_stream()?;
            if scheduler.len() <= depth && shard.stream_count() < 2 {
                return None;
            }
            // A freshly adopted stream is sticky: it must receive real
            // service before it can hop again, or an idle pair of shards
            // could bounce it between them faster than either drains it.
            if adopted_at
                .get(&stream_id)
                .is_some_and(|at| at.elapsed() < STEAL_STICKY)
            {
                return None;
            }
            // Only registered streams ever queue jobs, so the downlink is
            // present; decline (rather than panic) if it somehow is not.
            let downlink = downlinks.remove(&stream_id)?;
            let jobs = scheduler.remove_stream(stream_id);
            let Some(entry) = shard.evict_stream(stream_id) else {
                // Same impossible case: restore what was taken.
                for job in jobs {
                    scheduler.push(stream_id, job.job.frame_index, job.enqueued_at);
                }
                downlinks.insert(stream_id, downlink);
                return None;
            };
            let meter = meters.remove(&stream_id).unwrap_or_default();
            let parked: Vec<(usize, Vec<ScheduledJob>)> = awaiting
                .remove(&stream_id)
                .map(|m| m.into_iter().collect())
                .unwrap_or_default();
            donated.set(Some(stream_id));
            Some((
                MigratedStream {
                    stream_id,
                    from_shard: shard_index,
                    entry,
                    downlink,
                    meter,
                    jobs,
                    awaiting: parked,
                },
                scheduler.len(),
            ))
        },
        |thief| {
            // Routing flips only after the stream is in the mailbox, so
            // traffic that beats the thief's next mailbox drain is deferred
            // there, never lost.
            if let Some(stream_id) = donated.get() {
                if let Some(route) = locked(placements).get(&stream_id) {
                    route.store(thief, Ordering::SeqCst);
                }
            }
        },
    );
    if let FulfilOutcome::Delivered { thief } = outcome {
        // The thief may be asleep in the poller rather than about to run
        // its steal tick — hand it the wakeup with the stream.
        shard_wakers[thief].wake();
    }
}

impl<T: Teacher> ShardState<T> {
    /// Adopt migrated streams and ingest forwarded traffic before touching
    /// the uplink, so a handoff is always visible before any envelope that
    /// raced past it. Also performs steal-request housekeeping: a victim
    /// that exited (or fulfilled through the mailbox) clears the slot; drop
    /// the marker once it no longer names us. A request that has sat
    /// unanswered past the re-target window is withdrawn instead, so a
    /// victim that can never donate (e.g. a lone backlogged session) does
    /// not pin this thief while a third shard drowns.
    pub(super) fn ingest_mailbox(&mut self, incoming: &mut Vec<Envelope>) {
        if !self.stealing {
            return;
        }
        let (migrated, mut mailbox_envelopes) = self.steal.drain_mailbox(self.shard_index);
        for stream in migrated {
            // Whatever we were waiting for, work has arrived.
            self.requested = None;
            self.on_migration(stream);
        }
        incoming.append(&mut mailbox_envelopes);
        if let Some((victim, posted_at)) = self.requested {
            let withdraw = posted_at.elapsed() >= STEAL_RETARGET;
            match self
                .steal
                .review_request(victim, self.shard_index, withdraw)
            {
                RequestReview::Pending => {}
                RequestReview::Gone | RequestReview::Withdrawn => self.requested = None,
            }
        }
    }

    /// A whole stream arrived through the steal mailbox: adopt its session,
    /// frame cache, queued jobs and downlink.
    pub(super) fn on_migration(&mut self, migrated: MigratedStream) {
        self.shard.stats.events_dispatched += 1;
        // The stream's checkpoint replica follows it: the content did not
        // change, only which shard's death would orphan it.
        if let Some(store) = &self.replicas {
            store.move_owner(migrated.stream_id, migrated.from_shard, self.shard_index);
        }
        adopt_migrated(
            migrated,
            &mut self.shard,
            &mut self.scheduler,
            &mut self.downlinks,
            &mut self.meters,
            &mut self.awaiting,
            &mut self.adopted_at,
        );
    }

    /// Steal participation: publish our backlog, serve a thief's pending
    /// request, and — once *patiently* idle — ask the most-loaded shard for
    /// work. Patience keeps a shard that is merely between its own streams'
    /// arrivals from pulling someone else's backlog over.
    pub(super) fn steal_participation(&mut self) {
        if !self.stealing || self.disconnected {
            return;
        }
        self.steal
            .publish_backlog(self.shard_index, self.scheduler.len());
        maybe_donate(
            &mut self.shard,
            &mut self.scheduler,
            &mut self.downlinks,
            &mut self.meters,
            &mut self.awaiting,
            &self.adopted_at,
            &self.steal,
            &self.placements,
            self.shard_index,
            &self.shard_wakers,
        );
        if self.scheduler.is_empty() {
            let idle_for = self.idle_since.get_or_insert_with(Instant::now).elapsed();
            if self.requested.is_none() && idle_for >= self.pool_config.steal_patience {
                self.requested = self
                    .steal
                    .post_request(self.shard_index, MIN_STEAL_BACKLOG)
                    .map(|v| (v, Instant::now()));
            }
        } else {
            self.idle_since = None;
            if let Some((victim, _posted_at)) = self.requested.take() {
                // Local work arrived; withdraw the request (if the victim
                // already fulfilled it, the next mailbox drain adopts it —
                // either way the marker is dropped).
                let _ = self.steal.withdraw_request(victim, self.shard_index);
            }
        }
    }

    /// The uplink is disconnected and the backlog drained: may the shard
    /// exit now? Under stealing, make sure no handoff can be in flight
    /// toward this worker before exiting, or the migrated stream's
    /// checkpoint would be lost. Cancelling under the request slot's lock
    /// guarantees any fulfilment is already in the mailbox, which the next
    /// pass drains — so a `false` answer means "run another pass first".
    pub(super) fn ready_to_exit(&mut self) -> bool {
        if !self.stealing {
            return true;
        }
        if let Some((victim, _posted_at)) = self.requested.take() {
            if !self.steal.withdraw_request(victim, self.shard_index) {
                // A fulfilment is (or was) in flight: the stream is already
                // in our mailbox; run another pass to adopt it first.
                return false;
            }
        }
        self.steal.mailbox_streams_empty(self.shard_index)
    }
}
