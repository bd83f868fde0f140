//! One shard: a shared teacher plus one distillation session per stream.
//!
//! A key frame's path through [`ServeShard::process_batch`] is *label once →
//! claim → distill → emit per job*: the batch's resolvable jobs share one
//! batched teacher forward, are regrouped into one work item per stream (all
//! of that stream's jobs, in scheduling order), and the items go through the
//! shard's distill crew ([`Crew`]) — claimed one at a time by the
//! calling thread and by whichever of the process's lanes take up the
//! batch. An item *owns* its stream's session for as long as it runs — moved
//! out of the shard ([`ServeShard::evict_stream`]) and moved back with the
//! item ([`ServeShard::adopt_stream`]) — so no session is ever borrowed
//! across threads or locked. Every finished [`KeyFrameResponse`] goes to
//! the batch's sink the moment the caller sees it, not when the batch ends.

#[cfg(doc)]
use super::ServerPool;
use super::{FrameStore, SessionWeights, ShardJob, ShardStats};
use crate::config::ShadowTutorConfig;
use crate::server::{DistillSession, KeyFrameResponse, StreamServerStats};
use crate::Result;
#[cfg(doc)]
use st_net::ServerToClient;
use st_net::{DropReason, StreamId};
use st_nn::delta::CheckpointDigest;
use st_nn::snapshot::WeightSnapshot;
use st_nn::store::SessionMemory;
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_tensor::parallel::{Crew, Event, Lanes, Ran};
use st_video::Frame;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Server-side delta-negotiation state of one stream: the digest of the
/// client's last-acked checkpoint (patched with every update actually
/// sent) and whether the stream is known to be in sync. An unsynced stream
/// — fresh registration pending its first update, or a failover-restored
/// session whose adopter cannot prove what the client last applied — gets
/// a full-snapshot envelope, which re-synchronizes it.
pub(super) struct DeltaTrack {
    pub(super) digest: CheckpointDigest,
    pub(super) synced: bool,
}

/// A stream's last settled state: its session's full checkpoint and
/// distillation counters, as they stood when no item held the session.
pub(super) struct Checkpoint {
    pub(super) weights: WeightSnapshot,
    pub(super) key_frames: usize,
    pub(super) distill_steps: usize,
}

impl Checkpoint {
    fn of(session: &mut DistillSession) -> Self {
        Checkpoint {
            weights: session.initial_checkpoint(),
            key_frames: session.key_frames_processed(),
            distill_steps: session.distill_steps_taken(),
        }
    }
}

/// One stream's registration state inside a shard.
pub(super) struct StreamEntry {
    pub(super) session: DistillSession,
    /// The stream's pre-shared frame content.
    frames: FrameStore,
    /// Delta-update negotiation state; `None` on legacy bare-snapshot
    /// streams. Marked unsynced by a takeover.
    pub(super) delta: Option<DeltaTrack>,
    /// The recovery point, kept only when the pool replicates
    /// ([`ServeShard::keep_checkpoint`]): taken at registration and
    /// whenever an item comes home whole. An item that comes home failed —
    /// a panic inside `distill` can leave the session half-stepped — has its
    /// session rebuilt from it on the spot.
    pub(super) checkpoint: Option<Checkpoint>,
}

/// One job of a [`CrewItem`].
struct ItemJob {
    /// The job's position in the batch handed to `process_batch`.
    index: usize,
    frame_index: usize,
    pseudo_label: Vec<usize>,
}

/// One stream's share of a batch, owning the stream's session while it
/// runs: the unit the distill crew claims.
pub(super) struct CrewItem {
    /// The item's position among the batch's items (scheduling order of
    /// each stream's first job).
    position: usize,
    stream_id: StreamId,
    entry: StreamEntry,
    /// The stream's jobs in scheduling order.
    jobs: Vec<ItemJob>,
    #[cfg(test)]
    hook: Option<ItemHook>,
}

/// One distilled key frame on its way from whoever ran the item to the
/// batch's sink.
pub(super) struct Served {
    position: usize,
    index: usize,
    response: KeyFrameResponse,
}

/// A [`CrewItem`] coming home: the session with it, and how its run ended —
/// served every job, failed one with a typed error, or panicked (the payload
/// is resumed by the batch's owner, inside its shard's pass).
pub(super) struct Finished {
    item: CrewItem,
    outcome: std::thread::Result<Result<()>>,
}

/// What a test sees of an item's run, from inside whoever runs it.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ItemEvent {
    /// The item is about to distill its first job.
    Started { stream_id: StreamId, ran: Ran },
    /// A job's response has just been handed on (to the sink by the owner,
    /// to the completion queue by a helper).
    Emitted {
        stream_id: StreamId,
        frame_index: usize,
        ran: Ran,
    },
}

/// Observe — or, by panicking, sabotage — items from inside their runner.
#[cfg(test)]
pub(super) type ItemHook = Arc<dyn Fn(ItemEvent) + Send + Sync>;

/// Run one item: Algorithm 1 for each of the stream's jobs in order, each
/// response emitted before the next job starts. Never unwinds — a panic
/// (in `distill`, or in the owner's sink behind `emit`) comes back in
/// [`Finished::outcome`] with the item, so the session is not lost with it.
pub(super) fn distill_item(mut item: CrewItem, ran: Ran, emit: &mut dyn FnMut(Served)) -> Finished {
    // Who runs an item changes nothing about the run; only the test hook
    // is told.
    let _ = ran;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        if let Some(hook) = &item.hook {
            hook(ItemEvent::Started {
                stream_id: item.stream_id,
                ran,
            });
        }
        let StreamEntry {
            session, frames, ..
        } = &mut item.entry;
        for job in &item.jobs {
            let Some(frame) = frames.peek(job.frame_index) else {
                unreachable!("frame shared: checked when the batch was resolved")
            };
            let response = session.distill(frame, &job.pseudo_label, 0.0)?;
            emit(Served {
                position: item.position,
                index: job.index,
                response,
            });
            #[cfg(test)]
            if let Some(hook) = &item.hook {
                hook(ItemEvent::Emitted {
                    stream_id: item.stream_id,
                    frame_index: job.frame_index,
                    ran,
                });
            }
        }
        Ok(())
    }));
    Finished { item, outcome }
}

/// Where [`ServeShard`] hands a batch's results as they come to exist.
pub(super) trait BatchSink {
    /// One key frame has been distilled. `index` is the job's position in
    /// the batch; `track` is the stream's delta negotiation, if any (the
    /// session itself may still be away, serving the stream's next job).
    fn served(
        &mut self,
        stats: &mut ShardStats,
        index: usize,
        job: ShardJob,
        response: KeyFrameResponse,
        track: Option<&mut DeltaTrack>,
    );

    /// Every job the batch held for `stream_id` has been served and its
    /// session is home and quiescent again.
    fn settled(&mut self, _stats: &mut ShardStats, _stream_id: StreamId, _entry: &mut StreamEntry) {
    }
}

/// The sink behind the public [`ServeShard::process_batch`]: keep every
/// response for the returned [`BatchOutcome`].
struct Collect(Vec<(usize, StreamId, usize, KeyFrameResponse)>);

impl BatchSink for Collect {
    fn served(
        &mut self,
        _stats: &mut ShardStats,
        index: usize,
        job: ShardJob,
        response: KeyFrameResponse,
        _track: Option<&mut DeltaTrack>,
    ) {
        self.0
            .push((index, job.stream_id, job.frame_index, response));
    }
}

/// Outcome of one co-scheduled batch: per-stream responses plus the jobs
/// that could not be served, each with its reason.
#[derive(Debug)]
pub struct BatchOutcome {
    /// `(stream, frame index, response)` per serviced key frame, in
    /// scheduling order.
    pub responses: Vec<(StreamId, usize, KeyFrameResponse)>,
    /// Jobs whose stream or frame was unknown. Counted in
    /// [`ShardStats::dropped_jobs`].
    pub dropped: Vec<(ShardJob, DropReason)>,
}

/// One shard: a shared teacher plus one distillation session per stream.
///
/// The shard is a synchronous state machine — the [`ServerPool`]'s reactor
/// drives it from a queue, and tests can drive it directly.
pub struct ServeShard<T: Teacher> {
    config: ShadowTutorConfig,
    template: StudentNet,
    session_weights: SessionWeights,
    teacher: T,
    sessions: HashMap<StreamId, StreamEntry>,
    pub(super) stats: ShardStats,
    /// The crew this shard's batches run through. A shard built on its own
    /// has a crew of one — the calling thread.
    crew: Arc<Crew>,
    #[cfg(test)]
    item_hook: Option<ItemHook>,
}

impl<T: Teacher> ServeShard<T> {
    /// Create a shard serving sessions cloned from `template`.
    /// `_distill_step_latency` is ignored, as in [`DistillSession::new`].
    pub fn new(
        config: ShadowTutorConfig,
        template: StudentNet,
        teacher: T,
        _distill_step_latency: f64,
    ) -> Self {
        ServeShard {
            config,
            template,
            session_weights: SessionWeights::CopyOnWrite,
            teacher,
            sessions: HashMap::new(),
            stats: ShardStats::default(),
            crew: Arc::new(Crew::new(Arc::clone(Lanes::global()), 0)),
            #[cfg(test)]
            item_hook: None,
        }
    }

    /// Run this shard's batches through `crew` — the pool's, shared by
    /// every shard — instead of a crew of the calling thread alone.
    pub(super) fn with_crew(mut self, crew: Arc<Crew>) -> Self {
        self.crew = crew;
        self
    }

    /// Install an observer (or saboteur) called from inside every item run.
    #[cfg(test)]
    pub(super) fn with_item_hook(mut self, hook: ItemHook) -> Self {
        self.item_hook = Some(hook);
        self
    }

    /// Set how sessions materialize their weights from the template.
    pub fn with_session_weights(mut self, session_weights: SessionWeights) -> Self {
        self.session_weights = session_weights;
        self
    }

    /// Materialize a session's starting weights from the template per the
    /// shard's [`SessionWeights`] mode.
    fn template_instance(&mut self) -> StudentNet {
        match self.session_weights {
            SessionWeights::CopyOnWrite => self.template.clone(),
            SessionWeights::DeepClone => self.template.deep_clone(),
        }
    }

    /// Register a stream: create its session and return the initial full
    /// checkpoint (Algorithm 3, line 1, per stream).
    ///
    /// A duplicate register does **not** clobber the live session or its
    /// pre-shared frames (the pool rejects duplicate connects before they
    /// reach the shard); it returns the session's current checkpoint. Either
    /// way the stream's delta track resets to synced-at-this-checkpoint:
    /// the caller is about to ship exactly this snapshot as
    /// [`ServerToClient::InitialStudent`].
    pub fn register(
        &mut self,
        stream_id: StreamId,
        frames: FrameStore,
        supports_delta: bool,
    ) -> WeightSnapshot {
        if !self.sessions.contains_key(&stream_id) {
            let session = DistillSession::new(self.config, self.template_instance(), 0.0);
            self.sessions.insert(
                stream_id,
                StreamEntry {
                    session,
                    frames,
                    delta: None,
                    checkpoint: None,
                },
            );
        }
        let Some(entry) = self.sessions.get_mut(&stream_id) else {
            unreachable!("session inserted above when absent")
        };
        let initial = entry.session.initial_checkpoint();
        entry.delta = supports_delta.then(|| DeltaTrack {
            digest: CheckpointDigest::of(&initial),
            synced: true,
        });
        initial
    }

    /// Pull a whole stream out of the shard: its live session and its frame
    /// cache, counters intact. This is how a crew work item comes to own
    /// its stream for as long as it runs.
    pub(super) fn evict_stream(&mut self, stream_id: StreamId) -> Option<StreamEntry> {
        self.sessions.remove(&stream_id)
    }

    /// Install a stream pulled out with [`evict_stream`](Self::evict_stream)
    /// — of this shard or, the session being self-contained, of another.
    pub(super) fn adopt_stream(&mut self, stream_id: StreamId, entry: StreamEntry) {
        debug_assert!(
            !self.sessions.contains_key(&stream_id),
            "a stream lives in exactly one place"
        );
        self.sessions.insert(stream_id, entry);
    }

    /// Keep a recovery checkpoint for one stream from now on (checkpoint
    /// replication), starting with the session as it stands.
    pub(super) fn keep_checkpoint(&mut self, stream_id: StreamId) {
        if let Some(entry) = self.sessions.get_mut(&stream_id) {
            entry.checkpoint = Some(Checkpoint::of(&mut entry.session));
        }
    }

    /// Sum every live session's storage split against the shard template.
    /// Cheap (pointer compares per tensor), but still sampled per batch,
    /// never per frame.
    pub(super) fn memory_profile(&mut self) -> SessionMemory {
        let mut total = SessionMemory::default();
        for entry in self.sessions.values_mut() {
            let m = SessionMemory::measure(entry.session.student_mut(), &mut self.template);
            total.shared_bytes += m.shared_bytes;
            total.private_bytes += m.private_bytes;
        }
        total
    }

    /// Bring a stream's recovery checkpoint, if it keeps one, level with an
    /// item that came home: a whole run moves it to the session as it now
    /// stands; a failed run rebuilds the session from it — a template
    /// instance with the checkpoint applied, counters restored, optimizer
    /// cold. `apply` skips every entry whose bits already equal the
    /// template's, so the frozen stages stay shared with the template.
    fn settle(&mut self, entry: &mut StreamEntry, whole: bool) {
        let Some(checkpoint) = &mut entry.checkpoint else {
            return;
        };
        if whole {
            *checkpoint = Checkpoint::of(&mut entry.session);
            return;
        }
        let base = self.template_instance();
        let Ok(session) = DistillSession::resume(
            self.config,
            base,
            &checkpoint.weights,
            checkpoint.key_frames,
            checkpoint.distill_steps,
        ) else {
            unreachable!("a session's own checkpoint applies to its template")
        };
        entry.session = session;
    }

    /// Number of streams currently registered.
    pub fn stream_count(&self) -> usize {
        self.sessions.len()
    }

    /// Whether a stream has a registered session.
    pub fn has_stream(&self, stream_id: StreamId) -> bool {
        self.sessions.contains_key(&stream_id)
    }

    /// Whether a stream has a registered session *and* shared the frame.
    pub fn has_frame(&self, stream_id: StreamId, frame_index: usize) -> bool {
        self.sessions
            .get(&stream_id)
            .is_some_and(|e| e.frames.touch(frame_index))
    }

    /// Ids of all currently registered streams.
    pub fn session_ids(&self) -> Vec<StreamId> {
        self.sessions.keys().copied().collect()
    }

    /// Process a co-scheduled batch of key frames: one batched teacher
    /// forward across the batch, then per-stream distillation through the
    /// shard's crew. Jobs whose stream or frame is unknown are returned in
    /// [`BatchOutcome::dropped`] and counted in
    /// [`ShardStats::dropped_jobs`] — never silently discarded.
    pub fn process_batch(&mut self, jobs: &[ShardJob]) -> Result<BatchOutcome> {
        let mut collected = Collect(Vec::with_capacity(jobs.len()));
        let dropped = self.process_batch_into(jobs, &mut collected)?;
        // Streams finish in whatever order the crew got to them; the
        // outcome lists them as they were scheduled.
        collected.0.sort_by_key(|(index, ..)| *index);
        Ok(BatchOutcome {
            responses: collected
                .0
                .into_iter()
                .map(|(_, stream_id, frame_index, response)| (stream_id, frame_index, response))
                .collect(),
            dropped,
        })
    }

    /// [`ServeShard::process_batch`] with the responses going to `sink` as
    /// they finish instead of into the returned outcome; returns the dropped
    /// jobs.
    ///
    /// A typed error from an item fails the call once every item is home; a
    /// panic inside an item — on whichever thread ran it — is resumed here,
    /// on the calling thread, likewise after every session is back in the
    /// shard (the earliest failing item in scheduling order wins). A failed
    /// item's session comes back rebuilt from its stream's checkpoint, when
    /// the stream keeps one, so the shard never holds a half-stepped one.
    pub(super) fn process_batch_into(
        &mut self,
        jobs: &[ShardJob],
        sink: &mut dyn BatchSink,
    ) -> Result<Vec<(ShardJob, DropReason)>> {
        // Resolve which jobs are servable. Frames stay where they are — they
        // are borrowed for labelling and distillation, never copied (a frame
        // is the whole RGB tensor plus its ground truth).
        let mut dropped = Vec::new();
        let mut resolved: Vec<(usize, ShardJob)> = Vec::new();
        for (index, job) in jobs.iter().enumerate() {
            match self.sessions.get(&job.stream_id) {
                None => dropped.push((*job, DropReason::UnknownStream)),
                Some(entry) if !entry.frames.touch(job.frame_index) => {
                    dropped.push((*job, DropReason::UnknownFrame));
                }
                Some(_) => resolved.push((index, *job)),
            }
        }
        self.stats.dropped_jobs += dropped.len();
        if resolved.is_empty() {
            return Ok(dropped);
        }

        // One teacher forward pass amortized over the co-scheduled frames,
        // wall-clock timed into `teacher_wall_time`.
        let batch = resolved.len();
        let teacher_started = Instant::now();
        let labels = {
            let frame_refs: Vec<&Frame> = resolved
                .iter()
                .map(|(_, job)| {
                    let Some(frame) = self.sessions[&job.stream_id].frames.peek(job.frame_index)
                    else {
                        unreachable!("frame shared: checked above")
                    };
                    frame
                })
                .collect();
            self.teacher.pseudo_label_batch(&frame_refs)?
        };
        self.stats.teacher_wall_time += teacher_started.elapsed();
        self.stats.teacher_batches += 1;
        self.stats.max_batch_observed = self.stats.max_batch_observed.max(batch);

        // One item per stream, in the order the streams first appear; each
        // takes its session out of the shard. The delta track stays behind:
        // the sink patches it per response, while the session may still be
        // away distilling the stream's next job.
        let mut items: Vec<CrewItem> = Vec::new();
        let mut tracks: Vec<Option<DeltaTrack>> = Vec::new();
        for ((index, job), pseudo_label) in resolved.into_iter().zip(labels) {
            let item_job = ItemJob {
                index,
                frame_index: job.frame_index,
                pseudo_label,
            };
            if let Some(item) = items.iter_mut().find(|i| i.stream_id == job.stream_id) {
                item.jobs.push(item_job);
                continue;
            }
            let Some(mut entry) = self.evict_stream(job.stream_id) else {
                unreachable!("session present: resolved above")
            };
            tracks.push(entry.delta.take());
            items.push(CrewItem {
                position: items.len(),
                stream_id: job.stream_id,
                entry,
                jobs: vec![item_job],
                #[cfg(test)]
                hook: self.item_hook.clone(),
            });
        }

        let mut failures: Vec<Option<std::thread::Result<Result<()>>>> =
            items.iter().map(|_| None).collect();
        let mut home: Vec<(StreamId, StreamEntry, bool)> = Vec::with_capacity(items.len());
        let stats = &mut self.stats;
        Arc::clone(&self.crew).run_batch(items, distill_item, |event, ran| match event {
            Event::Progress(Served {
                position,
                index,
                response,
            }) => {
                stats.key_frames += 1;
                stats.distill_steps += response.outcome.steps;
                stats.jobs_offloaded += usize::from(ran == Ran::Helper);
                sink.served(
                    stats,
                    index,
                    jobs[index],
                    response,
                    tracks[position].as_mut(),
                );
            }
            Event::Returned(Finished { item, outcome }) => {
                let CrewItem {
                    position,
                    stream_id,
                    mut entry,
                    ..
                } = item;
                entry.delta = tracks[position].take();
                let whole = matches!(outcome, Ok(Ok(())));
                if whole {
                    sink.settled(stats, stream_id, &mut entry);
                } else {
                    failures[position] = Some(outcome);
                }
                home.push((stream_id, entry, whole));
            }
        });
        for (stream_id, mut entry, whole) in home {
            self.settle(&mut entry, whole);
            self.adopt_stream(stream_id, entry);
        }
        match failures.into_iter().flatten().next() {
            Some(Err(panic)) => resume_unwind(panic),
            Some(Ok(result)) => result.map(|()| dropped),
            None => Ok(dropped),
        }
    }

    /// Finish a stream: remove its session, returning the final full
    /// checkpoint and the stream's counters (distillation half only — the
    /// pool worker merges in waits/throttles/drops).
    pub fn finish(&mut self, stream_id: StreamId) -> Option<(WeightSnapshot, StreamServerStats)> {
        self.sessions.remove(&stream_id).map(|mut entry| {
            let checkpoint = entry.session.initial_checkpoint();
            (checkpoint, entry.session.stats())
        })
    }

    /// The shard's counters so far.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }
}
