//! One shard: a shared teacher plus one distillation session per stream.
//!
//! A key frame's path through the shard is *label once → claim → distill →
//! emit per job*: the batch's resolvable jobs share one batched teacher
//! forward, are regrouped into one work item per stream (all of that
//! stream's jobs, in scheduling order), and the items go through the
//! shard's distill crew ([`Crew`]) — claimed one at a time by the calling
//! thread and by whichever of the process's lanes take up the batch. An
//! item *owns* its stream's session for as long as it runs — moved out of
//! the shard ([`ServeShard::evict_stream`]) and moved back with the item
//! ([`ServeShard::adopt_stream`]) — so no session is ever borrowed across
//! threads or locked. Every finished [`KeyFrameResponse`] goes to the
//! batch's sink the moment the caller sees it, not when the batch ends.
//!
//! The caller does not wait for the lanes: once it has no item left to
//! claim, the batch stays open and the streams whose items lanes still run
//! are *away*. Their items come home — and their responses reach a sink —
//! whenever the caller next drains ([`ServeShard::drain`]): between its own
//! items of a later batch, at the start of its next pass, or blocking. An
//! away stream is still registered (its key frames are recognised, its
//! memory counted) but is in no batch until it is home, so a stream never
//! has two items in flight. [`ServeShard::process_batch`] drains blocking
//! and so keeps the whole batch inside the call.

#[cfg(doc)]
use super::ServerPool;
use super::{FrameStore, SessionWeights, ShardJob, ShardStats};
use crate::config::ShadowTutorConfig;
use crate::server::{DistillSession, KeyFrameResponse, StreamServerStats};
use crate::Result;
#[cfg(doc)]
use st_net::ServerToClient;
use st_net::{DropReason, StreamId};
use st_nn::snapshot::WeightSnapshot;
use st_nn::store::SessionMemory;
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_tensor::parallel::{Crew, Event, Lanes, Notify, OpenBatch, Ran};
use st_video::Frame;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

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
    /// The stream's pre-shared frame content (also held by the shard while
    /// the entry is away, so the stream's key frames stay recognised).
    frames: Arc<FrameStore>,
    /// The recovery point, kept only when the pool replicates
    /// ([`ServeShard::keep_checkpoint`]): taken at registration and
    /// whenever an item comes home whole. An item that comes home failed —
    /// a panic inside `distill` can leave the session half-stepped — has its
    /// session rebuilt from it on the spot.
    pub(super) checkpoint: Option<Checkpoint>,
}

/// One job of a [`CrewItem`].
struct ItemJob {
    /// The job's position in the batch handed to
    /// [`open_batch`](ServeShard::open_batch).
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
    index: usize,
    response: KeyFrameResponse,
}

/// How an item's run ended: served every job, failed one with a typed
/// error, or panicked (the payload is resumed by the batch's owner, inside
/// its shard's pass).
type ItemOutcome = std::thread::Result<Result<()>>;

/// A [`CrewItem`] coming home: the session with it, and how its run ended.
pub(super) struct Finished {
    item: CrewItem,
    outcome: ItemOutcome,
    /// When the run ended, on whichever thread ran it: where the shard's
    /// busy time stops if this was the last item out.
    done_at: Instant,
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
    Finished {
        item,
        outcome,
        done_at: Instant::now(),
    }
}

/// Where [`ServeShard`] hands a batch's results as they come to exist.
pub(super) trait BatchSink {
    /// One key frame has been distilled. `index` is the job's position in
    /// the batch (the session itself may still be away, serving the
    /// stream's next job).
    fn served(
        &mut self,
        stats: &mut ShardStats,
        index: usize,
        job: ShardJob,
        response: KeyFrameResponse,
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

/// The distill crew's work function, as an open batch's type names it.
type DistillFn = fn(CrewItem, Ran, &mut dyn FnMut(Served)) -> Finished;

/// A batch whose items are not all home: the crew's handle on it and what
/// its events need at home.
struct OpenItems {
    record: BatchRecord,
    crew: OpenBatch<CrewItem, Served, Finished, DistillFn>,
}

/// What the events of an open batch need at home.
struct BatchRecord {
    /// The batch's number: orders failures across batches.
    seq: usize,
    /// The batch's jobs as handed in; a served job is reported as one.
    jobs: Vec<ShardJob>,
}

/// A registered stream whose session is out in an item of an open batch.
struct Away {
    /// The `seq` of the open batch holding it.
    batch: usize,
    frames: Arc<FrameStore>,
    /// Key frames its item holds.
    jobs: usize,
    /// The session's storage split as it left.
    memory: SessionMemory,
}

/// An item that came home, waiting to be settled into the shard.
struct Homecoming {
    stream_id: StreamId,
    entry: StreamEntry,
    outcome: ItemOutcome,
    /// `(batch seq, position)`: its place in scheduling order.
    order: (usize, usize),
    done_at: Instant,
}

/// How long [`ServeShard::drain`] waits for the lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Wait {
    /// Not at all: bring home what has returned so far.
    None,
    /// Until this stream is home (a blocking drain of its batch).
    Stream(StreamId),
    /// Until every item is home.
    All,
}

impl BatchRecord {
    /// Route one event of the batch: a served job to `sink` (and the
    /// shard's counters), a returned item onto `home`.
    fn absorb(
        &mut self,
        stats: &mut ShardStats,
        sink: &mut dyn BatchSink,
        home: &mut Vec<Homecoming>,
        event: Event<Served, Finished>,
        ran: Ran,
    ) {
        let BatchRecord { seq, jobs } = self;
        match event {
            Event::Progress(Served { index, response }) => {
                stats.key_frames += 1;
                stats.distill_steps += response.outcome.steps;
                stats.jobs_offloaded += usize::from(ran == Ran::Helper);
                sink.served(stats, index, jobs[index], response);
            }
            Event::Returned(Finished {
                item,
                outcome,
                done_at,
            }) => {
                let CrewItem {
                    position,
                    stream_id,
                    mut entry,
                    ..
                } = item;
                if matches!(outcome, Ok(Ok(()))) {
                    sink.settled(stats, stream_id, &mut entry);
                }
                home.push(Homecoming {
                    stream_id,
                    entry,
                    outcome,
                    order: (*seq, position),
                    done_at,
                });
            }
        }
    }
}

/// Drain every open batch, blocking on the ones `wait` names.
fn drain_open(
    open: &mut [OpenItems],
    away: &HashMap<StreamId, Away>,
    stats: &mut ShardStats,
    sink: &mut dyn BatchSink,
    home: &mut Vec<Homecoming>,
    wait: Wait,
) {
    for batch in open {
        let block = match wait {
            Wait::None => false,
            Wait::All => true,
            Wait::Stream(stream_id) => away
                .get(&stream_id)
                .is_some_and(|a| a.batch == batch.record.seq),
        };
        let OpenItems { record, crew } = batch;
        let mut absorb = |event, ran| record.absorb(stats, &mut *sink, home, event, ran);
        // Before blocking, run whatever no one has claimed (nothing, unless
        // the pass that opened the batch died inside its own share).
        while block && crew.run_next(&mut absorb) {}
        crew.drain(block, &mut absorb);
    }
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
    /// Registered streams whose sessions are home.
    sessions: HashMap<StreamId, StreamEntry>,
    /// Registered streams whose sessions are out in an open batch's item.
    away: HashMap<StreamId, Away>,
    /// Batches with items still out, oldest first.
    open: Vec<OpenItems>,
    /// Batches opened so far (the next batch's `seq`).
    batches_opened: usize,
    /// Items that came home failed since the failure was last raised, with
    /// their place in scheduling order. Their sessions are settled already.
    failures: Vec<((usize, usize), ItemOutcome)>,
    /// When the current busy stretch — some batch in progress, on the
    /// caller or on lanes — began, and the latest its work was seen to end.
    busy_since: Option<Instant>,
    busy_until: Instant,
    pub(super) stats: ShardStats,
    /// The crew this shard's batches run through. A shard built on its own
    /// has a crew of one — the calling thread.
    crew: Arc<Crew>,
    /// Called by a lane after each event it posts for this shard.
    notify: Option<Notify>,
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
            away: HashMap::new(),
            open: Vec::new(),
            batches_opened: 0,
            failures: Vec::new(),
            busy_since: None,
            busy_until: Instant::now(),
            stats: ShardStats::default(),
            crew: Arc::new(Crew::new(Arc::clone(Lanes::global()), 0)),
            notify: None,
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

    /// Have every lane that posts an event of this shard's batches call
    /// `notify` (the pool passes the shard's readiness waker), so a caller
    /// that left a batch open learns when to drain it.
    pub(super) fn with_notify(mut self, notify: Notify) -> Self {
        self.notify = Some(notify);
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
    /// checkpoint (Algorithm 3, line 1, per stream), which the caller ships
    /// as [`ServerToClient::InitialStudent`].
    ///
    /// A duplicate register does **not** clobber the live session or its
    /// pre-shared frames (the pool rejects duplicate connects before they
    /// reach the shard); it returns the session's current checkpoint.
    /// `_supports_delta` is ignored: a shard keeps nothing per stream about
    /// the update encoding. It stays only because `stbench`'s probes call
    /// this with three arguments (ROADMAP item 18).
    pub fn register(
        &mut self,
        stream_id: StreamId,
        frames: FrameStore,
        _supports_delta: bool,
    ) -> WeightSnapshot {
        debug_assert!(
            !self.away.contains_key(&stream_id),
            "a stream registers once, before it has any item out"
        );
        if !self.sessions.contains_key(&stream_id) {
            let session = DistillSession::new(self.config, self.template_instance(), 0.0);
            self.sessions.insert(
                stream_id,
                StreamEntry {
                    session,
                    frames: Arc::new(frames),
                    checkpoint: None,
                },
            );
        }
        let Some(entry) = self.sessions.get_mut(&stream_id) else {
            unreachable!("session inserted above when absent")
        };
        entry.session.initial_checkpoint()
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
            !self.sessions.contains_key(&stream_id) && !self.away.contains_key(&stream_id),
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

    /// Sum every registered session's storage split against the shard
    /// template: a session at home as it stands, an away one as it left.
    /// Cheap (pointer compares per tensor), but still sampled per batch,
    /// never per frame.
    pub(super) fn memory_profile(&mut self) -> SessionMemory {
        let mut total = SessionMemory::default();
        let home = self
            .sessions
            .values_mut()
            .map(|entry| SessionMemory::measure(entry.session.student_mut(), &mut self.template));
        for m in home.chain(self.away.values().map(|away| away.memory)) {
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

    /// Number of streams currently registered, home or away.
    pub fn stream_count(&self) -> usize {
        self.sessions.len() + self.away.len()
    }

    /// Whether a stream has a registered session (home or away).
    pub fn has_stream(&self, stream_id: StreamId) -> bool {
        self.sessions.contains_key(&stream_id) || self.away.contains_key(&stream_id)
    }

    /// Whether a stream has a registered session *and* shared the frame.
    pub fn has_frame(&self, stream_id: StreamId, frame_index: usize) -> bool {
        match self.sessions.get(&stream_id) {
            Some(entry) => entry.frames.touch(frame_index),
            None => self
                .away
                .get(&stream_id)
                .is_some_and(|away| away.frames.touch(frame_index)),
        }
    }

    /// Ids of all currently registered streams, home or away.
    pub fn session_ids(&self) -> Vec<StreamId> {
        self.sessions
            .keys()
            .chain(self.away.keys())
            .copied()
            .collect()
    }

    /// Whether the stream's session is out in an open batch's item.
    pub(super) fn is_away(&self, stream_id: StreamId) -> bool {
        self.away.contains_key(&stream_id)
    }

    /// Key frames of the stream that an item out on the crew holds.
    pub(super) fn away_jobs(&self, stream_id: StreamId) -> usize {
        self.away.get(&stream_id).map_or(0, |away| away.jobs)
    }

    /// Whether some batch still has an item out.
    pub(super) fn has_open(&self) -> bool {
        !self.open.is_empty()
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
    /// jobs. [`open_batch`](Self::open_batch), then a blocking
    /// [`drain`](Self::drain), then [`raise_failure`](Self::raise_failure):
    /// every item is home when it returns.
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
        let dropped = self.open_batch(jobs, sink)?;
        self.drain(Wait::All, sink);
        self.raise_failure().map(|()| dropped)
    }

    /// Start a batch and run the caller's share of it: label, form one item
    /// per stream, claim and run items until none is left to claim, draining
    /// every open batch between items. Items lanes still run stay out: their
    /// streams are away until a later [`drain`](Self::drain) brings them
    /// home. Returns the dropped jobs; a teacher error fails the call before
    /// any item exists. An item that fails is recorded for
    /// [`raise_failure`](Self::raise_failure), its session settled as it
    /// comes home. Every job must belong to a stream that is home.
    pub(super) fn open_batch(
        &mut self,
        jobs: &[ShardJob],
        sink: &mut dyn BatchSink,
    ) -> Result<Vec<(ShardJob, DropReason)>> {
        let started = Instant::now();
        // Resolve which jobs are servable. Frames stay where they are — they
        // are borrowed for labelling and distillation, never copied (a frame
        // is the whole RGB tensor plus its ground truth).
        let mut dropped = Vec::new();
        let mut resolved: Vec<(usize, ShardJob)> = Vec::new();
        for (index, job) in jobs.iter().enumerate() {
            debug_assert!(
                !self.away.contains_key(&job.stream_id),
                "stream {} has an item out already",
                job.stream_id
            );
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
        self.busy_since.get_or_insert(started);

        // One item per stream, in the order the streams first appear; each
        // takes its session out of the shard, which keeps the stream's
        // frames and memory split meanwhile.
        let seq = self.batches_opened;
        self.batches_opened += 1;
        let mut items: Vec<CrewItem> = Vec::new();
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
            let memory = SessionMemory::measure(entry.session.student_mut(), &mut self.template);
            self.away.insert(
                job.stream_id,
                Away {
                    batch: seq,
                    frames: Arc::clone(&entry.frames),
                    jobs: 0,
                    memory,
                },
            );
            items.push(CrewItem {
                position: items.len(),
                stream_id: job.stream_id,
                entry,
                jobs: vec![item_job],
                #[cfg(test)]
                hook: self.item_hook.clone(),
            });
        }
        for item in &items {
            if let Some(away) = self.away.get_mut(&item.stream_id) {
                away.jobs = item.jobs.len();
            }
        }

        let crew = self
            .crew
            .open(items, distill_item as DistillFn, self.notify.clone());
        self.open.push(OpenItems {
            record: BatchRecord {
                seq,
                jobs: jobs.to_vec(),
            },
            crew,
        });
        // The caller's share, with every open batch drained between its
        // items: the newest batch is last, and no batch leaves `open` before
        // `come_home` below.
        let current = self.open.len() - 1;
        let mut home = Vec::new();
        loop {
            let OpenItems { record, crew } = &mut self.open[current];
            let stats = &mut self.stats;
            let ran = crew.run_next(&mut |event, ran| {
                record.absorb(stats, &mut *sink, &mut home, event, ran)
            });
            drain_open(
                &mut self.open,
                &self.away,
                &mut self.stats,
                sink,
                &mut home,
                Wait::None,
            );
            if !ran {
                break;
            }
        }
        self.come_home(home);
        // The caller's share ends here, settling included.
        self.busy_until = self.busy_until.max(Instant::now());
        self.end_busy_stretch();
        Ok(dropped)
    }

    /// Bring home what the lanes have returned of every open batch, waiting
    /// as `wait` says: served jobs go to `sink`, returned items are settled
    /// into the shard. A failed item is recorded for
    /// [`raise_failure`](Self::raise_failure).
    pub(super) fn drain(&mut self, wait: Wait, sink: &mut dyn BatchSink) {
        if self.open.is_empty() {
            return;
        }
        let mut home = Vec::new();
        drain_open(
            &mut self.open,
            &self.away,
            &mut self.stats,
            sink,
            &mut home,
            wait,
        );
        self.come_home(home);
        self.end_busy_stretch();
    }

    /// Settle returned items into the shard and retire finished batches.
    fn come_home(&mut self, home: Vec<Homecoming>) {
        for Homecoming {
            stream_id,
            mut entry,
            outcome,
            order,
            done_at,
        } in home
        {
            self.busy_until = self.busy_until.max(done_at);
            self.away.remove(&stream_id);
            let whole = matches!(outcome, Ok(Ok(())));
            self.settle(&mut entry, whole);
            self.adopt_stream(stream_id, entry);
            if !whole {
                self.failures.push((order, outcome));
            }
        }
        self.open.retain(|batch| !batch.crew.is_done());
    }

    /// Once no batch has an item out, count the busy stretch: from the
    /// start of its first batch to the end of its last work.
    fn end_busy_stretch(&mut self) {
        if self.open.is_empty() {
            if let Some(since) = self.busy_since.take() {
                self.stats.busy_time += self.busy_until.saturating_duration_since(since);
            }
        }
    }

    /// The earliest (in scheduling order) of the items that came home
    /// failed since the last call, if any; the others are dropped with the
    /// call. Their sessions are settled already.
    pub(super) fn take_failure(&mut self) -> Option<ItemOutcome> {
        let earliest = (0..self.failures.len()).min_by_key(|&at| self.failures[at].0)?;
        let (_, outcome) = self.failures.swap_remove(earliest);
        self.failures.clear();
        Some(outcome)
    }

    /// Raise [`take_failure`](Self::take_failure)'s: a typed error as the
    /// result, a panic resumed on the calling thread.
    pub(super) fn raise_failure(&mut self) -> Result<()> {
        match self.take_failure() {
            Some(Err(panic)) => resume_unwind(panic),
            Some(Ok(result)) => result,
            None => Ok(()),
        }
    }

    /// Finish a stream: remove its session, returning the final full
    /// checkpoint and the stream's counters (distillation half only — the
    /// pool worker merges in waits/throttles/drops). `None` for a stream
    /// that is not registered or is away: drain it home first.
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
