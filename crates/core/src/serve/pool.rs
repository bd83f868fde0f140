//! The pool handle ([`ServerPool`]) and the client's endpoint onto it
//! ([`StreamClient`]).

use super::failover::{FailoverBoard, FailoverShared};
use super::locked;
use super::reactor::{escaped_panic, run_reactor_worker, ReactorShared};
use super::replica::ReplicaStore;
use super::state::{
    Downlink, Envelope, Placements, Registry, Route, ShardLoads, ShardOutput, ShardState,
    StreamLink, WireMeter,
};
use super::{FrameStore, PoolConfig, PoolError, PoolStats, ServeShard};
use crate::config::{PlacementPolicy, ShadowTutorConfig};
use crate::Result;
use st_net::message::MESSAGE_OVERHEAD_BYTES;
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, Payload, ServerToClient, StreamId, StreamTagged, TransportError};
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::store::{CheckpointRef, WeightStore};
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_tensor::parallel::{Crew, Lanes};
use st_tensor::TensorError;
use st_video::Frame;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The client's endpoint onto the pool: same surface as the single-stream
/// transport, but every uplink message is stream-tagged and lands in the
/// owning shard's queue. The owning shard is looked up per send, so when a
/// standby adopts the stream from a dead shard its traffic follows it
/// (messages already queued at the dead shard are drained by the adopter).
pub struct StreamClient {
    stream_id: StreamId,
    uplinks: Arc<Vec<crossbeam::channel::Sender<Envelope>>>,
    /// The stream's live shard assignment (shared with the routing table; a
    /// takeover stores the adopting shard here).
    route: Route,
    downlink: crossbeam::channel::Receiver<(usize, ServerToClient)>,
    /// Per-shard wakers, indexed like `uplinks`. Every uplink send wakes
    /// the owning shard's token so a reactor worker dispatches it.
    shard_wakers: Arc<Vec<st_net::Waker>>,
    /// Pool-wide measured-traffic counters (this client credits uplink).
    wire: Arc<WireMeter>,
    /// Failover blackboard, consulted by [`ClientEndpoint::reconnect`]: a
    /// client caught mid-takeover can tell whether its routed shard is a
    /// carcass (retry later) or live again (resume sending).
    board: Arc<FailoverBoard>,
    /// Latched when the downlink channel reports disconnected. The downlink
    /// sender survives takeovers (it moves with the session), so a closed
    /// downlink means the session itself is gone — no reconnect re-dials it.
    downlink_closed: bool,
}

impl StreamClient {
    /// The stream this client speaks for.
    pub fn stream_id(&self) -> StreamId {
        self.stream_id
    }

    /// Answer a [`ServerToClient::NeedFrame`]: re-upload a frame the server
    /// evicted from the stream's bounded cache. The wire cost is the same as
    /// the original key-frame upload; the parked job resumes (and its
    /// `StudentUpdate` arrives) once the content lands.
    pub fn reshare(&mut self, frame: &Frame) -> std::result::Result<(), TransportError> {
        self.send_envelope(
            ClientToServer::ReShare {
                frame_index: frame.index,
                payload: Payload::sized(frame.raw_rgb_bytes()),
            },
            Some(frame.clone()),
        )
    }

    fn send_envelope(
        &mut self,
        message: ClientToServer,
        frame: Option<Frame>,
    ) -> std::result::Result<(), TransportError> {
        let shard = self.route.load(Ordering::SeqCst);
        let tagged = StreamTagged::new(self.stream_id, message);
        // The measured uplink cost of this envelope: the framed tagged
        // message, plus the frame content when it rides along (a re-share
        // re-uploads real pixels).
        let wire_len =
            st_net::wire::frame_len(&tagged) + frame.as_ref().map_or(0, st_net::wire::frame_len);
        self.uplinks[shard]
            .send(Envelope {
                tagged,
                enqueued_at: Instant::now(),
                frame,
            })
            .map_err(|_| TransportError::Disconnected)?;
        // ORDER: Relaxed — a monotonic traffic counter; readers only see it
        // after join() synchronizes with every worker's exit.
        self.wire.up.fetch_add(wire_len, Ordering::Relaxed);
        self.shard_wakers[shard].wake();
        Ok(())
    }
}

impl ClientEndpoint for StreamClient {
    fn send(
        &mut self,
        message: ClientToServer,
        _bytes: usize,
    ) -> std::result::Result<(), TransportError> {
        self.send_envelope(message, None)
    }

    fn try_recv(&mut self) -> std::result::Result<Option<ServerToClient>, TransportError> {
        match self.downlink.try_recv() {
            Ok((_bytes, msg)) => Ok(Some(msg)),
            Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                self.downlink_closed = true;
                Err(TransportError::Disconnected)
            }
        }
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> std::result::Result<ServerToClient, TransportError> {
        match self.downlink.recv_timeout(timeout) {
            Ok((_bytes, msg)) => Ok(msg),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                self.downlink_closed = true;
                Err(TransportError::Disconnected)
            }
        }
    }

    /// Re-dial after a takeover: the adoption flips this stream's shared
    /// route, so re-reading it *is* the reconnect. `Ok(())` once the
    /// routed shard is live again; `Err(Timeout)` while it is still a
    /// carcass (back off and retry — a standby may adopt it);
    /// `Err(Disconnected)` once the session itself is gone (closed
    /// downlink), which no retry re-dials.
    fn reconnect(&mut self) -> std::result::Result<(), TransportError> {
        if self.downlink_closed {
            return Err(TransportError::Disconnected);
        }
        let shard = self.route.load(Ordering::SeqCst);
        if self.board.is_dead(shard) {
            Err(TransportError::Timeout)
        } else {
            Ok(())
        }
    }
}

/// A sharded pool of distillation workers serving many client streams.
///
/// The pool is an event-driven reactor: all shard state machines are
/// hosted on a fixed set of worker threads
/// ([`PoolConfig::reactor_threads`]; one per shard by default) woken by
/// send-side readiness tokens and a shared deadline heap. Every worker
/// count runs the same `ShardState` machine, so a stream cannot tell how
/// many threads served it.
///
/// The cores the reactor workers leave idle host the **distill crew**:
/// each batch is offered to up to `available_parallelism − reactor
/// workers` of the process's parked lanes (none when the workers already
/// cover the cores; never more than `max_batch − 1`, the most a batch could
/// keep busy beside its own worker), which claim per-stream work items out
/// of whichever shard's batch is in flight. The width is derived, not
/// configured: a stream cannot tell whether a lane or its shard's worker
/// distilled its key frame either.
pub struct ServerPool {
    pool_config: PoolConfig,
    uplinks: Arc<Vec<crossbeam::channel::Sender<Envelope>>>,
    registries: Vec<Registry>,
    /// Registered-session count per shard: what least-loaded placement
    /// reads.
    loads: ShardLoads,
    /// Stream → shard placements made so far, shared with clients (send
    /// routing) and workers (a takeover's routing flip). A stream id stays
    /// reserved for the pool's lifetime; reconnecting a finished id needs a
    /// new pool.
    placements: Placements,
    /// One handle per reactor worker, each returning the outputs of
    /// whichever shards it finalized.
    workers: Vec<std::thread::JoinHandle<Result<Vec<ShardOutput>>>>,
    /// Measured wire traffic for the whole pool, shared with every
    /// [`StreamClient`] (uplink) and [`Downlink`] (downlink).
    wire: Arc<WireMeter>,
    /// Per-shard readiness wakers. `join` wakes every shard once the
    /// uplinks are dropped so each one observes the disconnect and runs its
    /// exit protocol.
    shard_wakers: Arc<Vec<st_net::Waker>>,
    /// Failover blackboard: worker deaths, adoption claims, and the dead
    /// shards' standby-assembled final outputs.
    board: Arc<FailoverBoard>,
    /// The pool-wide content-addressed chunk store (template + replicas).
    store: Arc<WeightStore>,
    /// The interned pristine template, pinned for the pool's lifetime so
    /// replica publishes always dedup frozen stages against it. Released
    /// at `join`.
    template_checkpoint: Option<CheckpointRef>,
}

impl ServerPool {
    /// Spawn the pool: `pool_config.shards` shard state machines hosted on
    /// `pool_config.reactor_threads` reactor workers (one per shard when
    /// `None`). Each shard gets its own teacher from
    /// `teacher_factory(shard_index)` and serves sessions cloned from
    /// `template`.
    ///
    /// Each core the reactor workers do not occupy gets one lane of the
    /// distill crew ([`PoolConfig::crew_helpers`]); the process-wide lane
    /// set grows to that width on the first such pool and keeps it.
    pub fn spawn<T, F>(
        config: ShadowTutorConfig,
        pool_config: PoolConfig,
        template: StudentNet,
        distill_step_latency: f64,
        mut teacher_factory: F,
    ) -> Result<ServerPool>
    where
        T: Teacher + Send + 'static,
        F: FnMut(usize) -> T,
    {
        Self::spawn_crewed(
            config,
            pool_config,
            template,
            pool_config.crew_helpers(),
            |shard, template| {
                ServeShard::new(
                    config,
                    template,
                    teacher_factory(shard),
                    distill_step_latency,
                )
            },
        )
    }

    /// [`ServerPool::spawn`] with the crew's helper count and the shards'
    /// construction in the caller's hands (tests pin the one and instrument
    /// the other).
    pub(super) fn spawn_crewed<T, F>(
        config: ShadowTutorConfig,
        pool_config: PoolConfig,
        mut template: StudentNet,
        helper_count: usize,
        mut make_shard: F,
    ) -> Result<ServerPool>
    where
        T: Teacher + Send + 'static,
        F: FnMut(usize, StudentNet) -> ServeShard<T>,
    {
        config.validate()?;
        pool_config.validate()?;
        let loads: ShardLoads = Arc::new(
            (0..pool_config.shards)
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        let placements: Placements = Arc::new(Mutex::new(HashMap::new()));
        let wire = Arc::new(WireMeter::default());
        let board = Arc::new(FailoverBoard::new(
            pool_config.shards,
            pool_config.replication,
        ));
        // The pool-wide content-addressed chunk store. The pristine template
        // is interned up front, so every later replica publish dedups its
        // frozen stages against the template's chunks from the first byte.
        let store = Arc::new(WeightStore::new());
        let (template_checkpoint, _) =
            store.intern(&WeightSnapshot::capture(&mut template, SnapshotScope::Full));
        let replicas = pool_config
            .replication
            .then(|| Arc::new(ReplicaStore::new(pool_config.shards, Arc::clone(&store))));
        // Every shard state machine lives behind a mutex, hosted by a fixed
        // reactor worker set woken by readiness tokens (one token per shard)
        // and a shared deadline heap.
        let poller = st_net::Poller::new();
        let shard_wakers: Arc<Vec<st_net::Waker>> =
            Arc::new((0..pool_config.shards).map(|i| poller.waker(i)).collect());
        let crew = Arc::new(Crew::new(Arc::clone(Lanes::global()), helper_count));
        let mut uplinks = Vec::with_capacity(pool_config.shards);
        let mut registries = Vec::with_capacity(pool_config.shards);
        let mut states = Vec::with_capacity(pool_config.shards);
        for shard_index in 0..pool_config.shards {
            let (tx, rx) = crossbeam::channel::unbounded::<Envelope>();
            let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
            let shard = make_shard(shard_index, template.clone())
                .with_session_weights(pool_config.session_weights)
                .with_crew(Arc::clone(&crew));
            states.push(Mutex::new(Some(ShardState::new(
                shard,
                rx,
                Arc::clone(&registry),
                pool_config,
                shard_index,
                Arc::clone(&loads),
                Arc::clone(&placements),
                Arc::clone(&board),
                replicas.clone(),
            ))));
            uplinks.push(tx);
            registries.push(registry);
        }
        let shared = Arc::new(ReactorShared::new(
            FailoverShared {
                states,
                board: Arc::clone(&board),
                replicas,
            },
            poller,
            Arc::clone(&shard_wakers),
        ));
        let threads = pool_config.reactor_threads.unwrap_or(pool_config.shards);
        let workers = (0..threads)
            .map(|worker_index| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || run_reactor_worker(&shared, worker_index))
            })
            .collect();
        Ok(ServerPool {
            pool_config,
            uplinks: Arc::new(uplinks),
            registries,
            loads,
            placements,
            workers,
            shard_wakers,
            wire,
            board,
            store,
            template_checkpoint: Some(template_checkpoint),
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> PoolConfig {
        self.pool_config
    }

    /// Current registered-session count of each shard.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.loads
            .iter()
            .map(|load| load.load(Ordering::SeqCst))
            .collect()
    }

    /// Connect a new stream: choose its shard per the placement policy,
    /// pre-share its frame content with that shard, enqueue its `Register`
    /// message, and return the client's endpoint. The first downlink message
    /// is the initial student checkpoint.
    ///
    /// Errors if the stream id is already connected to this pool — a second
    /// connect would silently clobber the first session's downlink and
    /// pre-shared frames mid-flight.
    ///
    /// # Example
    ///
    /// ```
    /// use shadowtutor::config::ShadowTutorConfig;
    /// use shadowtutor::serve::{PoolConfig, ServerPool};
    /// use st_net::transport::ClientEndpoint;
    /// use st_net::{ClientToServer, ServerToClient};
    /// use st_nn::student::{StudentConfig, StudentNet};
    /// use st_teacher::OracleTeacher;
    /// use st_video::dataset::tiny_stream;
    /// use st_video::SceneKind;
    /// use std::time::Duration;
    ///
    /// let pool = ServerPool::spawn(
    ///     ShadowTutorConfig::paper(),
    ///     PoolConfig::with_shards(1),
    ///     StudentNet::new(StudentConfig::tiny()).unwrap(),
    ///     0.013,
    ///     |_shard| OracleTeacher::perfect(7),
    /// )
    /// .unwrap();
    ///
    /// // Pre-share the stream's frames and connect; the first downlink
    /// // message is the initial student checkpoint.
    /// let frames = tiny_stream(SceneKind::People, 1, 1);
    /// let mut client = pool.connect(0, &frames).unwrap();
    /// let initial = client.recv_timeout(Duration::from_secs(10)).unwrap();
    /// assert!(matches!(initial, ServerToClient::InitialStudent { .. }));
    ///
    /// client.send(ClientToServer::Shutdown, 1).unwrap();
    /// drop(client);
    /// let stats = pool.join().unwrap();
    /// assert_eq!(stats.streams.len(), 1);
    /// ```
    pub fn connect(&self, stream_id: StreamId, frames: &[Frame]) -> Result<StreamClient> {
        self.connect_with_waker(stream_id, frames, None)
    }

    /// Like [`connect`](Self::connect), but additionally registers a
    /// client-side readiness waker: every downlink delivery for this stream
    /// wakes `waker`'s token. This is what lets one driver thread multiplex
    /// many client endpoints through a single [`st_net::Poller`] instead of
    /// parking one OS thread per client in `recv_timeout`.
    pub fn connect_with_waker(
        &self,
        stream_id: StreamId,
        frames: &[Frame],
        waker: Option<st_net::Waker>,
    ) -> Result<StreamClient> {
        let (shard, route) = {
            let mut placements = locked(&self.placements);
            if placements.contains_key(&stream_id) {
                return Err(TensorError::InvalidArgument(format!(
                    "stream {stream_id} is already connected to this pool"
                )));
            }
            let loads = self.shard_loads();
            let shard = match self.pool_config.placement {
                PlacementPolicy::StaticModulo => self.pool_config.shard_of(stream_id),
                // Fewest registered sessions, ties toward the lowest index.
                PlacementPolicy::LeastLoaded => (0..loads.len())
                    .min_by_key(|&candidate| loads[candidate])
                    .unwrap_or(0),
            };
            // A dead shard accepts no new streams; place on the
            // least-loaded live shard instead.
            let shard = if self.board.is_dead(shard) {
                let Some(live) = (0..loads.len())
                    .filter(|&candidate| !self.board.is_dead(candidate))
                    .min_by_key(|&candidate| loads[candidate])
                else {
                    return Err(TensorError::InvalidArgument(
                        "every pool shard has failed".into(),
                    ));
                };
                live
            } else {
                shard
            };
            self.loads[shard].fetch_add(1, Ordering::SeqCst);
            let route: Route = Arc::new(AtomicUsize::new(shard));
            placements.insert(stream_id, Arc::clone(&route));
            (shard, route)
        };
        let (down_tx, down_rx) = crossbeam::channel::unbounded();
        let content = FrameStore::from_frames(frames, self.pool_config.frame_budget_bytes);
        locked(&self.registries[shard]).insert(
            stream_id,
            StreamLink {
                downlink: Downlink {
                    tx: down_tx,
                    waker,
                    wire: Arc::clone(&self.wire),
                },
                frames: content,
            },
        );
        let mut client = StreamClient {
            stream_id,
            uplinks: Arc::clone(&self.uplinks),
            route,
            downlink: down_rx,
            shard_wakers: Arc::clone(&self.shard_wakers),
            wire: Arc::clone(&self.wire),
            board: Arc::clone(&self.board),
            downlink_closed: false,
        };
        // Registration is the client's first uplink message; sending it here
        // lets callers immediately block on the initial checkpoint. A failed
        // send (the shard worker died) must roll the placement back, or the
        // id would be burned and the shard's load over-counted forever.
        // Delta-negotiating pools register via `RegisterCaps`: an old server
        // build rejects the unknown tag with a typed error instead of
        // mis-decoding, and a plain `Register` keeps meaning bare snapshots.
        let register = if self.pool_config.delta_updates {
            ClientToServer::RegisterCaps {
                supports_delta: true,
            }
        } else {
            ClientToServer::Register
        };
        if client.send(register, MESSAGE_OVERHEAD_BYTES).is_err() {
            locked(&self.registries[shard]).remove(&stream_id);
            self.loads[shard].fetch_sub(1, Ordering::SeqCst);
            locked(&self.placements).remove(&stream_id);
            return Err(TensorError::InvalidArgument(
                "server pool worker is not accepting connections".into(),
            ));
        }
        Ok(client)
    }

    /// Drop the pool's uplink handles and join every worker, collecting the
    /// aggregate statistics. Clients must have dropped (or finished with)
    /// their `StreamClient`s for the workers' queues to disconnect.
    ///
    /// A shard death no standby recovered from (replication off, or the
    /// standby itself was gone) surfaces as [`PoolError::WorkerFailed`],
    /// carrying the shard index and the actual panic payload. Recovered
    /// deaths are not errors: the adopted shards' reports — assembled by
    /// their standby — appear in the stats like everyone else's. A panic
    /// that escapes a reactor worker *outside* any shard pass names the
    /// worker, never a shard, and surfaces as [`PoolError::Tensor`].
    pub fn join(mut self) -> std::result::Result<PoolStats, PoolError> {
        drop(self.uplinks);
        drop(self.registries);
        // Shards park until a token wakes them; with the uplinks now gone,
        // one wake per shard is enough for each to observe the disconnect
        // and run its exit protocol.
        for waker in self.shard_wakers.iter() {
            waker.wake();
        }
        let shards = self.pool_config.shards;
        let joined: Vec<_> = self.workers.into_iter().map(|w| w.join()).collect();
        let mut outputs: Vec<ShardOutput> = Vec::with_capacity(shards);
        for (worker_index, result) in joined.into_iter().enumerate() {
            match result {
                Ok(result) => outputs.extend(result?),
                // The worker catches its own unwinds, so this is a panic
                // raised while reporting one — still from no shard pass, so
                // it must not be pinned on a shard.
                Err(payload) => return Err(escaped_panic(worker_index, payload.as_ref()).into()),
            }
        }
        // Dead shards return nothing through their join handles; their
        // standby filed their outputs on the board.
        outputs.extend(self.board.take_dead_outputs());
        if let Some((shard, panic_msg)) = self.board.unrecovered_death() {
            return Err(PoolError::WorkerFailed { shard, panic_msg });
        }
        // Reactor workers finalize shards in completion order; present the
        // report in shard order.
        outputs.sort_by_key(|output| output.shard);
        // Measure the store *before* releasing the template pin, so the
        // report reflects what the run actually held resident.
        let store_resident_bytes = self.store.resident_bytes();
        let store_chunk_count = self.store.chunk_count();
        if let Some(template_checkpoint) = self.template_checkpoint.take() {
            self.store.release(template_checkpoint);
        }
        let mut stats = PoolStats {
            shards: Vec::with_capacity(shards),
            streams: HashMap::new(),
            final_checkpoints: HashMap::new(),
            wait_samples: Vec::with_capacity(shards),
            takeover_samples: Vec::new(),
            // ORDER: Relaxed — every writer has been joined above; these
            // loads cannot race.
            wire_bytes_up: self.wire.up.load(Ordering::Relaxed),
            wire_bytes_down: self.wire.down.load(Ordering::Relaxed),
            store_resident_bytes,
            store_chunk_count,
        };
        for output in outputs {
            stats.shards.push(output.stats);
            stats.streams.extend(output.streams);
            stats.final_checkpoints.extend(output.final_checkpoints);
            stats.wait_samples.push(output.wait_samples);
            stats.takeover_samples.extend(output.takeover_samples);
        }
        Ok(stats)
    }
}
