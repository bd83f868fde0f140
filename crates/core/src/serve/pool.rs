//! The pool handle ([`ServerPool`]) and the client's endpoint onto it
//! ([`StreamClient`]).

use super::locked;
use super::reactor::{escaped_panic, run_reactor_worker, ReactorShared};
use super::state::{Downlink, Envelope, ShardOutput, ShardState, StreamLink, WireMeter};
use super::{FrameStore, PoolConfig, PoolError, PoolStats, ServeShard};
use crate::config::ShadowTutorConfig;
use crate::Result;
use bytes::Bytes;
use st_net::transport::ClientEndpoint;
use st_net::{ClientToServer, ServerToClient, StreamId, StreamTagged, TransportError};
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::StudentNet;
use st_teacher::Teacher;
use st_tensor::parallel::{Crew, Lanes};
use st_tensor::TensorError;
use st_video::Frame;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The client's endpoint onto the pool: same surface as the single-stream
/// transport, but every uplink message is stream-tagged and lands in the
/// queue of the stream's shard ([`PoolConfig::shard_of`]) for the pool's
/// life. A shard that dies recovers in place (with
/// [`PoolConfig::replication`]), queue and downlinks included: a recovery
/// needs no re-dial, and the client cannot tell it happened. Short of the
/// stream's own `Shutdown`, a send or receive fails only once the pool has
/// aborted.
pub struct StreamClient {
    stream_id: StreamId,
    /// The stream's shard's uplink.
    uplink: mpsc::Sender<Envelope>,
    downlink: mpsc::Receiver<ServerToClient>,
    /// The stream's shard's readiness waker: every uplink send wakes it so
    /// a reactor worker dispatches the shard.
    waker: st_net::Waker,
    /// Pool-wide measured-traffic counters (this client credits uplink).
    wire: Arc<WireMeter>,
}

impl StreamClient {
    /// The stream this client speaks for.
    pub fn stream_id(&self) -> StreamId {
        self.stream_id
    }

    /// Send one uplink message to the stream's shard. Only
    /// [`ServerPool::connect`]'s `Register` carries a `link`.
    fn post(
        &self,
        message: ClientToServer,
        link: Option<Box<StreamLink>>,
    ) -> std::result::Result<(), TransportError> {
        let tagged = StreamTagged::new(self.stream_id, message);
        // The measured uplink cost of this envelope: the framed tagged
        // message.
        let wire_len = st_net::wire::frame_len(&tagged);
        self.uplink
            .send(Envelope {
                tagged,
                enqueued_at: Instant::now(),
                link,
            })
            .map_err(|_| TransportError::Disconnected)?;
        // ORDER: Relaxed — a monotonic traffic counter; readers only see it
        // after join() synchronizes with every worker's exit.
        self.wire.up.fetch_add(wire_len, Ordering::Relaxed);
        self.waker.wake();
        Ok(())
    }
}

impl ClientEndpoint for StreamClient {
    fn send(
        &mut self,
        message: ClientToServer,
        _bytes: usize,
    ) -> std::result::Result<(), TransportError> {
        self.post(message, None)
    }

    fn try_recv(&mut self) -> std::result::Result<Option<ServerToClient>, TransportError> {
        match self.downlink.try_recv() {
            Ok(msg) => Ok(Some(msg)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> std::result::Result<ServerToClient, TransportError> {
        match self.downlink.recv_timeout(timeout) {
            Ok(msg) => Ok(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

/// A sharded pool of distillation workers serving many client streams.
///
/// The pool is an event-driven reactor: all shard state machines are
/// hosted on a fixed set of worker threads
/// ([`PoolConfig::reactor_threads`]; one per shard by default) woken by
/// send-side readiness tokens; it keeps no timers. Every worker
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
    uplinks: Vec<mpsc::Sender<Envelope>>,
    /// The stream ids connected so far. An id stays reserved for the pool's
    /// lifetime; connecting a finished id again needs a new pool.
    connected: Mutex<HashSet<StreamId>>,
    /// One handle per reactor worker, each returning the outputs of
    /// whichever shards it finalized.
    workers: Vec<std::thread::JoinHandle<std::result::Result<Vec<ShardOutput>, PoolError>>>,
    /// Measured wire traffic for the whole pool, shared with every
    /// [`StreamClient`] (uplink) and [`Downlink`] (downlink).
    wire: Arc<WireMeter>,
    /// Per-shard readiness wakers. `join` wakes every shard once the
    /// uplinks are dropped so each one observes the disconnect and runs its
    /// exit protocol.
    shard_wakers: Arc<Vec<st_net::Waker>>,
    /// The template's distinct entry content in bytes and in chunks,
    /// counted at spawn: the weights every session shares
    /// ([`PoolStats::store_resident_bytes`] / `store_chunk_count`).
    template_bytes: usize,
    template_chunks: usize,
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
    /// `_distill_step_latency` is ignored, as in
    /// [`crate::server::DistillSession::new`].
    pub fn spawn<T, F>(
        config: ShadowTutorConfig,
        pool_config: PoolConfig,
        template: StudentNet,
        _distill_step_latency: f64,
        mut teacher_factory: F,
    ) -> Result<ServerPool>
    where
        T: Teacher + Send + 'static,
        F: FnMut(usize) -> T,
    {
        let crew = Crew::new(Arc::clone(Lanes::global()), pool_config.crew_helpers());
        Self::spawn_with_crew(
            config,
            pool_config,
            template,
            Arc::new(crew),
            |shard, template| ServeShard::new(config, template, teacher_factory(shard), 0.0),
        )
    }

    /// [`ServerPool::spawn`] on a given crew, with the shards' construction
    /// in the caller's hands: tests pin the crew's helper count and
    /// instrument the shards, and a test whose hook holds a lane's item
    /// gives the pool lanes of its own, so the process-wide lanes other
    /// tests' pools offer to stay free.
    pub(super) fn spawn_with_crew<T, F>(
        config: ShadowTutorConfig,
        pool_config: PoolConfig,
        mut template: StudentNet,
        crew: Arc<Crew>,
        mut make_shard: F,
    ) -> Result<ServerPool>
    where
        T: Teacher + Send + 'static,
        F: FnMut(usize, StudentNet) -> ServeShard<T>,
    {
        config.validate()?;
        pool_config.validate()?;
        let wire = Arc::new(WireMeter::default());
        // The template's entries, each distinct content counted once.
        let template_content: HashSet<Bytes> =
            WeightSnapshot::capture(&mut template, SnapshotScope::Full)
                .entry_chunks()
                .into_iter()
                .map(|(_, chunk)| chunk)
                .collect();
        // Every shard state machine lives behind a mutex, hosted by a fixed
        // reactor worker set woken by readiness tokens (one token per shard).
        let poller = st_net::Poller::new();
        let shard_wakers: Arc<Vec<st_net::Waker>> =
            Arc::new((0..pool_config.shards).map(|i| poller.waker(i)).collect());
        let mut uplinks = Vec::with_capacity(pool_config.shards);
        let mut states = Vec::with_capacity(pool_config.shards);
        for shard_index in 0..pool_config.shards {
            let (tx, rx) = mpsc::channel::<Envelope>();
            // A lane's post for this shard wakes its token, so the items a
            // pass left out on the crew come home in the next one.
            let waker = shard_wakers[shard_index].clone();
            let shard = make_shard(shard_index, template.clone())
                .with_session_weights(pool_config.session_weights)
                .with_crew(Arc::clone(&crew))
                .with_notify(Arc::new(move || waker.wake()));
            states.push(ShardState::new(shard, rx, pool_config, shard_index));
            uplinks.push(tx);
        }
        let shared = Arc::new(ReactorShared::new(
            states,
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
            uplinks,
            connected: Mutex::new(HashSet::new()),
            workers,
            shard_wakers,
            wire,
            template_bytes: template_content.iter().map(Bytes::len).sum(),
            template_chunks: template_content.len(),
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> PoolConfig {
        self.pool_config
    }

    /// Connect a new stream: enqueue its `Register` message, carrying the
    /// stream's downlink and pre-shared frame content, on its shard
    /// ([`PoolConfig::shard_of`]), and return the client's endpoint.
    /// The first downlink message is the initial student checkpoint. A
    /// stream whose shard has recovered from a death registers there all
    /// the same.
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
        if !locked(&self.connected).insert(stream_id) {
            return Err(TensorError::InvalidArgument(format!(
                "stream {stream_id} is already connected to this pool"
            )));
        }
        let (down_tx, down_rx) = mpsc::channel();
        let link = StreamLink {
            downlink: Downlink {
                tx: down_tx,
                waker,
                wire: Arc::clone(&self.wire),
            },
            frames: FrameStore::from_frames(frames, None),
        };
        let shard = self.pool_config.shard_of(stream_id);
        let client = StreamClient {
            stream_id,
            uplink: self.uplinks[shard].clone(),
            downlink: down_rx,
            waker: self.shard_wakers[shard].clone(),
            wire: Arc::clone(&self.wire),
        };
        // Registration is the client's first uplink message, and it carries
        // everything the shard that handles it needs; sending it here lets
        // callers immediately block on the initial checkpoint. A failed send
        // (the pool has aborted) must release the id, or it would be burned.
        if client
            .post(ClientToServer::Register, Some(Box::new(link)))
            .is_err()
        {
            locked(&self.connected).remove(&stream_id);
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
    /// A shard death the shard did not recover from (replication off, or
    /// its second death) surfaces as [`PoolError::WorkerFailed`], carrying
    /// the shard index and the actual panic payload. Recovered deaths are
    /// not errors: the recovered shard reports like every other, its
    /// [`ShardStats::failovers`](super::ShardStats::failovers) counting the
    /// recovery. A panic that escapes a reactor worker *outside* any shard
    /// pass names the worker, never a shard, and surfaces as
    /// [`PoolError::Tensor`].
    pub fn join(self) -> std::result::Result<PoolStats, PoolError> {
        drop(self.uplinks);
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
        // Reactor workers finalize shards in completion order; present the
        // report in shard order.
        outputs.sort_by_key(|output| output.shard);
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
            store_resident_bytes: self.template_bytes,
            store_chunk_count: self.template_chunks,
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
