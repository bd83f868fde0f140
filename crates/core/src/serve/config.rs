//! Pool configuration, fault-injection plans and the pool's error type.

#[cfg(doc)]
use super::{FrameStore, ReplicaStore, ServerPool};
use crate::config::PlacementPolicy;
use crate::Result;
use st_net::StreamId;
#[cfg(doc)]
use st_net::{ClientToServer, DropReason, ServerToClient};
use st_tensor::TensorError;

/// A deterministic fault-injection schedule for chaos testing the pool.
///
/// Faults are injected at well-defined points of the shard state machine —
/// a *kill* is a plain `panic!` raised inside
/// `ShardState::process_one_batch`, so a crash is reproducible from a
/// config value instead of requiring unsafe thread murder. The reactor
/// catches the unwind per pass, so the kill takes down one shard, never the
/// worker thread hosting it. `FaultPlan::none()` (the default) injects
/// nothing and costs one branch per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Tags the schedule so a chaos run is pinnable and reportable (CI pins
    /// it the way `ST_CHECK_SEED` pins the model checker); also folded into
    /// the injected panic message.
    pub seed: u64,
    /// The shard every fault in this plan targets. `None` disables the
    /// plan entirely.
    pub target: Option<usize>,
    /// Kill the target with a panic at the start of its first co-scheduled
    /// batch once it has completed this many teacher batches (`Some(0)` =
    /// the first non-empty batch). `None` never kills.
    pub kill_at_batch: Option<u64>,
    /// Tear the kill: fire *after* the batch's jobs were drained from the
    /// fair scheduler, so the in-flight batch — none of it answered yet — is
    /// genuinely lost and the standby must drop-ack it with
    /// [`DropReason::ShardFailed`]. (The same bookkeeping covers a pass that
    /// dies *part-way* through a batch: only its unanswered jobs are lost.) A clean
    /// kill (the default) fires before the drain; every queued job
    /// survives in the carcass and is re-queued by the adopter.
    pub torn_kill: bool,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            target: None,
            kill_at_batch: None,
            torn_kill: false,
        }
    }

    /// Kill `shard` at the start of its first non-empty batch after
    /// `at_batch` completed teacher batches.
    pub fn kill(seed: u64, shard: usize, at_batch: u64) -> Self {
        FaultPlan {
            seed,
            target: Some(shard),
            kill_at_batch: Some(at_batch),
            torn_kill: false,
        }
    }

    /// Make the kill torn (fires after the batch drain; the in-flight jobs
    /// are lost and must be drop-acked by the standby).
    pub fn torn(mut self) -> Self {
        self.torn_kill = true;
        self
    }

    /// Whether this plan kills `shard` once it has run `batches` teacher
    /// batches.
    pub(super) fn kill_due(&self, shard: usize, batches: usize) -> bool {
        self.target == Some(shard) && self.kill_at_batch.is_some_and(|at| batches as u64 >= at)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// How a shard materializes each stream's student weights from the shared
/// pretrained template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionWeights {
    /// Clone the template copy-on-write: parameter storage is shared until
    /// the optimizer (or a restore) first writes a stage, so the frozen
    /// front-end of a partial-distillation session costs its bytes once per
    /// shard, not once per stream. Bit-identical to a deep clone — the
    /// differential e2e suite asserts it.
    #[default]
    CopyOnWrite,
    /// Eagerly copy every tensor (the pre-PR-10 behaviour): full memory
    /// price per session. Kept as the A/B baseline for the differential
    /// tests and the `table13_weight_dedup` bench.
    DeepClone,
}

/// Configuration of a [`ServerPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Number of shards (independent serving state machines).
    pub shards: usize,
    /// Most key frames co-scheduled into one batched teacher forward. Each
    /// batch is what is queued when the shard runs, up to this bound.
    pub max_batch: usize,
    /// How new streams are assigned to shards.
    pub placement: PlacementPolicy,
    /// Per-stream admission cap: at most this many key frames of one stream
    /// may be queued at its shard; excess arrivals are answered with
    /// [`ServerToClient::Throttle`] instead of being queued.
    pub max_in_flight: usize,
    /// Deficit-round-robin quantum: key frames one stream may contribute to
    /// a co-scheduled batch per scheduling round.
    pub quantum: usize,
    /// Per-stream frame-cache byte budget. Every stream's pre-shared frames
    /// live in an LRU [`FrameStore`]; once a stream's resident frames exceed
    /// this many bytes the least-recently-used ones are evicted and
    /// re-requested on demand ([`ServerToClient::NeedFrame`]). `None` keeps
    /// every frame resident for the stream's lifetime (the pre-PR-5
    /// behaviour).
    pub frame_budget_bytes: Option<usize>,
    /// Size of the pool's **reactor** worker set. All `shards` shard state
    /// machines are hosted on a fixed set of worker threads driven by
    /// readiness wakeups ([`st_net::Poller`]) and a deadline heap
    /// ([`crate::timer::DeadlineHeap`]): `Some(n)` runs `n` workers, decoupling
    /// shard count from thread count — `shards: 64` with `reactor_threads:
    /// Some(4)` is a valid configuration; `None` (the default) runs as many
    /// workers as shards. Serving behaviour is identical at every worker
    /// count; what changes is how many mostly-idle streams one process can
    /// host per thread.
    pub reactor_threads: Option<usize>,
    /// Replicate every stream's session checkpoint (student weights +
    /// distillation counters + scheduler deficit) to a shared
    /// content-addressed [`ReplicaStore`] after each accepted update, and
    /// arm warm-standby takeover: when a shard dies, its buddy shard
    /// (`(shard + 1) % shards`) restores its streams from the replicas and
    /// flips their routes to itself. Works under every placement policy;
    /// needs at least two shards. Off by default: a worker panic then fails
    /// [`ServerPool::join`] with [`PoolError::WorkerFailed`].
    pub replication: bool,
    /// Deterministic fault-injection schedule ([`FaultPlan::none`] by
    /// default). Chaos tests kill a shard mid-run with this instead of
    /// aborting threads.
    pub fault_plan: FaultPlan,
    /// How sessions materialize their weights from the template
    /// ([`SessionWeights::CopyOnWrite`] by default; behaviour is identical
    /// either way, only resident memory differs).
    pub session_weights: SessionWeights,
    /// Negotiate delta-encoded weight updates with clients: `connect` sends
    /// [`ClientToServer::RegisterCaps`] announcing delta support, and the
    /// shard answers each distilled key frame with a sparse
    /// [`st_nn::delta::WeightDelta`] against the client's last-acked
    /// checkpoint (full snapshots remain the fallback whenever the stream is
    /// not known to be in sync — first update after a register, or after a
    /// failover restore). Off by default: updates ship as bare full
    /// snapshots of the trainable subset, exactly the seed wire format.
    pub delta_updates: bool,
}

impl PoolConfig {
    /// A small pool: two shards, up to four co-scheduled key frames, fair
    /// batching and admission control on.
    pub fn default_pool() -> Self {
        PoolConfig {
            shards: 2,
            max_batch: 4,
            placement: PlacementPolicy::default(),
            max_in_flight: 4,
            quantum: 1,
            frame_budget_bytes: None,
            reactor_threads: None,
            replication: false,
            fault_plan: FaultPlan::none(),
            session_weights: SessionWeights::CopyOnWrite,
            delta_updates: false,
        }
    }

    /// A pool with a given shard count and the default batching.
    pub fn with_shards(shards: usize) -> Self {
        PoolConfig {
            shards,
            ..Self::default_pool()
        }
    }

    /// A reactor pool: `shards` shard state machines hosted on one worker
    /// thread per available CPU (the many-mostly-idle-streams configuration).
    pub fn reactor(shards: usize) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        PoolConfig {
            shards,
            reactor_threads: Some(threads),
            ..Self::default_pool()
        }
    }

    /// Validate parameter consistency.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(TensorError::InvalidArgument(
                "pool needs at least one shard".into(),
            ));
        }
        if self.max_batch == 0 {
            return Err(TensorError::InvalidArgument(
                "max_batch must be at least 1".into(),
            ));
        }
        if self.max_in_flight == 0 {
            return Err(TensorError::InvalidArgument(
                "max_in_flight must be at least 1 (a stream must be able to queue a key frame)"
                    .into(),
            ));
        }
        if self.quantum == 0 {
            return Err(TensorError::InvalidArgument(
                "quantum must be at least 1".into(),
            ));
        }
        if self.frame_budget_bytes == Some(0) {
            return Err(TensorError::InvalidArgument(
                "frame_budget_bytes must be positive (use None for unbounded)".into(),
            ));
        }
        if self.reactor_threads == Some(0) {
            return Err(TensorError::InvalidArgument(
                "reactor_threads must be at least 1 (use None for one worker per shard)".into(),
            ));
        }
        if let Some(target) = self.fault_plan.target {
            if target >= self.shards {
                return Err(TensorError::InvalidArgument(format!(
                    "fault_plan targets shard {target} but the pool has {} shards",
                    self.shards
                )));
            }
        }
        if self.replication && self.shards < 2 {
            return Err(TensorError::InvalidArgument(
                "replication needs at least two shards (a shard cannot be its own standby)".into(),
            ));
        }
        Ok(())
    }

    /// The shard a stream id maps to under static-modulo placement.
    pub fn shard_of(&self, stream_id: StreamId) -> usize {
        (stream_id % self.shards as u64) as usize
    }

    /// Distill-crew lanes a pool of this shape offers each batch to: one per
    /// core its reactor workers leave idle (none when the workers already
    /// cover the host), at most `max_batch − 1` — the most one batch could keep
    /// busy beside the worker that owns it. Derived, deliberately not a
    /// field: the host's core count and the two fields it follows from are
    /// all there is to know.
    pub fn crew_helpers(&self) -> usize {
        let workers = self.reactor_threads.unwrap_or(self.shards);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores
            .saturating_sub(workers)
            .min(self.max_batch.saturating_sub(1))
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::default_pool()
    }
}

/// Why [`ServerPool::join`] failed.
///
/// Before this type existed, a worker panic surfaced as
/// `TensorError::InvalidArgument("shard worker panicked")` — the panic
/// payload, the shard index, everything an operator needs was thrown away.
/// `WorkerFailed` carries both; `Tensor` wraps the ordinary serving-error
/// channel. The lossy [`From<PoolError> for TensorError`] impl keeps
/// `pool.join()?` compiling in `TensorError`-returning contexts.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// A shard worker died (panicked) and no warm standby adopted its
    /// streams — either replication was off, or the standby itself was
    /// gone. `panic_msg` is the worker's actual panic payload.
    WorkerFailed {
        /// The shard whose worker died.
        shard: usize,
        /// The panic payload (downcast to a string where possible).
        panic_msg: String,
    },
    /// A serving error surfaced through the normal `Result` channel.
    Tensor(TensorError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerFailed { shard, panic_msg } => {
                write!(f, "shard {shard} worker panicked: {panic_msg}")
            }
            PoolError::Tensor(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<TensorError> for PoolError {
    fn from(err: TensorError) -> Self {
        PoolError::Tensor(err)
    }
}

impl From<PoolError> for TensorError {
    fn from(err: PoolError) -> Self {
        match err {
            PoolError::Tensor(err) => err,
            other => TensorError::InvalidArgument(other.to_string()),
        }
    }
}
