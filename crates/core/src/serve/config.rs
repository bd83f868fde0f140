//! Pool configuration, fault-injection plans and the pool's error type.

#[cfg(doc)]
use super::ServerPool;
use crate::Result;
use st_net::StreamId;
#[cfg(doc)]
use st_net::{DropReason, ServerToClient};
use st_tensor::TensorError;

/// A deterministic fault-injection schedule for chaos testing the pool.
///
/// Faults are injected at well-defined points of the shard state machine —
/// a *kill* is a plain `panic!` raised inside
/// `ShardState::process_one_batch`, so a crash is reproducible from a
/// config value instead of requiring unsafe thread murder. The reactor
/// catches the unwind per pass, so the kill takes down one shard, never the
/// worker thread hosting it; with [`PoolConfig::replication`] on, the shard
/// recovers in place. A plan kills once: a recovered shard is not killed
/// again. `FaultPlan::none()` (the default) injects nothing and costs one
/// branch per batch.
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
    /// genuinely lost and the recovery must drop-ack it with
    /// [`DropReason::ShardFailed`]. (The same bookkeeping covers a pass that
    /// dies *part-way* through a batch: only its unanswered jobs are lost.)
    /// A clean kill (the default) fires before the drain; every queued job
    /// stays queued and is served after the recovery.
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
    /// are lost and must be drop-acked by the recovery).
    pub fn torn(mut self) -> Self {
        self.torn_kill = true;
        self
    }

    /// Whether this plan kills `shard` once it has run `batches` teacher
    /// batches, unless it has killed it already (the caller knows that).
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
    /// tests and `reproduce table13` (`st_bench::tables::table13_weight_dedup`).
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
    /// Per-stream admission cap: at most this many key frames of one stream
    /// may be held at its shard — queued, or in the stream's crew item while
    /// it is still out on a lane after its batch's pass has ended; excess
    /// arrivals are answered with [`ServerToClient::Throttle`] instead of
    /// being queued.
    pub max_in_flight: usize,
    /// Deficit-round-robin quantum: key frames one stream may contribute to
    /// a co-scheduled batch per scheduling round.
    pub quantum: usize,
    /// Size of the pool's **reactor** worker set. All `shards` shard state
    /// machines are hosted on a fixed set of worker threads driven by
    /// readiness wakeups ([`st_net::Poller`]): `Some(n)` runs `n` workers, decoupling
    /// shard count from thread count — `shards: 64` with `reactor_threads:
    /// Some(4)` is a valid configuration; `None` (the default) runs as many
    /// workers as shards. Serving behaviour is identical at every worker
    /// count; what changes is how many mostly-idle streams one process can
    /// host per thread.
    pub reactor_threads: Option<usize>,
    /// Keep a recovery checkpoint beside every stream and let a shard
    /// recover from its first death. Each stream's entry holds its
    /// session's last settled checkpoint (student weights + distillation
    /// counters), taken at registration and whenever the stream's crew item
    /// comes home whole; an item that fails — a panic inside `distill` can
    /// leave the session half-stepped — has its session rebuilt from it on
    /// the spot, with a cold optimizer. When a pass of a shard dies, the
    /// reactor worker that caught it recovers the shard in place: the
    /// crew's items come home, what the pass left unanswered is drop-acked
    /// with [`DropReason::ShardFailed`], every stream it carried is owed its
    /// weights on its next answer, and the next pass serves the queue and
    /// the uplink as before. A second death of the same shard is not recovered. Off by
    /// default: a shard death then fails [`ServerPool::join`] with
    /// [`PoolError::WorkerFailed`].
    pub replication: bool,
    /// Deterministic fault-injection schedule ([`FaultPlan::none`] by
    /// default). Chaos tests kill a shard mid-run with this instead of
    /// aborting threads.
    pub fault_plan: FaultPlan,
    /// How sessions materialize their weights from the template
    /// ([`SessionWeights::CopyOnWrite`] by default; behaviour is identical
    /// either way, only resident memory differs).
    pub session_weights: SessionWeights,
    /// Ship weights only when the client lacks them: every stream the pool
    /// connects gets its initial checkpoint in a `WeightPayload::Full`
    /// envelope, and the shard answers each distilled key frame with the
    /// update in a `Full` envelope when Algorithm 1 changed the student (or
    /// a recovery left the stream owed its weights) and with a payload
    /// without data when it did not. The shard keeps nothing per stream
    /// about what the client holds. Off by default: every update ships as a
    /// bare snapshot of the trainable subset, the seed wire format. (The
    /// name is older than the rule and stays because `stbench` sets the
    /// field by it; ROADMAP item 18.)
    pub delta_updates: bool,
}

impl PoolConfig {
    /// A small pool: two shards, up to four co-scheduled key frames, fair
    /// batching and admission control on.
    pub fn default_pool() -> Self {
        PoolConfig {
            shards: 2,
            max_batch: 4,
            max_in_flight: 4,
            quantum: 1,
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
        Ok(())
    }

    /// The shard a stream lives on for the pool's life: a pure function of
    /// its id.
    pub fn shard_of(&self, stream_id: StreamId) -> usize {
        (stream_id % self.shards as u64) as usize
    }

    /// Distill-crew lanes a pool of this shape offers each batch to: one per
    /// core its reactor workers leave idle (none when the workers already
    /// cover the host), at most `max_batch − 1` — the most one batch could keep
    /// busy beside the worker that owns it. A worker does not wait for the
    /// lanes at the end of a batch: it moves on, and their items come home
    /// in a later pass of the shard. Derived, deliberately not a field: the
    /// host's core count and the two fields it follows from are all there
    /// is to know.
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
    /// A pass of a shard died (panicked) and the shard did not recover:
    /// replication was off, or it was the shard's second death.
    /// `panic_msg` is the pass's actual panic payload.
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
