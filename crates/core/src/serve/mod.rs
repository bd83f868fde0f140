//! The multi-stream server runtime: a sharded pool of distillation workers.
//!
//! The paper evaluates one client per server, but the server is the shared,
//! expensive side of the system. This module turns the single-stream
//! server role (one teacher beside one [`DistillSession`]) into a
//! multi-tenant service:
//!
//! * [`ServeShard`] owns one teacher and one [`DistillSession`] per client
//!   stream assigned to it. Key frames from different streams that arrive
//!   close together are *co-scheduled*: the teacher labels them in one
//!   batched forward pass ([`st_teacher::Teacher::pseudo_label_batch`]) whose
//!   wall-clock cost the batch shares, and then each stream's session
//!   distills its own student on its own pseudo-label.
//!   Streams never share weights — isolation is structural — which is also
//!   what lets one batch's sessions distill side by side (the distill crew,
//!   below).
//! * [`ServerPool`] hosts every shard's state machine on a fixed set of
//!   reactor workers ([`PoolConfig::reactor_threads`]; one per shard by
//!   default) woken by send-side readiness tokens (no timers), places
//!   each stream on shard `id % shards` ([`PoolConfig::shard_of`]) for the
//!   pool's life, and funnels each client's uplink into that shard's queue
//!   as [`st_net::StreamTagged`] traffic.
//!   Clients talk to the pool through [`StreamClient`], which implements the
//!   same [`st_net::ClientEndpoint`] surface as the single-stream transport,
//!   so the client-side state machine is byte-for-byte the one Algorithm 4
//!   uses.
//!
//! A batch is what is queued when the shard runs, up to
//! [`PoolConfig::max_batch`]. Nothing is learned from earlier batches, so
//! whether two key frames share a teacher forward depends only on whether
//! both had arrived.
//!
//! The pool does **not** trust clients to be well behaved. Two mechanisms
//! keep a hot stream from starving its shard-mates:
//!
//! * **Fair batching** — arriving key frames land in per-stream FIFO queues
//!   and are drained by deficit round-robin ([`FairScheduler`]): every
//!   co-scheduled teacher batch takes at most `quantum` jobs per stream per
//!   round, so batch slots are shared even when one stream has a deep
//!   backlog.
//! * **Admission control** — each stream may have at most `max_in_flight`
//!   key frames queued; excess arrivals are rejected immediately with
//!   [`st_net::ServerToClient::Throttle`], which the client answers by
//!   serving the frame with its local (slightly stale) student — the
//!   fallback the paper's partial/full modes make natural.
//!
//! Placement is final — a stream's session never leaves its shard, which
//! with [`PoolConfig::replication`] recovers in place from its first death
//! (every stream then also keeps its last settled checkpoint beside it, so
//! a session a panic tore mid-distill is rolled back before the next pass
//! sees it) — so a hot stream's shard-mates are relieved by hosting more
//! shards than reactor workers, not by moving sessions
//! (`docs/ARCHITECTURE.md` has the measurements behind that choice). Each
//! stream's pre-shared frames live in its [`FrameStore`] for the stream's
//! life, as in the paper, which has no frame eviction; a key frame whose
//! index was never shared is answered [`st_net::ServerToClient::Dropped`]
//! at the door.
//!
//! And since the sessions of one batch share a teacher forward and nothing
//! else, the pool spends the cores its reactor workers leave idle on them:
//!
//! * **The distill crew** ([`st_tensor::parallel::Crew`]) — each batch is
//!   offered to up to [`PoolConfig::crew_helpers`] of the process's parked
//!   lanes ([`st_tensor::parallel::Lanes`], the threads the GEMM splits onto
//!   too; the width is derived from the host and the pool's shape, there is
//!   no knob). A labelled batch becomes one work item per stream; the shard's
//!   reactor worker and the lanes claim items one at a time, an item
//!   *owning* its stream's session while it runs — moved out of the shard
//!   and back, so no session is locked or borrowed across threads. The
//!   worker answers every key frame the moment it is distilled (encode,
//!   downlink), so a round trip is `teacher + own distill`, not
//!   `teacher + the batch's`. Nor does it wait for the lanes: with no
//!   item left to claim its pass ends, and the lanes' items come home in a
//!   later pass that their posts wake; until then their streams are away,
//!   in no batch, so a stream never has two items in flight. With no helpers the worker claims every
//!   item itself: one code path. Only completion order *across* streams can
//!   differ from a serial run; every per-stream result is bit-identical at
//!   every crew width.
//!
//! The pool reports [`PoolStats`]: per-shard queueing/batching/latency
//! counters plus per-stream key-frame totals, waits, throttles, drops,
//! measured teacher wall time and final server-side
//! checkpoints. [`PoolStats::snapshot`] condenses all of it into the
//! serializable [`crate::report::PoolReport`] operators can export.
//!
//! The module tree follows the seams of one key frame's trip through the
//! server: `config` and `stats` are the pool's inputs and outputs; `frames`,
//! `sched` and `shard` are the synchronous per-shard machinery (a shard
//! fans a batch out through the crew); `state` is the shard state machine,
//! its recovery from a death included; `pool` is the handle and client
//! endpoint; `reactor` is the one driver, and reaches a shard state only
//! through its methods.
//!
//! [`DistillSession`]: crate::server::DistillSession

mod config;
mod frames;
mod pool;
mod reactor;
mod sched;
mod shard;
mod state;
mod stats;
#[cfg(test)]
mod tests;

pub use crate::server::StreamServerStats;
pub use config::{FaultPlan, PoolConfig, PoolError, SessionWeights};
pub use frames::FrameStore;
pub use pool::{ServerPool, StreamClient};
pub use sched::{FairScheduler, ScheduledJob, ShardJob};
pub use shard::{BatchOutcome, ServeShard};
pub use stats::{PoolStats, ShardStats};

use std::sync::Mutex;

/// Lock a shared map, recovering the data if a worker panicked while
/// holding the lock: the pool's shared state must stay usable for the
/// surviving workers and the final join-side accounting, and every guard
/// in this module tree restores its invariants before dropping.
fn locked<T: ?Sized>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
