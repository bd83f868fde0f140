//! # shadowtutor
//!
//! A Rust reproduction of **ShadowTutor: Distributed Partial Distillation for
//! Mobile Video DNN Inference** (Chung, Kim, Moon — ICPP 2020).
//!
//! ShadowTutor splits video DNN inference between a weak client and a strong
//! server: a tiny *student* network runs on the client for every frame, and
//! on sparse, adaptively chosen *key frames* the client ships the frame to
//! the server, where a large *teacher* produces a pseudo-label and the server
//! *partially distills* it into the student (training only the back-end
//! layers). The updated slice of weights returns asynchronously while the
//! client keeps processing frames with its slightly stale student, and the
//! distance to the next key frame is adapted from the post-training metric.
//!
//! This crate is the paper's contribution layer. It provides:
//!
//! * [`config`] — the algorithm parameters (THRESHOLD, MIN/MAX_STRIDE,
//!   MAX_UPDATES, distillation mode) with the paper's defaults.
//! * [`stride`] — the adaptive key-frame striding rule (Algorithm 2).
//! * [`train`] — server-side student training on one key frame (Algorithm 1).
//! * [`server`] / [`client`] — the per-role state machines (Algorithms 3, 4),
//!   shared by both runtimes.
//! * [`serve`] — the multi-stream server runtime: a sharded pool of worker
//!   threads, one distillation session per client stream, with teacher
//!   forward passes batched across the key frames queued at a shard, fair
//!   deficit-round-robin batching, per-stream admission control,
//!   a distill crew on the cores the reactor
//!   leaves idle ([`st_tensor::parallel::Crew`]), warm-standby failover and LRU-bounded
//!   per-stream frame memory ([`serve::FrameStore`]). See
//!   `docs/ARCHITECTURE.md` at the workspace root for the full lifecycle of
//!   a key frame.
//! * [`timer`] — the deadline heap backing the reactor's time-based state
//!   (NeedFrame retries).
//! * [`loadgen`] — an open-loop skewed load generator (one hot stream at a
//!   multiple of the base key-frame rate) measuring per-stream round trips
//!   against a live pool; used by the fairness tests and benches.
//! * [`runtime`] — a deterministic **virtual-time runtime** (used by every
//!   table/figure reproduction) and a **threaded live runtime** built on
//!   crossbeam channels (client and server as real threads).
//! * [`baseline`] — naive offloading and the untrained "wild" student.
//! * [`bounds`] — the closed-form network-traffic and throughput bounds of
//!   §4.4 (equations 8, 12, 14, 15).
//! * [`pretrain`] — "public education": offline pre-training of the student
//!   before deployment.
//! * [`report`] — experiment records, per-table summary rows and replay of a
//!   recorded trace under different link models (used for Figure 4).

pub mod baseline;
pub mod bounds;
pub mod client;
pub mod config;
pub mod loadgen;
pub mod pretrain;
pub mod report;
pub mod runtime;
pub mod serve;
pub mod server;
pub mod stride;
pub mod timer;
pub mod train;

pub use config::{DistillationMode, PaperConstants, PlacementPolicy, ShadowTutorConfig};
pub use report::{ExperimentRecord, FrameRecord, KeyFrameRecord, PoolReport, ShardReport};
pub use runtime::sim::{DelayModel, SimRuntime};
pub use stride::next_stride;
pub use train::{train_student, TrainOutcome};

/// Result alias re-using the tensor error type.
pub type Result<T> = st_tensor::Result<T>;
