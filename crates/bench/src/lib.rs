//! # st-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! ShadowTutor paper from the Rust reproduction.
//!
//! The heavy lifting lives in [`workloads`]: it builds the per-category video
//! streams, pre-trains a student checkpoint once, runs the virtual-time
//! runtime for every system variant, and converts the resulting
//! [`shadowtutor::ExperimentRecord`]s into the rows of each table;
//! [`tables`] also drives the live pool for this reproduction's own tables
//! and holds the gates checked on them. The `reproduce` binary
//! (`cargo run -p st-bench --bin reproduce -- [scale] <target>`) is the one
//! way to run any of them: it prints the tables, writes them as JSON on
//! request ([`json`]) and exits non-zero when a gate fails. Kernel, wire and
//! ring micro-numbers are `stbench`'s per-layer probes.

pub mod figures;
pub mod json;
pub mod shm_demo;
pub mod tables;
pub mod workloads;

pub use workloads::{ExperimentScale, SharedSetup};
