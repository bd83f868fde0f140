//! # st-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! ShadowTutor paper from the Rust reproduction.
//!
//! The heavy lifting lives in [`workloads`]: it builds the per-category video
//! streams, pre-trains a student checkpoint once, runs the virtual-time
//! runtime for every system variant, and converts the resulting
//! [`shadowtutor::ExperimentRecord`]s into the rows of each table. The
//! `reproduce` binary (`cargo run -p st-bench --bin reproduce -- <target>`)
//! prints the tables; the Criterion benches measure the latency quantities
//! (distillation steps, student inference) and print the corresponding
//! table as part of their setup so `cargo bench` regenerates everything in
//! one pass. Kernel, wire and ring micro-numbers are `stbench`'s per-layer
//! probes.

pub mod figures;
pub mod json;
pub mod shm_demo;
pub mod tables;
pub mod workloads;

pub use workloads::{ExperimentScale, SharedSetup};
