//! Workspace-level umbrella crate for the ShadowTutor reproduction.
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); it re-exports the member crates
//! so those targets can use a single dependency surface. Library users
//! should depend on the individual crates (`shadowtutor`, `st-nn`,
//! `st-video`, ...) directly.

pub mod testsupport;

pub use shadowtutor;
pub use st_net;
pub use st_nn;
pub use st_teacher;
pub use st_tensor;
pub use st_video;
