//! Correctness tooling for the ShadowTutor reproduction.
//!
//! Two halves (and [`json`], the workspace's dependency-free JSON writer):
//!
//! - [`sync`] — a facade over `std::sync` (`AtomicUsize`, `Mutex`, `Condvar`,
//!   `thread::spawn`, `fence`, …). Normal builds re-export `std` verbatim;
//!   with the `model-check` feature the same names become instrumented types
//!   driven by `model`, a deterministic schedule-exploring model checker
//!   with per-location store buffers for weak memory orderings. The lock-free
//!   hot paths of `st-net` (shm ring, poller) and `shadowtutor` (the distill
//!   crew's hand-off) are written against this facade, so the *production* code is
//!   what runs under the checker.
//! - [`lint`] — the token-level scanner behind the `st-lint` binary
//!   (`cargo run -p st-check --bin st-lint -- --deny`), enforcing repo
//!   invariants: `// SAFETY:` before `unsafe`, `// ORDER:` justification on
//!   `Ordering::Relaxed`, no `unwrap`/`expect` in `serve/`/`shm.rs`
//!   non-test code, no native-endian byte conversions in `st-net`, and no
//!   `thread::sleep` in reactor code.
//!
//! Knobs (model checker): `ST_CHECK_SEED` picks the deterministic exploration
//! seed, `ST_CHECK_BOUND` the schedule budget. Same seed, same trace.

pub mod json;
pub mod lint;
#[cfg(feature = "model-check")]
pub mod model;
pub mod sync;
