//! A chunked parallel-for built on crossbeam scoped threads.
//!
//! The ShadowTutor client device in the paper (Jetson Nano) has a quad-core
//! CPU; the server has eight cores. [`par_ranges`] lets the GEMM use
//! whatever cores the host machine offers without pulling in a full task
//! scheduler: work is split into contiguous ranges, one scoped
//! thread per range. When only one core is available (or the work is a
//! single granule) everything degrades to a plain serial call, which keeps
//! single-core CI deterministic and overhead-free.
//!
//! A caller that has already split its work across threads one level up —
//! the server pool's distill crew runs whole sessions side by side — wraps
//! each piece in [`serial_scope`]: [`par_ranges`] on that thread then runs
//! serially, so `outer × inner` threads never pile onto `outer` cores. The
//! kernels' results do not depend on the split, so this moves time only.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Worker count when no [`set_threads`] override is in force: the
/// `ST_THREADS` environment variable if it parses to a positive count,
/// else the host's core count. Resolved once per process — asking the OS
/// (`available_parallelism` reads cgroup files) costs ≈ 10 µs, which a
/// small GEMM would otherwise pay on every call.
fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var("ST_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

/// Number of worker threads the helpers will use.
///
/// Resolution order: [`set_threads`] override (useful in code that models a
/// specific device), then the `ST_THREADS` environment variable (useful to
/// pin a whole benchmark run, e.g. `ST_THREADS=1` for single-core numbers),
/// then [`std::thread::available_parallelism`].
pub fn threads() -> usize {
    // ORDER: Relaxed — an isolated tuning knob; no other memory is published
    // through it, and a momentarily stale read only changes a split factor.
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    default_threads()
}

/// Pin the number of worker threads (0 restores the automatic default).
pub fn set_threads(n: usize) {
    // ORDER: Relaxed — see `threads()`: a tuning knob, not a publication.
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

thread_local! {
    /// Whether this thread is already one lane of a caller-level split.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a parallel region until dropped; see
/// [`serial_scope`].
#[must_use = "the scope ends when the guard is dropped"]
pub struct SerialScope {
    outer: bool,
}

/// Run [`par_ranges`] serially on this thread until the returned guard is
/// dropped (scopes nest; the previous state comes back on drop, unwinding
/// included).
pub fn serial_scope() -> SerialScope {
    SerialScope {
        outer: IN_PARALLEL_REGION.with(|flag| flag.replace(true)),
    }
}

impl Drop for SerialScope {
    fn drop(&mut self) {
        IN_PARALLEL_REGION.with(|flag| flag.set(self.outer));
    }
}

/// Split `[0, total)` into one contiguous range per worker thread — each
/// range a multiple of `granularity` except possibly the last — and run
/// `f(start, end)` on every non-empty range, in parallel when there is more
/// than one range. `f` is called serially as `f(0, total)` when only one
/// worker is available, `total <= granularity`, or the calling thread is
/// inside a [`serial_scope`].
///
/// This is the split the packed GEMM uses to hand disjoint column stripes to
/// workers: the callback owns its index range, not a slice, so kernels whose
/// per-range output is strided (e.g. a column block of a row-major matrix)
/// can do their own addressing.
pub fn par_ranges<F>(total: usize, granularity: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    assert!(granularity > 0, "granularity must be non-zero");
    let n_threads = threads();
    if n_threads <= 1 || total <= granularity || IN_PARALLEL_REGION.with(Cell::get) {
        if total > 0 {
            f(0, total);
        }
        return;
    }
    let units = total.div_ceil(granularity);
    let per_worker = units.div_ceil(n_threads) * granularity;
    crossbeam::scope(|s| {
        let mut start = 0usize;
        while start < total {
            let end = (start + per_worker).min(total);
            let f = &f;
            s.spawn(move |_| f(start, end));
            start = end;
        }
    })
    .expect("scoped worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_override_round_trip() {
        let original = threads();
        set_threads(3);
        assert_eq!(threads(), 3);
        set_threads(0);
        assert!(threads() >= 1);
        let _ = original;
    }

    #[test]
    fn par_ranges_covers_exactly_once() {
        use std::sync::Mutex;
        for total in [0usize, 1, 7, 16, 100, 4097] {
            for granularity in [1usize, 8, 16] {
                let hits = Mutex::new(vec![0u32; total]);
                par_ranges(total, granularity, |start, end| {
                    assert!(start < end || total == 0);
                    let mut hits = hits.lock().unwrap();
                    for h in &mut hits[start..end] {
                        *h += 1;
                    }
                });
                assert!(
                    hits.into_inner().unwrap().iter().all(|&h| h == 1),
                    "total {total} granularity {granularity} not covered exactly once"
                );
            }
        }
    }

    #[test]
    fn serial_scope_runs_one_range_on_the_caller_and_unwinds_cleanly() {
        use std::sync::Mutex;
        let inside = || IN_PARALLEL_REGION.with(Cell::get);
        // At whatever worker count the process runs with: the override is
        // process-wide and `thread_override_round_trip` owns it.
        let calls = Mutex::new(Vec::new());
        {
            let _outer = serial_scope();
            {
                let _nested = serial_scope();
            }
            assert!(inside(), "the nested guard restored the wrong state");
            par_ranges(4096, 8, |start, end| {
                calls
                    .lock()
                    .unwrap()
                    .push((start, end, std::thread::current().id()));
            });
        }
        assert_eq!(
            *calls.lock().unwrap(),
            vec![(0, 4096, std::thread::current().id())]
        );
        assert!(!inside());
        // A panic inside the scope restores the flag on the way out.
        let unwound = std::panic::catch_unwind(|| {
            let _scope = serial_scope();
            panic!("inside the scope");
        });
        assert!(unwound.is_err());
        assert!(!inside(), "the flag leaked out of an unwound scope");
    }

    #[test]
    fn par_ranges_respects_granularity_boundaries() {
        use std::sync::Mutex;
        let starts = Mutex::new(Vec::new());
        par_ranges(100, 16, |start, _end| {
            starts.lock().unwrap().push(start);
        });
        for s in starts.into_inner().unwrap() {
            assert_eq!(s % 16, 0, "range start {s} not aligned to granularity");
        }
    }
}
