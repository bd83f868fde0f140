//! `par_ranges` runs on the process's parked lanes: no thread is started
//! per call, the caller runs a range itself, and a panicking range neither
//! escapes onto a lane nor costs the process a lane.
//!
//! One binary, and its tests serialized on [`SERIAL`]: `set_threads` and
//! the lane set are process-wide, so two tests setting them at once would
//! read each other's lanes.

use st_tensor::parallel::{par_ranges, set_threads, Lanes};
use std::collections::HashSet;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// 64 elements in granules of 16 at two threads: two ranges of 32.
const TOTAL: usize = 64;
const GRANULE: usize = 16;

/// The threads `calls` calls at two threads ran their ranges on.
fn threads_of(calls: usize) -> HashSet<ThreadId> {
    let seen = Mutex::new(HashSet::new());
    for _ in 0..calls {
        let covered = Mutex::new(vec![0u32; TOTAL]);
        par_ranges(TOTAL, GRANULE, |start, end| {
            seen.lock().unwrap().insert(thread::current().id());
            for hit in &mut covered.lock().unwrap()[start..end] {
                *hit += 1;
            }
        });
        assert_eq!(covered.into_inner().unwrap(), vec![1; TOTAL]);
    }
    seen.into_inner().unwrap()
}

#[test]
fn a_hundred_calls_at_two_threads_run_on_the_caller_and_one_lane() {
    let _serial = serial();
    set_threads(2);
    let seen = threads_of(100);
    set_threads(0);
    assert!(
        seen.len() <= 2,
        "100 calls ran their ranges on {} threads",
        seen.len()
    );
    assert!(
        seen.contains(&thread::current().id()),
        "the caller ran no range"
    );
    assert!(Lanes::global().width() >= 1);
}

/// One call at two threads whose range 1 is held off the caller: range 0
/// (the caller's) waits until range 1 has started elsewhere, which can
/// only be on a lane. Returns that lane, and how the call ended — range 1
/// panics if `sabotage` says so.
fn range_1_on_a_lane(sabotage: bool) -> (ThreadId, std::thread::Result<()>) {
    let lane: Mutex<Option<ThreadId>> = Mutex::new(None);
    let started = Condvar::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        par_ranges(TOTAL, GRANULE, |start, _end| {
            if start == 0 {
                let (ran, timeout) = started
                    .wait_timeout_while(lane.lock().unwrap(), Duration::from_secs(60), |ran| {
                        ran.is_none()
                    })
                    .unwrap();
                assert!(
                    ran.is_some() && !timeout.timed_out(),
                    "no lane took range 1"
                );
            } else {
                *lane.lock().unwrap() = Some(thread::current().id());
                started.notify_all();
                if sabotage {
                    panic!("range {start} panicked");
                }
            }
        });
    }));
    let lane = lane.into_inner().unwrap().expect("a lane ran range 1");
    (lane, outcome)
}

#[test]
fn a_panicking_range_unwinds_on_the_caller_and_the_lane_keeps_serving() {
    let _serial = serial();
    set_threads(2);
    let me = thread::current().id();
    let (lane, outcome) = range_1_on_a_lane(true);
    assert_ne!(lane, me, "range 1 ran on the caller");
    let payload = outcome.expect_err("the lane's panic was swallowed");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("range 32 panicked")
    );
    // The lane that caught the panic serves the next call, and no thread
    // was started to replace it.
    let width = Lanes::global().width();
    let (next_lane, outcome) = range_1_on_a_lane(false);
    assert!(outcome.is_ok());
    assert_eq!(next_lane, lane, "another thread took the next call");
    let seen = threads_of(20);
    set_threads(0);
    assert_eq!(Lanes::global().width(), width);
    assert!(seen.iter().all(|t| *t == me || *t == lane), "{seen:?}");
}
