//! `ServerPool::join` takes every thread the pool started with it — the
//! reactor workers and the distill crew's parked helpers.
//!
//! A binary of its own, with this one test in it: the count of OS threads in
//! the process is only meaningful while nothing else is starting any.
#![cfg(target_os = "linux")]

use shadowtutor::config::ShadowTutorConfig;
use shadowtutor::serve::{PoolConfig, ServerPool};
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::OracleTeacher;

fn threads_in_process() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn join_takes_the_helper_threads_with_it() {
    // More cores than reactor workers wherever the host has two: one shard
    // on one worker, every other core (up to three) a crew helper.
    let pool_config = PoolConfig::with_shards(1);
    let before = threads_in_process();
    let pool = ServerPool::spawn(
        ShadowTutorConfig::paper(),
        pool_config,
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(1),
    )
    .unwrap();
    // Spawned threads exist from `spawn`'s return on: one reactor worker
    // plus the derived helper count, parked without ever being offered work.
    assert_eq!(
        threads_in_process(),
        before + 1 + pool_config.crew_helpers()
    );
    pool.join().unwrap();
    // A joined thread has exited, but the kernel may list its task for a
    // moment longer; give the listing (not the pool) a bounded grace.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads_in_process() != before && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads_in_process(), before, "join left a thread behind");
}
