//! A pool starts its reactor workers and nothing else per spawn, and
//! `ServerPool::join` takes them with it. The distill crew runs on the
//! process's parked lanes, which the first pool grows and every later pool
//! reuses.
//!
//! A binary of its own, with this one test in it: the count of OS threads in
//! the process is only meaningful while nothing else is starting any.
#![cfg(target_os = "linux")]

use shadowtutor::config::ShadowTutorConfig;
use shadowtutor::serve::{PoolConfig, ServerPool};
use st_nn::student::{StudentConfig, StudentNet};
use st_teacher::OracleTeacher;
use st_tensor::parallel::Lanes;

fn threads_in_process() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

fn spawn_pool(pool_config: PoolConfig) -> ServerPool {
    ServerPool::spawn(
        ShadowTutorConfig::paper(),
        pool_config,
        StudentNet::new(StudentConfig::tiny()).unwrap(),
        0.013,
        |_| OracleTeacher::perfect(1),
    )
    .unwrap()
}

/// Wait for the thread count to read `expected`: a joined thread has
/// exited, but the kernel may list its task for a moment longer; give the
/// listing (not the pool) a bounded grace.
fn settle_at(expected: usize) -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads_in_process() != expected && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    threads_in_process()
}

#[test]
fn a_second_pool_starts_only_its_reactor_workers_and_join_takes_them() {
    // More cores than reactor workers wherever the host has two: one shard
    // on one worker, every other core (up to three) a crew lane.
    let pool_config = PoolConfig::with_shards(1);
    let start = threads_in_process();
    spawn_pool(pool_config).join().unwrap();
    // The first pool grew the lane set to its crew's width; the lanes stay.
    assert!(Lanes::global().width() >= pool_config.crew_helpers());
    let before = settle_at(start + Lanes::global().width());
    assert_eq!(before, start + Lanes::global().width());

    let pool = spawn_pool(pool_config);
    // One reactor worker, and no crew thread: the lanes are already there.
    assert_eq!(threads_in_process(), before + 1);
    pool.join().unwrap();
    assert_eq!(settle_at(before), before, "join left a thread behind");
}
