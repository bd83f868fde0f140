//! The update path's copy budget, as a number the library asserts.
//!
//! One paper-width full snapshot goes `capture` → `encode` → `ShmTransport`
//! → `decode` → `apply` between two ends of one segment in this process,
//! under a counting global allocator. Every buffer the path materialises is
//! a heap allocation of about the snapshot's encoded size, so total heap
//! bytes over encoded size *is* the number of full copies held at some
//! point: the encoded snapshot (1), the frame reassembled on the far side
//! (1, the payload stays a window of it) and the decoded tensors (1). The
//! same run before the bulk codec and the borrowed payload views measured
//! 7.03 × (CHANGES.md, PR 23).
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use st_net::{
    ClientToServer, Payload, ServerToClient, ShmConfig, ShmSide, ShmTransport, Transport,
};
use st_nn::snapshot::{SnapshotScope, WeightSnapshot};
use st_nn::student::{StudentConfig, StudentNet};
use st_nn::Param;
use st_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Heap bytes requested so far, by any thread: every allocation's size and
/// every reallocation's growth.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Every parameter and running-stat tensor of `net`, by name (clones share
/// the network's storage).
fn tensors(net: &mut StudentNet) -> Vec<(String, Tensor)> {
    let mut held = Vec::new();
    net.visit_params(&mut |p: &mut Param, _| held.push((p.name.clone(), p.value.clone())));
    net.visit_buffers(&mut |name: &str, value: &mut Tensor, _| {
        held.push((name.to_string(), value.clone()))
    });
    held
}

/// One update, end to end: the server's weights, captured and encoded, cross
/// the ring and are decoded and applied to `student`.
fn ship_update(
    server_net: &mut StudentNet,
    server: &mut ShmTransport<ServerToClient, ClientToServer>,
    client: &mut ShmTransport<ClientToServer, ServerToClient>,
    student: &mut StudentNet,
) -> usize {
    std::thread::scope(|scope| {
        // A 2 MB frame through a 1 MB ring: the two ends must overlap.
        let sender = scope.spawn(move || {
            let update = WeightSnapshot::capture(server_net, SnapshotScope::Full);
            let message = ServerToClient::StudentUpdate {
                frame_index: 0,
                metric: 0.5,
                distill_steps: 0,
                payload: Payload::with_data(update.encode()),
            };
            server.send(message, 0).expect("send update");
            update.encoded_size()
        });
        let message = client
            .recv_timeout(Duration::from_secs(30))
            .expect("receive update");
        let ServerToClient::StudentUpdate { payload, .. } = message else {
            panic!("expected a student update, got {message:?}");
        };
        let data = payload.data.expect("update carries bytes");
        let snapshot = WeightSnapshot::decode(&data, SnapshotScope::Full).expect("decode");
        let applied = snapshot.apply(student).expect("apply");
        assert_eq!(applied, snapshot.entry_count());
        sender.join().expect("sender thread")
    })
}

#[test]
fn a_full_update_is_held_at_most_three_and_a_half_times_end_to_end() {
    let mut server_net = StudentNet::new(StudentConfig::paper()).unwrap();
    let mut student = StudentNet::new(StudentConfig {
        seed: StudentConfig::paper().seed + 1,
        ..StudentConfig::paper()
    })
    .unwrap();
    let path = st_net::shm::default_segment_path("update-path-budget");
    let mut server = ShmTransport::<ServerToClient, ClientToServer>::create(
        &path,
        ShmSide::Server,
        ShmConfig::default(),
    )
    .unwrap();
    let mut client = ShmTransport::<ClientToServer, ServerToClient>::open(
        &path,
        ShmSide::Client,
        Duration::from_secs(5),
    )
    .unwrap();

    let before = REQUESTED.load(Ordering::Relaxed);
    let encoded = ship_update(&mut server_net, &mut server, &mut client, &mut student);
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    let ratio = requested as f64 / encoded as f64;
    println!("update path: {requested} heap bytes for a {encoded}-byte update = {ratio:.2} x");
    assert!(encoded > 2_000_000, "not a paper-width snapshot: {encoded}");
    assert!(
        ratio <= 3.5,
        "{requested} heap bytes for a {encoded}-byte update: {ratio:.2} x (budget 3.5 x)"
    );
    assert_eq!(
        WeightSnapshot::capture(&mut student, SnapshotScope::Full).encode(),
        WeightSnapshot::capture(&mut server_net, SnapshotScope::Full).encode(),
        "the update did not arrive bit for bit"
    );

    // The same update again changes nothing, so it may replace nothing:
    // every tensor keeps the storage the first update gave it.
    let after_first = tensors(&mut student);
    ship_update(&mut server_net, &mut server, &mut client, &mut student);
    for ((name, now), (_, then)) in tensors(&mut student).iter().zip(&after_first) {
        assert!(
            now.shares_storage(then),
            "{name} was replaced by an identical update"
        );
    }
}
