//! What one key-frame distillation holds on the heap, as a number the
//! library asserts.
//!
//! `train_student` makes `1 + 2 × steps` passes over one key frame. What is
//! live at its peak beyond what the session held on entry is activations and
//! gradients: each trainable layer's cached input and batch-norm x̂, the
//! gradient walking back through them, one transient `Wᵀ·gO` matrix per
//! convolution backward, the best-weights snapshot. No convolution keeps a
//! column matrix for its backward pass and no forward builds one, so the peak
//! is a fraction of what the same call held when they did (PARENT_PEAK_BYTES,
//! read by this test at the commit before). A session between key frames
//! holds weights and optimizer moments, nothing else: a second call returns
//! with exactly the live bytes the first one left. And the client's `predict`
//! never asks the allocator for more than the logits: every request stays
//! under glibc's 128 KiB `mmap` threshold.
//!
//! One `#[test]`: the counters are process-wide.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use shadowtutor::config::ShadowTutorConfig;
use shadowtutor::train::train_student;
use st_nn::optim::Adam;
use st_nn::student::{StudentConfig, StudentNet};
use st_video::{CameraMotion, SceneKind, VideoCategory, VideoConfig, VideoGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap bytes live right now, their high-water mark since the last
/// [`mark`], and the largest single request since then.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize, request: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    LARGEST.fetch_max(request, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size(), new_size);
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Start a measurement: the live bytes now, with the high-water mark and the
/// largest request reset to them.
fn mark() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    live
}

/// Peak of the same call at the parent commit (PR 23, 0c2db13), where every
/// trainable convolution cached its column matrix and every forward built
/// one: read by this test there.
const PARENT_PEAK_BYTES: usize = 6_364_748;

#[test]
fn a_key_frame_peaks_at_activations_and_a_session_at_rest_holds_none() {
    // One thread: a worker the GEMM spawned may still be returning its
    // handle (160 B) to the allocator when its scope has already been left,
    // and the byte-exact comparisons below are about the session, not about
    // thread exit. The kernels allocate the same per stripe either way.
    st_tensor::parallel::set_threads(1);
    let config = ShadowTutorConfig::paper();
    let mut student = StudentNet::new(StudentConfig::small()).unwrap();
    student.freeze = config.mode.freeze_point();
    let mut optimizer = Adam::new(config.learning_rate);
    let category = VideoCategory {
        camera: CameraMotion::Moving,
        scene: SceneKind::Street,
    };
    let mut video = VideoGenerator::new(VideoConfig::for_category(category, 64, 48, 9)).unwrap();
    let frames: Vec<_> = (0..3).map(|_| video.next_frame()).collect();

    // One key frame: the peak above what the session came in with.
    let before = mark();
    let first = train_student(
        &mut student,
        &mut optimizer,
        &frames[0],
        &frames[0].ground_truth,
        &config,
    )
    .unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let at_rest = LIVE.load(Ordering::Relaxed);
    assert!(first.steps >= 1, "the key frame must train");

    // The next key frames: everything they allocate, they free.
    for frame in &frames[1..] {
        let outcome = train_student(
            &mut student,
            &mut optimizer,
            frame,
            &frame.ground_truth,
            &config,
        )
        .unwrap();
        assert!(outcome.steps >= 1, "the key frame must train");
        assert_eq!(
            LIVE.load(Ordering::Relaxed),
            at_rest,
            "a session at rest holds weights and optimizer moments, nothing else"
        );
    }

    // The client's whole pass: nothing column-shaped, nothing above the
    // full-resolution logits (9 × 64 × 48 × 4 = 110 592 B).
    mark();
    let labels = student.predict(&frames[0].image).unwrap();
    let largest = LARGEST.load(Ordering::Relaxed);
    assert_eq!(LIVE.load(Ordering::Relaxed), at_rest + labels.len() * 8);

    // Printing allocates (the harness captures it), so only now.
    println!(
        "one small() 64x48 partial key frame ({} steps): peak {peak} B above entry \
         ({:.1} % of the parent commit's {PARENT_PEAK_BYTES} B), {} B kept (private \
         weights + Adam moments); predict: largest single allocation {largest} B",
        first.steps,
        100.0 * peak as f64 / PARENT_PEAK_BYTES as f64,
        at_rest - before,
    );
    assert!(
        peak * 100 <= PARENT_PEAK_BYTES * 55,
        "a key frame peaked at {peak} B, over 55 % of the {PARENT_PEAK_BYTES} B it held with cached columns"
    );
    assert!(
        (110_592..=128 * 1024).contains(&largest),
        "predict's largest allocation is {largest} B"
    );
}
