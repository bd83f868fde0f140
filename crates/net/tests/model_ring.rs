//! Model-checking the shared-memory ring protocol.
//!
//! [`st_net::ring`] is generic over its storage ([`RingMem`]), so these tests
//! run the *production* `try_push`/`try_pop` functions — the exact
//! code the shm transport ships — over a heap-allocated mock whose atomics
//! are instrumented by the `st_check` model checker. Two properties:
//!
//! * **Conservation**: every pushed chunk is popped exactly once, in the
//!   order it was pushed, under every explored interleaving of the producer
//!   and a concurrent consumer.
//! * **No torn reads**: the payload is written as two halves with plain
//!   (Relaxed) stores; the seqlock-style publication protocol alone must
//!   make both halves visible before a consumer can accept the slot. A
//!   popped chunk whose halves disagree — or that carries the cell's initial
//!   bytes — is a torn read.
//!
//! The mutant tests weaken one ordering at a time through a [`RingMem`]
//! adapter (the production code is untouched) and require the checker to
//! produce a counterexample: if a deliberately broken ring passes, the
//! checker is not actually guarding the protocol.
#![cfg(feature = "model-check")]

use std::cell::Cell;
use std::sync::Arc;

use st_check::model::{check_with, Config, Report};
use st_check::sync::thread;
use st_check::sync::{AtomicU64, Ordering};
use st_net::ring::{self, PushOutcome, RingMem};

/// Default exploration bounds (honours `ST_CHECK_BOUND` / `ST_CHECK_SEED`).
fn cfg() -> Config {
    Config::from_env()
}

fn assert_caught(report: &Report, what: &str) {
    let cx = report
        .counterexample
        .as_ref()
        .unwrap_or_else(|| panic!("checker failed to catch {what}"));
    assert!(!cx.schedule.is_empty(), "counterexample is not replayable");
}

fn assert_clean(report: &Report, what: &str) {
    if let Some(cx) = &report.counterexample {
        panic!("false positive on {what}:\n{}", cx.render());
    }
    assert!(report.exhausted, "{what}: exploration did not exhaust");
}

/// Heap-allocated ring storage over instrumented atomics. The payload of
/// each slot is two `u64` halves written with Relaxed stores — stand-ins for
/// the plain `memcpy` of the real shared-memory segment, so a missing
/// release/acquire edge shows up as a half carrying a stale value.
struct TestRing {
    slots: usize,
    seq: Vec<AtomicU64>,
    lo: Vec<AtomicU64>,
    hi: Vec<AtomicU64>,
}

/// Initial payload bytes of every cell; a popped chunk must never carry it.
const STALE: u8 = 0xEE;

impl TestRing {
    fn new(slots: usize) -> Self {
        TestRing {
            slots,
            seq: (0..slots).map(|i| AtomicU64::new(i as u64)).collect(),
            lo: (0..slots).map(|_| AtomicU64::new(STALE as u64)).collect(),
            hi: (0..slots).map(|_| AtomicU64::new(STALE as u64)).collect(),
        }
    }
}

impl RingMem for TestRing {
    fn slots(&self) -> usize {
        self.slots
    }

    fn chunk_capacity(&self) -> usize {
        1
    }

    fn seq_load(&self, index: usize, order: Ordering) -> u64 {
        self.seq[index].load(order)
    }

    fn seq_store(&self, index: usize, value: u64, order: Ordering) {
        self.seq[index].store(value, order);
    }

    fn payload_write(&self, index: usize, chunk: &[u8]) {
        // ORDER: deliberately Relaxed — plain memory; publication is the
        // protocol's job, and exactly what this suite is probing.
        self.lo[index].store(chunk[0] as u64, Ordering::Relaxed);
        self.hi[index].store(chunk[0] as u64, Ordering::Relaxed);
    }

    fn payload_read(&self, index: usize, out: &mut Vec<u8>) {
        // ORDER: deliberately Relaxed — see `payload_write`.
        out.push(self.lo[index].load(Ordering::Relaxed) as u8);
        out.push(self.hi[index].load(Ordering::Relaxed) as u8);
    }
}

/// [`RingMem`] adapter that demotes one class of ordering to Relaxed,
/// leaving the production algorithm untouched — the checker must catch the
/// resulting torn/stale reads for the suite to mean anything.
struct Weaken {
    inner: Arc<TestRing>,
    /// Demote the release `seq` stores (the producer's publication and the
    /// consumer's retirement) to Relaxed.
    demote_seq_store: bool,
    /// Demote the acquire `seq` loads (the producer's free-check and the
    /// consumer's acceptance) to Relaxed.
    demote_seq_load: bool,
}

impl RingMem for Weaken {
    fn slots(&self) -> usize {
        self.inner.slots()
    }

    fn chunk_capacity(&self) -> usize {
        self.inner.chunk_capacity()
    }

    fn seq_load(&self, index: usize, order: Ordering) -> u64 {
        let order = if self.demote_seq_load && order == Ordering::Acquire {
            Ordering::Relaxed
        } else {
            order
        };
        self.inner.seq_load(index, order)
    }

    fn seq_store(&self, index: usize, value: u64, order: Ordering) {
        let order = if self.demote_seq_store && order == Ordering::Release {
            Ordering::Relaxed
        } else {
            order
        };
        self.inner.seq_store(index, value, order);
    }

    fn payload_write(&self, index: usize, chunk: &[u8]) {
        self.inner.payload_write(index, chunk);
    }

    fn payload_read(&self, index: usize, out: &mut Vec<u8>) {
        self.inner.payload_read(index, out);
    }
}

/// Split the raw pop bytes back into (lo, hi) chunk halves and assert each
/// chunk is whole: halves equal, and never the cell's initial bytes.
fn chunks(out: &[u8]) -> Vec<u8> {
    assert_eq!(out.len() % 2, 0, "pop wrote a half chunk");
    out.chunks(2)
        .map(|pair| {
            assert_eq!(pair[0], pair[1], "torn read: payload halves disagree");
            assert_ne!(pair[0], STALE, "stale read: initial payload observed");
            pair[0]
        })
        .collect()
}

/// Push `chunks` in order from a fresh producer cursor, on a thread of the
/// execution; the handle returns each push's outcome.
fn producer<M: RingMem + Send + Sync + 'static>(
    mem: Arc<M>,
    chunks: &'static [u8],
) -> thread::JoinHandle<Vec<PushOutcome>> {
    thread::spawn(move || {
        let tail = Cell::new(0);
        chunks
            .iter()
            .map(|chunk| ring::try_push(&*mem, &tail, &[*chunk]))
            .collect()
    })
}

/// Pop twice while the producer runs — bounded attempts, so the consumer
/// never spins the schedule out — then, once it has joined, drain what the
/// concurrent pops missed. Returns the raw popped bytes.
fn consume<M: RingMem>(mem: &M, producer: thread::JoinHandle<Vec<PushOutcome>>) -> Vec<u8> {
    let head = Cell::new(0);
    let mut out = Vec::new();
    for _ in 0..2 {
        ring::try_pop(mem, &head, &mut out);
    }
    let pushed = producer.join().expect("join producer");
    // The ring has a slot per chunk: no push ever finds it full.
    assert!(
        pushed.iter().all(|p| *p == PushOutcome::Pushed),
        "the producer found the ring full"
    );
    while ring::try_pop(mem, &head, &mut out) {}
    out
}

/// Conservation, FIFO order and wholeness under every bounded interleaving
/// of one producer pushing two chunks and a concurrent consumer on a 2-slot
/// ring.
#[test]
fn ring_conserves_chunks_and_never_tears() {
    let report = check_with(cfg(), || {
        let ring = Arc::new(TestRing::new(2));
        let out = consume(&*ring, producer(Arc::clone(&ring), &[7, 9]));
        assert_eq!(
            chunks(&out),
            vec![7, 9],
            "chunks lost, duplicated or reordered"
        );
    });
    assert_clean(&report, "ring conservation");
}

/// A full ring refuses the push without corrupting anything, and frees a
/// slot after one pop.
#[test]
fn ring_full_rejects_then_recovers() {
    let report = check_with(cfg(), || {
        let ring = TestRing::new(2);
        let (tail, head) = (Cell::new(0), Cell::new(0));
        assert_eq!(ring::try_push(&ring, &tail, &[1]), PushOutcome::Pushed);
        assert_eq!(ring::try_push(&ring, &tail, &[2]), PushOutcome::Pushed);
        assert_eq!(ring::try_push(&ring, &tail, &[3]), PushOutcome::Full);
        let mut out = Vec::new();
        assert!(ring::try_pop(&ring, &head, &mut out));
        assert_eq!(ring::try_push(&ring, &tail, &[3]), PushOutcome::Pushed);
        assert!(ring::try_pop(&ring, &head, &mut out));
        assert!(ring::try_pop(&ring, &head, &mut out));
        assert!(!ring::try_pop(&ring, &head, &mut out));
        assert_eq!(chunks(&out), vec![1, 2, 3], "FIFO order violated");
    });
    assert_clean(&report, "full-ring rejection");
}

/// Mutant: demoting the release `seq` stores to Relaxed breaks publication —
/// a consumer can accept a slot whose payload writes it cannot yet see. The
/// checker must find the torn/stale read.
#[test]
fn seq_store_release_mutant_is_caught() {
    let report = check_with(cfg(), || {
        let ring = Arc::new(TestRing::new(2));
        let weak = Arc::new(Weaken {
            inner: Arc::clone(&ring),
            demote_seq_store: true,
            demote_seq_load: false,
        });
        let out = consume(&*weak, producer(Arc::clone(&weak), &[7]));
        assert_eq!(chunks(&out), vec![7], "chunk lost");
    });
    assert_caught(&report, "the Relaxed-publication mutant");
}

/// Mutant: demoting the acquire `seq` loads to Relaxed breaks acceptance —
/// the consumer can see the published sequence word without the payload
/// bytes it guards. The checker must find the torn/stale read.
#[test]
fn seq_load_acquire_mutant_is_caught() {
    let report = check_with(cfg(), || {
        let ring = Arc::new(TestRing::new(2));
        let weak = Arc::new(Weaken {
            inner: Arc::clone(&ring),
            demote_seq_store: false,
            demote_seq_load: true,
        });
        let out = consume(&*weak, producer(Arc::clone(&weak), &[7]));
        assert_eq!(chunks(&out), vec![7], "chunk lost");
    });
    assert_caught(&report, "the Relaxed-acceptance mutant");
}

/// Replay determinism: the same seed explores the same schedules and pins
/// the same counterexample, bit for bit — `ST_CHECK_SEED` makes a CI
/// failure reproducible at a desk.
#[test]
fn ring_counterexample_replays_deterministically() {
    fn run() -> Report {
        // Fixed seed on purpose: this test pins exact traces, which the
        // env-var override would (correctly) change.
        let cfg = Config {
            seed: 41,
            ..Config::default()
        };
        check_with(cfg, || {
            let ring = Arc::new(TestRing::new(2));
            let weak = Arc::new(Weaken {
                inner: Arc::clone(&ring),
                demote_seq_store: true,
                demote_seq_load: false,
            });
            let out = consume(&*weak, producer(Arc::clone(&weak), &[7]));
            assert_eq!(chunks(&out), vec![7], "chunk lost");
        })
    }
    let (first, second) = (run(), run());
    let a = first.counterexample.expect("run 1 caught nothing");
    let b = second.counterexample.expect("run 2 caught nothing");
    assert_eq!(a.schedule, b.schedule, "schedules differ for equal seeds");
    assert_eq!(a.trace, b.trace, "traces differ for equal seeds");
    assert_eq!(a.message, b.message, "messages differ for equal seeds");
}
