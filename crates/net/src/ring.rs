//! The lock-free bounded-ring algorithm, generic over its storage.
//!
//! [`shm`](crate::shm) maps a file-backed segment and runs this exact
//! algorithm over atomics living inside the mapping; the model-check suite
//! (`tests/model_ring.rs`) runs the *same* functions over a heap-allocated
//! mock whose atomics are instrumented by `st_check`. The protocol — and
//! every memory-ordering decision — lives here, once, so the code that is
//! model-checked is the code that ships.
//!
//! The ring is single-producer / single-consumer: one ring per direction,
//! one sender and one receiver on each. Each side keeps its own cursor
//! (`tail` for the producer, `head` for the consumer) in its own memory;
//! the only shared words are the slots' sequence words, which double as
//! seqlock-style publication headers:
//!
//! * The producer's slot is free when its `seq == tail` (acquire); the
//!   producer writes the payload, *publishes* with `seq = tail + 1`
//!   (release), and advances `tail`.
//! * The consumer's slot is published when its `seq == head + 1`
//!   (acquire); the consumer reads the payload, *retires* the slot with
//!   `seq = head + slots` (release), making it free for the next lap, and
//!   advances `head`.
//!
//! Any other `seq` value reads as "full" or "empty": a side never touches a
//! slot out of turn, whatever the other side wrote. Readers never observe a
//! partially written payload: the only edges that transfer payload bytes
//! between threads are the two release stores of `seq` paired with the
//! acquire loads in the opposite role.

use std::cell::Cell;
use std::sync::atomic::Ordering;

/// Outcome of a non-blocking ring push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The chunk was published.
    Pushed,
    /// The ring was full; nothing was written.
    Full,
}

/// Storage seam for the ring algorithm: `slots` payload cells and one
/// sequence word per cell.
///
/// Every atomic op takes its [`Ordering`] from the caller so the algorithm
/// in [`try_push`]/[`try_pop`] owns the ordering decisions and an
/// implementation cannot accidentally strengthen (or weaken) them. Payload
/// access is deliberately non-atomic ([`payload_write`]/[`payload_read`]):
/// its safety is exactly what the sequence protocol has to establish, and
/// what the model-check suite probes with torn-read detectors.
///
/// [`payload_write`]: RingMem::payload_write
/// [`payload_read`]: RingMem::payload_read
pub trait RingMem {
    /// Number of slots; must be a power of two ≥ 2.
    fn slots(&self) -> usize;

    /// Usable payload bytes per slot.
    fn chunk_capacity(&self) -> usize;

    /// Load slot `index`'s sequence word.
    fn seq_load(&self, index: usize, order: Ordering) -> u64;

    /// Store slot `index`'s sequence word.
    fn seq_store(&self, index: usize, value: u64, order: Ordering);

    /// Copy `chunk` into slot `index`'s payload cell. Only called by the
    /// producer, between seeing the slot free and publishing it.
    fn payload_write(&self, index: usize, chunk: &[u8]);

    /// Append slot `index`'s payload to `out`. Only called by the consumer,
    /// between accepting the slot and retiring it.
    fn payload_read(&self, index: usize, out: &mut Vec<u8>);
}

/// Non-blocking push of one chunk at the producer's cursor `tail`, which
/// advances on success. Returns [`PushOutcome::Full`] when the slot is not
/// free. Panics if `chunk` exceeds [`RingMem::chunk_capacity`] —
/// fragmentation is the caller's job.
pub fn try_push<M: RingMem>(mem: &M, tail: &Cell<u64>, chunk: &[u8]) -> PushOutcome {
    assert!(
        chunk.len() <= mem.chunk_capacity(),
        "chunk exceeds slot capacity"
    );
    let pos = tail.get();
    let index = (pos & (mem.slots() as u64 - 1)) as usize;
    // ORDER (Acquire): pairs with the retiring release store in `try_pop`;
    // seeing `seq == pos` must also mean the previous lap's consumer is done
    // reading the payload bytes we are about to overwrite.
    if mem.seq_load(index, Ordering::Acquire) != pos {
        return PushOutcome::Full;
    }
    mem.payload_write(index, chunk);
    // ORDER (Release): publishes the payload bytes to the consumer's
    // accepting acquire load of `seq`.
    mem.seq_store(index, pos + 1, Ordering::Release);
    tail.set(pos + 1);
    PushOutcome::Pushed
}

/// Non-blocking pop of one chunk at the consumer's cursor `head` into `out`
/// (appended); `head` advances on success. Returns whether a chunk was
/// consumed.
pub fn try_pop<M: RingMem>(mem: &M, head: &Cell<u64>, out: &mut Vec<u8>) -> bool {
    let pos = head.get();
    let index = (pos & (mem.slots() as u64 - 1)) as usize;
    // ORDER (Acquire): pairs with the publishing release store in
    // `try_push`; accepting `seq == pos + 1` must also make the producer's
    // payload bytes visible to `payload_read`.
    if mem.seq_load(index, Ordering::Acquire) != pos + 1 {
        return false;
    }
    mem.payload_read(index, out);
    // ORDER (Release): retires the slot a full lap ahead; pairs with the
    // producer's acquire load so reuse of the payload bytes cannot overtake
    // our read of them.
    mem.seq_store(index, pos + mem.slots() as u64, Ordering::Release);
    head.set(pos + 1);
    true
}
