//! The lock-free bounded-ring algorithm, generic over its storage.
//!
//! [`shm`](crate::shm) maps a file-backed segment and runs this exact
//! algorithm over atomics living inside the mapping; the model-check suite
//! (`tests/model_ring.rs`) runs the *same* functions over a heap-allocated
//! mock whose atomics are instrumented by `st_check`. The protocol — and
//! every memory-ordering decision — lives here, once, so the code that is
//! model-checked is the code that ships.
//!
//! The algorithm is a Vyukov-style bounded MPMC queue with a per-slot
//! sequence word doubling as a seqlock-style publication header:
//!
//! * A producer reads `tail` and the slot's `seq`; when `seq == ticket` the
//!   slot is free, and the producer claims it by CAS on `tail`, writes the
//!   payload, then *publishes* with `seq = ticket + 1` (release).
//! * A consumer reads `head` and the slot's `seq`; when `seq == ticket + 1`
//!   the slot is published, and the consumer claims it by CAS on `head`,
//!   reads the payload, then *retires* with `seq = ticket + slots` (release)
//!   making the slot free for the next lap.
//!
//! Readers never observe a partially written payload: the only edges that
//! transfer payload bytes between threads are the two release stores of
//! `seq` paired with the acquire loads in the opposite role.

use std::sync::atomic::Ordering;

/// Outcome of a non-blocking ring push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The chunk was published.
    Pushed,
    /// The ring was full; nothing was written.
    Full,
}

/// Storage seam for the ring algorithm: `slots` payload cells plus a `head`
/// and `tail` cursor and one sequence word per cell.
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

    /// Load the producer cursor.
    fn tail_load(&self, order: Ordering) -> u64;

    /// Weak CAS on the producer cursor; returns the witnessed value on
    /// failure.
    fn tail_compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;

    /// Load the consumer cursor.
    fn head_load(&self, order: Ordering) -> u64;

    /// Weak CAS on the consumer cursor; returns the witnessed value on
    /// failure.
    fn head_compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64>;

    /// Load slot `index`'s sequence word.
    fn seq_load(&self, index: usize, order: Ordering) -> u64;

    /// Store slot `index`'s sequence word.
    fn seq_store(&self, index: usize, value: u64, order: Ordering);

    /// Copy `chunk` into slot `index`'s payload cell. Only called while the
    /// caller holds the slot's ticket (between the claiming CAS and the
    /// publishing `seq` store).
    fn payload_write(&self, index: usize, chunk: &[u8]);

    /// Append slot `index`'s payload to `out`. Only called while the caller
    /// holds the slot's ticket (between the accepting `seq` load and the
    /// retiring `seq` store).
    fn payload_read(&self, index: usize, out: &mut Vec<u8>);
}

/// Non-blocking push of one chunk (Vyukov enqueue). Returns
/// [`PushOutcome::Full`] when no slot is free. Panics if `chunk` exceeds
/// [`RingMem::chunk_capacity`] — fragmentation is the caller's job.
pub fn try_push<M: RingMem>(mem: &M, chunk: &[u8]) -> PushOutcome {
    assert!(
        chunk.len() <= mem.chunk_capacity(),
        "chunk exceeds slot capacity"
    );
    let mask = mem.slots() as u64 - 1;
    // ORDER: the cursor is only a hint for picking a slot; the CAS below
    // re-validates it and the slot's seq word carries the synchronization.
    let mut pos = mem.tail_load(Ordering::Relaxed);
    loop {
        let index = (pos & mask) as usize;
        // ORDER (Acquire): pairs with the retiring release store in
        // `try_pop`; seeing `seq == pos` must also mean the previous lap's
        // consumer is done reading the payload bytes we are about to
        // overwrite.
        let seq = mem.seq_load(index, Ordering::Acquire);
        let dif = seq.wrapping_sub(pos) as i64;
        if dif == 0 {
            // ORDER: Relaxed CAS — it only arbitrates which producer owns
            // the ticket; payload publication rides the release store of
            // `seq` below, and the failure load feeds the same hint loop.
            match mem.tail_compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    mem.payload_write(index, chunk);
                    // ORDER (Release): publishes the payload bytes to the
                    // consumer's accepting acquire load of `seq`.
                    mem.seq_store(index, pos + 1, Ordering::Release);
                    return PushOutcome::Pushed;
                }
                Err(actual) => pos = actual,
            }
        } else if dif < 0 {
            return PushOutcome::Full;
        } else {
            // Another producer claimed this ticket; refresh the hint.
            // ORDER: see the initial tail load.
            pos = mem.tail_load(Ordering::Relaxed);
        }
    }
}

/// Non-blocking pop of one chunk into `out` (appended). Returns whether a
/// chunk was consumed.
pub fn try_pop<M: RingMem>(mem: &M, out: &mut Vec<u8>) -> bool {
    let mask = mem.slots() as u64 - 1;
    let slots = mem.slots() as u64;
    // ORDER: cursor hint only; the CAS re-validates (see `try_push`).
    let mut pos = mem.head_load(Ordering::Relaxed);
    loop {
        let index = (pos & mask) as usize;
        // ORDER (Acquire): pairs with the publishing release store in
        // `try_push`; accepting `seq == pos + 1` must also make the
        // producer's payload bytes visible to `payload_read`.
        let seq = mem.seq_load(index, Ordering::Acquire);
        let dif = seq.wrapping_sub(pos + 1) as i64;
        if dif == 0 {
            // ORDER: Relaxed suffices for the claiming CAS — consumer
            // arbitration only; the payload handoff rides the seq edges.
            match mem.head_compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    mem.payload_read(index, out);
                    // ORDER (Release): retires the slot a full lap ahead;
                    // pairs with the producer's acquire load so reuse of the
                    // payload bytes cannot overtake our read of them.
                    mem.seq_store(index, pos + slots, Ordering::Release);
                    return true;
                }
                Err(actual) => pos = actual,
            }
        } else if dif < 0 {
            return false;
        } else {
            // Another consumer claimed this ticket; refresh the hint.
            // ORDER: see the initial head load.
            pos = mem.head_load(Ordering::Relaxed);
        }
    }
}
