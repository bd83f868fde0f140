//! Cross-process transport over a lock-free shared-memory ring.
//!
//! This is the second [`Transport`] backend:
//! client and pool run as separate OS processes and every protocol message
//! crosses the boundary as its framed binary encoding ([`crate::wire`])
//! through a bounded circular array in a file-backed shared-memory
//! segment. The design follows cpp-ipc's `ipc::route`/`ipc::channel`:
//! fixed-capacity slots, a per-slot sequence word acting as a seqlock-style
//! publication header, spin-then-park waits, and N-producer capability for
//! the benchmark tables.
//!
//! # Segment layout
//!
//! ```text
//! offset 0    segment header (64 B):
//!             magic "STSH" · layout version · slot count · slot size ·
//!             ready flag · per-side close flags
//! offset 64   ring 0 header (client → server): tail (+0), head (+64)
//! offset 192  ring 0 slots: slots × (16 B slot header + slot_bytes)
//!             slot header: seq (u64) · chunk length (u32) · pad
//! ...         ring 1 header (server → client), ring 1 slots
//! ```
//!
//! Each ring is a Vyukov-style bounded MPMC queue: a producer claims a slot
//! by CAS on `tail` when the slot's `seq` equals the ticket, writes the
//! chunk, then *publishes* by storing `seq = ticket + 1` (release); a
//! consumer accepts when `seq == ticket + 1` and retires the slot with
//! `seq = ticket + slots`. Readers never see a partially written chunk —
//! the sequence word is the seqlock.
//!
//! Messages larger than one slot are fragmented into consecutive chunks and
//! reassembled on the consumer side; fragmentation assumes one producer per
//! ring (which is how [`ShmTransport`] uses it — one ring per direction).
//! The multi-producer path used by the `transport_ops` bench requires
//! single-chunk messages.
//!
//! Waiting is spin-then-park: a bounded busy-spin, then `yield_now`, then
//! short sleeps — there is no cross-process futex in std. Receiver-side
//! readiness integrates with the in-process
//! [`Poller`](crate::poll::Poller)/[`Waker`](crate::poll::Waker) interface
//! through [`ShmTransport::wake_on_message`], which parks a notifier thread
//! on the ring and fires the waker token whenever a chunk becomes
//! consumable.
//!
//! Memory: a message's byte payload crosses in two copies, one per side.
//! `send` never builds the frame: the length prefix, the frame header and
//! the message's fields are encoded into a slot-sized head
//! ([`Wire::encode_gather`]) and the payload's `Bytes` is cut into the ring's
//! slots from where it lies (only a chunk that straddles head and payload is
//! staged). The receiver pops the first chunk, reads the prefix, and from then
//! on pops every chunk straight into the frame under assembly — no
//! zero-filling, no intermediate buffer — reserving at most one ring's worth
//! of bytes ahead of what has arrived, whatever the prefix claims; the
//! finished frame becomes one `Bytes` and the decoded message's payload is
//! a window of it ([`Wire::decode_within`]). A full student snapshot still
//! makes that one buffer per side ~2 MB, so the first transport a process
//! attaches tells the allocator to keep freed heap instead of faulting it
//! back in for every message (`keep_freed_heap`).
//!
//! Platform: the segment is mapped with raw `mmap`/`munmap` syscalls
//! (x86_64 Linux; the workspace vendors no libc). On other targets the
//! constructors return [`std::io::ErrorKind::Unsupported`].

use crate::ring::{self, RingMem};
use crate::transport::{Transport, TransportError};
use crate::wire::{self, Wire};
use bytes::Bytes;

pub use crate::ring::PushOutcome;
use std::fs::{File, OpenOptions};
use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

const SEG_MAGIC: u32 = u32::from_le_bytes(*b"STSH");
const SEG_LAYOUT_VERSION: u32 = 1;
const SEG_HEADER_BYTES: usize = 64;
const RING_HEADER_BYTES: usize = 128;
const SLOT_HEADER_BYTES: usize = 16;

// Segment-header field offsets.
const OFF_MAGIC: usize = 0;
const OFF_VERSION: usize = 4;
const OFF_SLOTS: usize = 8;
const OFF_SLOT_BYTES: usize = 12;
const OFF_READY: usize = 16;
const OFF_CLIENT_CLOSED: usize = 20;
const OFF_SERVER_CLOSED: usize = 24;

/// How long a blocked ring send waits for the consumer before giving up.
const SEND_TIMEOUT: Duration = Duration::from_secs(30);

/// Geometry of a shared-memory segment: two rings of `slots` fixed-size
/// slots each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmConfig {
    /// Slots per ring. Must be a power of two, ≥ 2.
    pub slots: usize,
    /// Usable payload bytes per slot (rounded up to a multiple of 8).
    pub slot_bytes: usize,
}

impl Default for ShmConfig {
    fn default() -> Self {
        // 64 × 16 KiB per direction ≈ 1 MiB each way: a full 720p frame
        // fragments into ~169 chunks, small control messages fit in one.
        ShmConfig {
            slots: 64,
            slot_bytes: 16 * 1024,
        }
    }
}

impl ShmConfig {
    fn validated(mut self) -> io::Result<Self> {
        if self.slots < 2 || !self.slots.is_power_of_two() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ShmConfig.slots must be a power of two >= 2",
            ));
        }
        if self.slot_bytes == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ShmConfig.slot_bytes must be non-zero",
            ));
        }
        self.slot_bytes = (self.slot_bytes + 7) & !7;
        Ok(self)
    }

    fn ring_bytes(&self) -> usize {
        RING_HEADER_BYTES + self.slots * (SLOT_HEADER_BYTES + self.slot_bytes)
    }

    fn segment_bytes(&self) -> usize {
        SEG_HEADER_BYTES + 2 * self.ring_bytes()
    }
}

/// Which side of the duplex pair this process plays. The client sends on
/// ring 0 and receives on ring 1; the server the reverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmSide {
    /// The stream client (typically the child process).
    Client,
    /// The serving pool (typically the creating parent process).
    Server,
}

// ---------------------------------------------------------------------------
// Raw memory mapping (x86_64 Linux syscalls; no libc in the workspace).
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::io;
    use std::os::unix::io::AsRawFd;

    const SYS_MMAP: isize = 9;
    const SYS_MUNMAP: isize = 11;
    const PROT_READ_WRITE: usize = 0x1 | 0x2;
    const MAP_SHARED: usize = 0x01;

    /// Map `len` bytes of `file` shared and read-write.
    pub fn map(file: &std::fs::File, len: usize) -> io::Result<*mut u8> {
        let fd = file.as_raw_fd() as isize;
        let ret: isize;
        // SAFETY: raw mmap syscall with a valid fd, zero offset, and no
        // requested address; the kernel validates everything else. rcx/r11
        // are clobbered by the syscall instruction itself.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MMAP => ret,
                in("rdi") 0usize,
                in("rsi") len,
                in("rdx") PROT_READ_WRITE,
                in("r10") MAP_SHARED,
                in("r8") fd,
                in("r9") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret as *mut u8)
        }
    }

    /// Unmap a mapping produced by [`map`].
    pub fn unmap(ptr: *mut u8, len: usize) {
        let ret: isize;
        // SAFETY: raw munmap of a mapping we own; failure is ignorable on
        // the drop path.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MUNMAP => ret,
                in("rdi") ptr,
                in("rsi") len,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack)
            );
        }
        let _ = ret;
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use std::io;

    pub fn map(_file: &std::fs::File, _len: usize) -> io::Result<*mut u8> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "shared-memory transport requires x86_64 Linux",
        ))
    }

    pub fn unmap(_ptr: *mut u8, _len: usize) {}
}

// ---------------------------------------------------------------------------
// The mapped segment.
// ---------------------------------------------------------------------------

/// A mapped shared-memory segment. Dropping the last owner-side handle
/// unlinks the backing file.
struct Segment {
    ptr: *mut u8,
    len: usize,
    config: ShmConfig,
    path: PathBuf,
    owner: bool,
    _file: File,
}

// SAFETY: all shared mutation inside the mapping goes through atomics (the
// ring headers and slot sequence words); slot payload bytes are published
// and retired under the slot's sequence protocol.
unsafe impl Send for Segment {}
// SAFETY: as above — the sequence protocol serializes all payload access.
unsafe impl Sync for Segment {}

impl Drop for Segment {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
        if self.owner {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl Segment {
    fn atomic_u32(&self, offset: usize) -> &AtomicU32 {
        debug_assert!(offset + 4 <= self.len && offset.is_multiple_of(4));
        // SAFETY: in-bounds, aligned, and the mapping outlives `self`.
        unsafe { &*(self.ptr.add(offset) as *const AtomicU32) }
    }

    fn atomic_u64(&self, offset: usize) -> &AtomicU64 {
        debug_assert!(offset + 8 <= self.len && offset.is_multiple_of(8));
        // SAFETY: in-bounds, aligned, and the mapping outlives `self`.
        unsafe { &*(self.ptr.add(offset) as *const AtomicU64) }
    }

    fn ring_base(&self, ring: usize) -> usize {
        SEG_HEADER_BYTES + ring * self.config.ring_bytes()
    }

    fn tail(&self, ring: usize) -> &AtomicU64 {
        self.atomic_u64(self.ring_base(ring))
    }

    fn head(&self, ring: usize) -> &AtomicU64 {
        self.atomic_u64(self.ring_base(ring) + 64)
    }

    fn slot_offset(&self, ring: usize, index: usize) -> usize {
        self.ring_base(ring)
            + RING_HEADER_BYTES
            + index * (SLOT_HEADER_BYTES + self.config.slot_bytes)
    }

    fn slot_seq(&self, ring: usize, index: usize) -> &AtomicU64 {
        self.atomic_u64(self.slot_offset(ring, index))
    }

    fn slot_len(&self, ring: usize, index: usize) -> &AtomicU32 {
        self.atomic_u32(self.slot_offset(ring, index) + 8)
    }

    /// Copy `chunk` into the slot's payload area.
    fn write_slot(&self, ring: usize, index: usize, chunk: &[u8]) {
        debug_assert!(chunk.len() <= self.config.slot_bytes);
        let offset = self.slot_offset(ring, index) + SLOT_HEADER_BYTES;
        // SAFETY: the producer holds the slot ticket (seq protocol), so no
        // other thread or process touches these bytes until published.
        unsafe {
            std::ptr::copy_nonoverlapping(chunk.as_ptr(), self.ptr.add(offset), chunk.len());
        }
        // ORDER: the length is payload, not a synchronization word — it is
        // published to the consumer by the release store of `seq`.
        self.slot_len(ring, index)
            .store(chunk.len() as u32, Ordering::Relaxed);
    }

    /// Append the slot's payload to `out`: one copy, mapping → `out`.
    fn read_slot(&self, ring: usize, index: usize, out: &mut Vec<u8>) {
        // ORDER: payload read under the slot ticket; visibility was
        // established by the acquire load of `seq` that accepted the slot.
        let len = self.slot_len(ring, index).load(Ordering::Relaxed) as usize;
        // The length word is the peer's: never read past the slot.
        let len = len.min(self.config.slot_bytes);
        let offset = self.slot_offset(ring, index) + SLOT_HEADER_BYTES;
        // SAFETY: inside this slot's payload area (`len` is clamped) of the
        // mapping, which outlives `self`; the consumer's slot ticket keeps
        // the producer off these bytes until the retiring `seq` store.
        let chunk = unsafe { std::slice::from_raw_parts(self.ptr.add(offset), len) };
        out.extend_from_slice(chunk);
    }

    fn closed_flag(&self, side: ShmSide) -> &AtomicU32 {
        match side {
            ShmSide::Client => self.atomic_u32(OFF_CLIENT_CLOSED),
            ShmSide::Server => self.atomic_u32(OFF_SERVER_CLOSED),
        }
    }
}

/// Bounded exponential backoff: spin, then yield, then sleep.
struct Backoff {
    step: u32,
}

impl Backoff {
    fn new() -> Self {
        Backoff { step: 0 }
    }

    fn wait(&mut self) {
        if self.step < 64 {
            for _ in 0..(1 << self.step.min(6)) {
                std::hint::spin_loop();
            }
        } else if self.step < 128 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
        self.step = self.step.saturating_add(1);
    }
}

/// Size of the reservation [`keep_freed_heap`] frees: several times the
/// ~2 MB frame of a paper-width full snapshot, within glibc's 32 MB cap on
/// the dynamic threshold.
const HEAP_KEEP_BYTES: usize = 16 << 20;

/// Keep the heap of a process that moves whole frames through a ring.
///
/// Both ends build each frame on the heap, and a full student snapshot is
/// ~2 MB at every stage of encode → frame → reassembly → decode, a few of
/// them alive at once. glibc gives a thread's arena back to the kernel
/// whenever its free top grows past twice the largest `mmap`ped block the
/// process has freed so far (the dynamic threshold of `mallopt(3)`): ~4 MB
/// here, which one message crosses, so every message faulted ~10 MB back in
/// — 4.3 M minor faults and a quarter of the CPU time of a 26 s run, at a
/// cost per fault that differs from run to run on a virtual machine.
/// Freeing one larger reservation moves that threshold to 2 × 16 MB, once
/// per process. The reservation is never touched, so it costs no resident
/// memory; an explicit `MALLOC_TRIM_THRESHOLD_` / `mallopt` setting switches
/// glibc's adjustment off and stays in force; any other allocator sees one
/// allocation and one free.
fn keep_freed_heap() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        drop(std::hint::black_box(Vec::<u8>::with_capacity(
            HEAP_KEEP_BYTES,
        )))
    });
}

// ---------------------------------------------------------------------------
// Ring producer / consumer.
// ---------------------------------------------------------------------------

/// One ring of a mapped segment, viewed through the [`RingMem`] storage
/// seam so the generic algorithm in [`crate::ring`] — the code the
/// model-check suite exercises — is also the code that runs here.
#[derive(Clone)]
struct SegRing {
    segment: Arc<Segment>,
    ring: usize,
}

impl RingMem for SegRing {
    fn slots(&self) -> usize {
        self.segment.config.slots
    }

    fn chunk_capacity(&self) -> usize {
        self.segment.config.slot_bytes
    }

    fn tail_load(&self, order: Ordering) -> u64 {
        self.segment.tail(self.ring).load(order)
    }

    fn tail_compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.segment
            .tail(self.ring)
            .compare_exchange_weak(current, new, success, failure)
    }

    fn head_load(&self, order: Ordering) -> u64 {
        self.segment.head(self.ring).load(order)
    }

    fn head_compare_exchange_weak(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        self.segment
            .head(self.ring)
            .compare_exchange_weak(current, new, success, failure)
    }

    fn seq_load(&self, index: usize, order: Ordering) -> u64 {
        self.segment.slot_seq(self.ring, index).load(order)
    }

    fn seq_store(&self, index: usize, value: u64, order: Ordering) {
        self.segment.slot_seq(self.ring, index).store(value, order)
    }

    fn payload_write(&self, index: usize, chunk: &[u8]) {
        self.segment.write_slot(self.ring, index, chunk)
    }

    fn payload_read(&self, index: usize, out: &mut Vec<u8>) {
        self.segment.read_slot(self.ring, index, out)
    }
}

/// Producer handle onto one ring of a segment. Cloneable: multiple
/// producers may push concurrently (the `transport_ops` bench's N-producer
/// mode), as long as every message fits in a single chunk.
#[derive(Clone)]
pub struct RingProducer {
    mem: SegRing,
}

/// Consumer handle onto one ring of a segment.
pub struct RingConsumer {
    mem: SegRing,
}

impl RingProducer {
    /// Usable payload bytes per chunk.
    pub fn chunk_capacity(&self) -> usize {
        self.mem.chunk_capacity()
    }

    /// Non-blocking push of one chunk (Vyukov enqueue). Returns
    /// [`PushOutcome::Full`] when no slot is free. Panics if `chunk`
    /// exceeds [`RingProducer::chunk_capacity`] — fragmentation is the
    /// caller's job ([`ShmTransport`] does it for whole messages).
    pub fn try_push(&self, chunk: &[u8]) -> PushOutcome {
        ring::try_push(&self.mem, chunk)
    }

    /// Push one chunk, spin-then-parking while the ring is full. Gives up
    /// with `false` after `timeout` or when the consuming side closed.
    pub fn push_timeout(&self, chunk: &[u8], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::new();
        loop {
            match self.try_push(chunk) {
                PushOutcome::Pushed => return true,
                PushOutcome::Full => {
                    if Instant::now() >= deadline {
                        return false;
                    }
                    backoff.wait();
                }
            }
        }
    }
}

impl RingConsumer {
    /// Whether a chunk is ready to pop (used by the readiness notifier).
    pub fn ready(&self) -> bool {
        ring::ready(&self.mem)
    }

    /// Non-blocking pop of one chunk into `out` (appended). Returns whether
    /// a chunk was consumed.
    pub fn try_pop(&self, out: &mut Vec<u8>) -> bool {
        ring::try_pop(&self.mem, out)
    }
}

// ---------------------------------------------------------------------------
// Segment creation / attachment.
// ---------------------------------------------------------------------------

fn map_segment(path: &Path, config: ShmConfig, owner: bool, file: File) -> io::Result<Segment> {
    let len = config.segment_bytes();
    let ptr = sys::map(&file, len)?;
    Ok(Segment {
        ptr,
        len,
        config,
        path: path.to_path_buf(),
        owner,
        _file: file,
    })
}

fn create_segment(path: &Path, config: ShmConfig) -> io::Result<Arc<Segment>> {
    let config = config.validated()?;
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    file.set_len(config.segment_bytes() as u64)?;
    let segment = map_segment(path, config, true, file)?;
    // Initialise slot sequence words to their indices (Vyukov invariant)
    // for both rings; heads and tails start at zero from the file zeroing.
    // ORDER: all initialisation stores below are Relaxed — nothing reads
    // them until the release store of the ready flag publishes the whole
    // segment, and peers acquire-load that flag before trusting anything.
    for ring in 0..2 {
        for index in 0..config.slots {
            // ORDER: published by the ready-flag release store below.
            segment
                .slot_seq(ring, index)
                .store(index as u64, Ordering::Relaxed);
        }
    }
    // ORDER: published by the ready-flag release store below.
    segment
        .atomic_u32(OFF_SLOTS)
        .store(config.slots as u32, Ordering::Relaxed);
    // ORDER: published by the ready-flag release store below.
    segment
        .atomic_u32(OFF_SLOT_BYTES)
        .store(config.slot_bytes as u32, Ordering::Relaxed);
    // ORDER: published by the ready-flag release store below.
    segment
        .atomic_u32(OFF_VERSION)
        .store(SEG_LAYOUT_VERSION, Ordering::Relaxed);
    // ORDER: published by the ready-flag release store below.
    segment
        .atomic_u32(OFF_MAGIC)
        .store(SEG_MAGIC, Ordering::Relaxed);
    // Publish: peers spin on the ready flag before trusting the geometry.
    segment.atomic_u32(OFF_READY).store(1, Ordering::Release);
    Ok(Arc::new(segment))
}

fn open_segment(path: &Path, timeout: Duration) -> io::Result<Arc<Segment>> {
    let deadline = Instant::now() + timeout;
    loop {
        match try_open_segment(path) {
            Ok(Some(segment)) => return Ok(segment),
            Ok(None) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!(
                    "shared-memory segment {} never became ready",
                    path.display()
                ),
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn try_open_segment(path: &Path) -> io::Result<Option<Arc<Segment>>> {
    let file = OpenOptions::new().read(true).write(true).open(path)?;
    if (file.metadata()?.len() as usize) < SEG_HEADER_BYTES {
        return Ok(None);
    }
    // Map just the header first to learn the geometry.
    let probe = sys::map(&file, SEG_HEADER_BYTES)?;
    // SAFETY: probe maps at least SEG_HEADER_BYTES, offsets are in-bounds
    // and 4-aligned, and the mapping lives until the unmap below.
    let header_u32 = |offset: usize| unsafe { &*(probe.add(offset) as *const AtomicU32) };
    let ready = header_u32(OFF_READY).load(Ordering::Acquire);
    // ORDER: the geometry words were written before the creator's release
    // store of the ready flag; the acquire load above synchronises them.
    let magic = header_u32(OFF_MAGIC).load(Ordering::Relaxed);
    // ORDER: see the ready-flag acquire above.
    let version = header_u32(OFF_VERSION).load(Ordering::Relaxed);
    // ORDER: see the ready-flag acquire above.
    let slots = header_u32(OFF_SLOTS).load(Ordering::Relaxed) as usize;
    // ORDER: see the ready-flag acquire above.
    let slot_bytes = header_u32(OFF_SLOT_BYTES).load(Ordering::Relaxed) as usize;
    sys::unmap(probe, SEG_HEADER_BYTES);
    if ready != 1 {
        return Ok(None);
    }
    if magic != SEG_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a ShadowTutor shared-memory segment (bad magic)",
        ));
    }
    if version != SEG_LAYOUT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported segment layout version {version}"),
        ));
    }
    let config = ShmConfig { slots, slot_bytes }.validated()?;
    if (file.metadata()?.len() as usize) < config.segment_bytes() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "shared-memory segment shorter than its declared geometry",
        ));
    }
    Ok(Some(Arc::new(map_segment(path, config, false, file)?)))
}

/// Create a standalone single-ring channel for benchmarking: `(producer,
/// consumer)` handles onto ring 0 of a fresh segment at `path`. Clone the
/// producer for N-producer experiments.
pub fn ring_channel(path: &Path, config: ShmConfig) -> io::Result<(RingProducer, RingConsumer)> {
    let segment = create_segment(path, config)?;
    Ok((
        RingProducer {
            mem: SegRing {
                segment: Arc::clone(&segment),
                ring: 0,
            },
        },
        RingConsumer {
            mem: SegRing { segment, ring: 0 },
        },
    ))
}

// ---------------------------------------------------------------------------
// The duplex transport.
// ---------------------------------------------------------------------------

/// A duplex [`Transport`] over a shared-memory segment: the cross-process
/// backend. `S`/`R` are the sent/received message types; every message
/// crosses as its framed binary encoding ([`crate::wire`]), fragmented into
/// ring chunks and reassembled on the far side.
///
/// Typical shapes:
/// `ShmTransport<ClientToServer, ServerToClient>` in the client process
/// (wrap it with [`connect()`](crate::transport::connect)) and
/// `ShmTransport<ServerToClient, ClientToServer>` in the pool process.
pub struct ShmTransport<S, R> {
    producer: RingProducer,
    consumer: RingConsumer,
    side: ShmSide,
    /// Reassembly state: accumulated bytes of the in-flight inbound frame.
    /// Chunks are popped straight into it once `expected` is known.
    partial: Vec<u8>,
    /// Total frame length being reassembled (parsed from the stream's
    /// 4-byte length prefix), if mid-message.
    expected: Option<usize>,
    /// Stream bytes not yet assigned to a frame: the chunk that carries a
    /// length prefix lands here (and whatever follows a frame's last byte
    /// in its chunk). Empty whenever a frame is mid-assembly.
    stream: Vec<u8>,
    wire_sent_bytes: usize,
    wire_received_bytes: usize,
    notifier_stop: Option<Arc<AtomicBool>>,
    notifier: Option<std::thread::JoinHandle<()>>,
    _marker: PhantomData<fn(S) -> R>,
}

impl<S: Wire, R: Wire> ShmTransport<S, R> {
    /// Create the segment file at `path` and attach as `side`. The peer
    /// process attaches with [`ShmTransport::open`].
    pub fn create(path: &Path, side: ShmSide, config: ShmConfig) -> io::Result<Self> {
        Ok(Self::attach(create_segment(path, config)?, side))
    }

    /// Attach to a segment created by the peer, waiting up to `timeout` for
    /// the file to appear and its ready flag to be published.
    pub fn open(path: &Path, side: ShmSide, timeout: Duration) -> io::Result<Self> {
        Ok(Self::attach(open_segment(path, timeout)?, side))
    }

    fn attach(segment: Arc<Segment>, side: ShmSide) -> Self {
        keep_freed_heap();
        // Ring 0 carries client → server, ring 1 server → client.
        let (send_ring, recv_ring) = match side {
            ShmSide::Client => (0, 1),
            ShmSide::Server => (1, 0),
        };
        ShmTransport {
            producer: RingProducer {
                mem: SegRing {
                    segment: Arc::clone(&segment),
                    ring: send_ring,
                },
            },
            consumer: RingConsumer {
                mem: SegRing {
                    segment,
                    ring: recv_ring,
                },
            },
            side,
            partial: Vec::new(),
            expected: None,
            stream: Vec::new(),
            wire_sent_bytes: 0,
            wire_received_bytes: 0,
            notifier_stop: None,
            notifier: None,
            _marker: PhantomData,
        }
    }

    fn peer_side(&self) -> ShmSide {
        match self.side {
            ShmSide::Client => ShmSide::Server,
            ShmSide::Server => ShmSide::Client,
        }
    }

    fn peer_closed(&self) -> bool {
        self.producer
            .mem
            .segment
            .closed_flag(self.peer_side())
            .load(Ordering::Acquire)
            != 0
    }

    /// Measured bytes sent: framed encodings (plus the 4-byte stream length
    /// prefix each) that physically entered the ring.
    pub fn wire_sent_bytes(&self) -> usize {
        self.wire_sent_bytes
    }

    /// Measured bytes received off the ring.
    pub fn wire_received_bytes(&self) -> usize {
        self.wire_received_bytes
    }

    /// Drain ring chunks into the reassembly buffer and, if a whole frame
    /// has landed, decode it — from the buffer it was assembled in, which
    /// the message's payload goes on sharing.
    fn pump_inbound(&mut self) -> Result<Option<R>, TransportError> {
        loop {
            let Some(expected) = self.expected else {
                // Between frames: chunks land in `stream` until the 4-byte
                // prefix is there, then what follows it starts the frame.
                if self.stream.len() < 4 {
                    if !self.consumer.try_pop(&mut self.stream) {
                        return Ok(None);
                    }
                    continue;
                }
                let len = u32::from_le_bytes([
                    self.stream[0],
                    self.stream[1],
                    self.stream[2],
                    self.stream[3],
                ]) as usize;
                self.expected = Some(len);
                let end = 4 + len.min(self.stream.len() - 4);
                self.partial.extend_from_slice(&self.stream[4..end]);
                self.stream.drain(..end);
                continue;
            };
            if self.partial.len() < expected {
                // The prefix is the peer's word, the ring's size is not:
                // reserve only as far ahead as chunks can actually arrive.
                let ahead = (expected - self.partial.len()).min(self.ring_bytes());
                self.partial.reserve(ahead);
                if !self.consumer.try_pop(&mut self.partial) {
                    return Ok(None);
                }
                continue;
            }
            // Whatever a chunk carried past the frame's end is the next
            // frame's (`send` never packs two messages into one chunk).
            self.stream.extend_from_slice(&self.partial[expected..]);
            self.partial.truncate(expected);
            let frame = Bytes::from(std::mem::take(&mut self.partial));
            self.expected = None;
            self.wire_received_bytes += 4 + frame.len();
            let message =
                wire::decode_frame_owned::<R>(&frame).map_err(|_| TransportError::Disconnected)?;
            return Ok(Some(message));
        }
    }

    /// Payload bytes one direction of the segment holds when full — the
    /// most that can be in flight towards this side at any moment.
    fn ring_bytes(&self) -> usize {
        self.consumer.mem.slots() * self.consumer.mem.chunk_capacity()
    }
}

/// Cuts a byte stream handed over in pieces into slot-sized chunks and
/// pushes them: whole slots go to the ring straight from the piece they lie
/// in, only a chunk that spans two pieces (or the stream's tail) is staged.
struct Chunker<'a> {
    producer: &'a RingProducer,
    staged: Vec<u8>,
}

impl Chunker<'_> {
    /// Feed the next piece of the stream; `false` when the ring refused a
    /// chunk for [`SEND_TIMEOUT`].
    fn feed(&mut self, mut piece: &[u8]) -> bool {
        let capacity = self.producer.chunk_capacity();
        if !self.staged.is_empty() {
            let (top_up, rest) = piece.split_at(piece.len().min(capacity - self.staged.len()));
            self.staged.extend_from_slice(top_up);
            piece = rest;
            if self.staged.len() < capacity {
                return true;
            }
            if !self.producer.push_timeout(&self.staged, SEND_TIMEOUT) {
                return false;
            }
            self.staged.clear();
        }
        let mut slots = piece.chunks_exact(capacity);
        for slot in slots.by_ref() {
            if !self.producer.push_timeout(slot, SEND_TIMEOUT) {
                return false;
            }
        }
        self.staged.extend_from_slice(slots.remainder());
        true
    }

    /// Push the staged tail, if any.
    fn finish(self) -> bool {
        self.staged.is_empty() || self.producer.push_timeout(&self.staged, SEND_TIMEOUT)
    }
}

impl<S: Wire, R: Wire> Transport<S, R> for ShmTransport<S, R> {
    fn send(&mut self, message: S, _bytes: usize) -> Result<(), TransportError> {
        if self.peer_closed() {
            return Err(TransportError::Disconnected);
        }
        // Stream format: 4-byte LE frame length, then the frame, chunked to
        // slot capacity. One producer per ring keeps the chunks in order.
        // The frame itself is never built: `head` holds the prefix, the
        // frame header and the message's fields; each byte payload stays
        // where it is and goes into the ring's slots from there.
        let frame_len = wire::frame_len(&message);
        let mut head = Vec::with_capacity(64);
        head.extend_from_slice(&(frame_len as u32).to_le_bytes());
        let mut blobs = Vec::new();
        wire::encode_frame_gather(&message, &mut head, Some(&mut blobs));
        debug_assert_eq!(
            head.len() + blobs.iter().map(|(_, blob)| blob.len()).sum::<usize>(),
            4 + frame_len
        );
        let mut chunker = Chunker {
            producer: &self.producer,
            staged: Vec::new(),
        };
        let mut pushed = true;
        let mut sent = 0;
        for (at, blob) in &blobs {
            pushed = pushed && chunker.feed(&head[sent..*at]) && chunker.feed(blob);
            sent = *at;
        }
        if !(pushed && chunker.feed(&head[sent..]) && chunker.finish()) {
            return Err(if self.peer_closed() {
                TransportError::Disconnected
            } else {
                TransportError::Timeout
            });
        }
        self.wire_sent_bytes += 4 + frame_len;
        Ok(())
    }

    fn try_recv(&mut self) -> Result<Option<R>, TransportError> {
        if let Some(message) = self.pump_inbound()? {
            return Ok(Some(message));
        }
        if self.peer_closed() {
            // Drain once more: the peer may have closed after its last send.
            if let Some(message) = self.pump_inbound()? {
                return Ok(Some(message));
            }
            return Err(TransportError::Disconnected);
        }
        Ok(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<R, TransportError> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::new();
        loop {
            match self.try_recv()? {
                Some(message) => return Ok(message),
                None => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Timeout);
                    }
                    backoff.wait();
                }
            }
        }
    }

    fn wake_on_message(&mut self, waker: crate::poll::Waker) -> bool {
        let stop = Arc::new(AtomicBool::new(false));
        let consumer = RingConsumer {
            mem: self.consumer.mem.clone(),
        };
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("shm-ready-notifier".into())
            .spawn(move || {
                // Spin-then-park on ring readiness; wakes are edge-ish and
                // coalesced by the Poller, so waking repeatedly while the
                // consumer catches up costs one dispatch.
                let mut backoff = Backoff::new();
                // ORDER: pure stop signal; the joining thread needs no data
                // published by this loop, only its eventual exit.
                while !stop_flag.load(Ordering::Relaxed) {
                    if consumer.ready() {
                        waker.wake();
                        backoff = Backoff::new();
                        std::thread::sleep(Duration::from_micros(200));
                    } else {
                        backoff.wait();
                    }
                }
            });
        match handle {
            Ok(handle) => {
                if let Some(old_stop) = self.notifier_stop.replace(stop) {
                    // ORDER: stop signal only; the join below synchronises.
                    old_stop.store(true, Ordering::Relaxed);
                }
                if let Some(old) = self.notifier.replace(handle) {
                    let _ = old.join();
                }
                true
            }
            Err(_) => false,
        }
    }
}

impl<S, R> Drop for ShmTransport<S, R> {
    fn drop(&mut self) {
        self.producer
            .mem
            .segment
            .closed_flag(self.side)
            .store(1, Ordering::Release);
        if let Some(stop) = self.notifier_stop.take() {
            // ORDER: stop signal only; the join below synchronises.
            stop.store(true, Ordering::Relaxed);
        }
        if let Some(handle) = self.notifier.take() {
            let _ = handle.join();
        }
    }
}

impl<S, R> fmt::Debug for ShmTransport<S, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShmTransport")
            .field("side", &self.side)
            .field("wire_sent_bytes", &self.wire_sent_bytes)
            .field("wire_received_bytes", &self.wire_received_bytes)
            .finish()
    }
}

use std::fmt;

/// A process-unique path for a fresh segment file, preferring `/dev/shm`
/// (a real tmpfs) and falling back to the system temp directory.
pub fn default_segment_path(tag: &str) -> PathBuf {
    let dir = if Path::new("/dev/shm").is_dir() {
        PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    dir.join(format!("st-shm-{}-{}", std::process::id(), tag))
}

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::message::{ClientToServer, Payload, ServerToClient};
    use bytes::Bytes;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "st-shm-test-{}-{}-{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-"),
            tag
        ))
    }

    #[test]
    fn ring_pushes_and_pops_in_order() {
        let path = temp_path("order");
        let (producer, consumer) = ring_channel(
            &path,
            ShmConfig {
                slots: 8,
                slot_bytes: 64,
            },
        )
        .unwrap();
        for i in 0..5u8 {
            assert_eq!(producer.try_push(&[i; 3]), PushOutcome::Pushed);
        }
        let mut out = Vec::new();
        for i in 0..5u8 {
            out.clear();
            assert!(consumer.try_pop(&mut out));
            assert_eq!(out, vec![i; 3]);
        }
        assert!(!consumer.try_pop(&mut out));
    }

    #[test]
    fn full_ring_reports_full_then_recovers() {
        let path = temp_path("full");
        let (producer, consumer) = ring_channel(
            &path,
            ShmConfig {
                slots: 2,
                slot_bytes: 16,
            },
        )
        .unwrap();
        assert_eq!(producer.try_push(b"a"), PushOutcome::Pushed);
        assert_eq!(producer.try_push(b"b"), PushOutcome::Pushed);
        assert_eq!(producer.try_push(b"c"), PushOutcome::Full);
        let mut out = Vec::new();
        assert!(consumer.try_pop(&mut out));
        assert_eq!(producer.try_push(b"c"), PushOutcome::Pushed);
    }

    #[test]
    fn n_producers_one_consumer_delivers_everything() {
        let path = temp_path("nproducer");
        let (producer, consumer) = ring_channel(
            &path,
            ShmConfig {
                slots: 64,
                slot_bytes: 16,
            },
        )
        .unwrap();
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 500;
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let producer = producer.clone();
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let value = (p * PER_PRODUCER + i) as u32;
                        assert!(
                            producer.push_timeout(&value.to_le_bytes(), Duration::from_secs(10))
                        );
                    }
                });
            }
            let mut seen = vec![false; PRODUCERS * PER_PRODUCER];
            let mut got = 0;
            let mut buf = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(10);
            while got < PRODUCERS * PER_PRODUCER {
                buf.clear();
                if consumer.try_pop(&mut buf) {
                    let value = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                    assert!(!seen[value], "duplicate {value}");
                    seen[value] = true;
                    got += 1;
                } else {
                    assert!(Instant::now() < deadline, "stalled at {got}");
                    std::hint::spin_loop();
                }
            }
        });
    }

    #[test]
    fn duplex_transport_round_trips_messages_and_counts_bytes() {
        let path = temp_path("duplex");
        let mut server = ShmTransport::<ServerToClient, ClientToServer>::create(
            &path,
            ShmSide::Server,
            ShmConfig {
                slots: 16,
                slot_bytes: 128,
            },
        )
        .unwrap();
        let mut client = ShmTransport::<ClientToServer, ServerToClient>::open(
            &path,
            ShmSide::Client,
            Duration::from_secs(5),
        )
        .unwrap();

        let up = ClientToServer::KeyFrame {
            frame_index: 42,
            // Larger than one 128-byte slot: exercises fragmentation.
            payload: Payload::with_data(Bytes::from(vec![7u8; 1000])),
        };
        client.send(up.clone(), 1000).unwrap();
        let got = server.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, up);
        assert_eq!(
            client.wire_sent_bytes(),
            4 + crate::wire::frame_len(&up),
            "sent bytes are the framed encoding plus the stream prefix"
        );
        assert_eq!(server.wire_received_bytes(), client.wire_sent_bytes());

        let down = ServerToClient::Throttle { frame_index: 42 };
        server.send(down.clone(), 8).unwrap();
        assert_eq!(client.recv_timeout(Duration::from_secs(5)).unwrap(), down);
        assert_eq!(client.try_recv().unwrap(), None);
    }

    type ServerEnd = ShmTransport<ServerToClient, ClientToServer>;
    type ClientEnd = ShmTransport<ClientToServer, ServerToClient>;

    fn pair(tag: &str, config: ShmConfig) -> (ServerEnd, ClientEnd) {
        let path = temp_path(tag);
        let server = ServerEnd::create(&path, ShmSide::Server, config).unwrap();
        let client = ClientEnd::open(&path, ShmSide::Client, Duration::from_secs(5)).unwrap();
        (server, client)
    }

    fn update(frame_index: usize, payload: Vec<u8>) -> ServerToClient {
        ServerToClient::StudentUpdate {
            frame_index,
            metric: 0.25,
            distill_steps: 1,
            payload: Payload::with_data(Bytes::from(payload)),
        }
    }

    #[test]
    fn payloads_of_every_size_around_a_slot_boundary_cross_intact() {
        let config = ShmConfig {
            slots: 4,
            slot_bytes: 64,
        };
        let (mut server, mut client) = pair("sizes", config);
        // Head of a `StudentUpdate`: 4 (prefix) + 9 (frame) + 38 (fields).
        for len in (0..=3 * 64 + 2).chain([1000]) {
            let message = update(len, (0..len).map(|i| (i * 7 + len) as u8).collect());
            std::thread::scope(|scope| {
                // The ring is smaller than the larger frames: send and
                // receive must overlap.
                scope.spawn(|| server.send(message.clone(), 0).unwrap());
                let got = client.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(got, message, "payload of {len} bytes");
            });
            assert_eq!(server.wire_sent_bytes(), client.wire_received_bytes());
            assert!(client.partial.is_empty() && client.stream.is_empty());
        }
    }

    #[test]
    fn a_stream_chunked_by_someone_else_still_reassembles() {
        // `send` starts every message on a fresh chunk; the receiver does
        // not rely on it. Three frames laid end to end and cut into 7-byte
        // chunks: prefixes split across chunks, chunks spanning two frames.
        let (server, mut client) = pair(
            "foreign",
            ShmConfig {
                slots: 64,
                slot_bytes: 8,
            },
        );
        let messages = [
            update(1, vec![9u8; 30]),
            ServerToClient::Throttle { frame_index: 2 },
            update(3, Vec::new()),
        ];
        let mut stream = Vec::new();
        for message in &messages {
            let frame = wire::encode_frame(message);
            stream.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            stream.extend_from_slice(&frame);
        }
        for chunk in stream.chunks(7) {
            assert_eq!(server.producer.try_push(chunk), PushOutcome::Pushed);
        }
        for message in &messages {
            assert_eq!(client.try_recv().unwrap().as_ref(), Some(message));
        }
        assert_eq!(client.try_recv().unwrap(), None);
        assert_eq!(client.wire_received_bytes(), stream.len());
    }

    #[test]
    fn a_lying_length_prefix_reserves_no_more_than_the_ring_can_deliver() {
        let config = ShmConfig {
            slots: 4,
            slot_bytes: 64,
        };
        let ring_bytes = config.slots * config.slot_bytes;
        let (server, mut client) = pair("lying", config);
        // A peer that claims a 4 GiB frame and then trickles a few laps of
        // the ring: memory follows what arrived, not what was claimed.
        let mut first = u32::MAX.to_le_bytes().to_vec();
        first.extend_from_slice(&[0x5A; 60]);
        assert_eq!(server.producer.try_push(&first), PushOutcome::Pushed);
        assert_eq!(client.try_recv(), Ok(None));
        assert!(client.partial.capacity() <= 2 * ring_bytes);
        let mut arrived = 60;
        for _ in 0..3 * config.slots {
            assert_eq!(server.producer.try_push(&[0x5A; 64]), PushOutcome::Pushed);
            assert_eq!(client.try_recv(), Ok(None));
            arrived += 64;
            assert_eq!(client.partial.len(), arrived);
            assert!(
                client.partial.capacity() <= 2 * (arrived + ring_bytes),
                "{} bytes reserved after {arrived} arrived",
                client.partial.capacity()
            );
        }
        // The frame never completes; the peer going away is a typed end.
        drop(server);
        assert_eq!(client.try_recv(), Err(TransportError::Disconnected));
    }

    /// Minor page faults the calling thread has taken so far (field 10 of
    /// `/proc/thread-self/stat`), where there is such a file.
    fn minor_faults() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
        let after_name = stat.rsplit_once(')')?.1;
        after_name.split_whitespace().nth(7)?.parse().ok()
    }

    #[test]
    fn an_attached_process_keeps_its_message_buffers_mapped() {
        // The threshold `keep_freed_heap` moves is glibc's.
        if !cfg!(target_env = "gnu") || minor_faults().is_none() {
            return;
        }
        let path = temp_path("heap");
        let _server = ShmTransport::<ServerToClient, ClientToServer>::create(
            &path,
            ShmSide::Server,
            ShmConfig::default(),
        )
        .unwrap();
        // One full-snapshot message as either end sees it: three 2 MB
        // buffers alive at once, all written, all freed.
        let cycle = || {
            let buffers: Vec<Vec<u8>> = (0..3).map(|_| vec![1u8; 2 << 20]).collect();
            std::hint::black_box(&buffers);
        };
        for _ in 0..4 {
            cycle(); // maps the arena
        }
        let before = minor_faults().unwrap();
        for _ in 0..32 {
            cycle();
        }
        let faults = minor_faults().unwrap() - before;
        // A heap trimmed after every message takes 32 × 1536 of them.
        assert!(faults < 1536, "{faults} page faults over 32 messages");
    }

    #[test]
    fn dropping_one_side_disconnects_the_peer() {
        let path = temp_path("close");
        let server = ShmTransport::<ServerToClient, ClientToServer>::create(
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
        drop(server);
        assert_eq!(
            client.send(ClientToServer::Register, 64),
            Err(TransportError::Disconnected)
        );
        assert_eq!(client.try_recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn queued_messages_survive_peer_close() {
        let path = temp_path("drain");
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
        client.send(ClientToServer::Shutdown, 64).unwrap();
        drop(client);
        // The chunk is still in the ring: the server drains it before
        // reporting the disconnect.
        assert_eq!(
            server.recv_timeout(Duration::from_secs(1)).unwrap(),
            ClientToServer::Shutdown
        );
        assert_eq!(server.try_recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn wake_on_message_fires_the_poller_token() {
        let path = temp_path("waker");
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
        let poller = crate::poll::Poller::new();
        assert!(client.wake_on_message(poller.waker(9)));
        assert!(poller.poll(Duration::from_millis(5)).is_empty());
        server
            .send(ServerToClient::NeedFrame { frame_index: 3 }, 8)
            .unwrap();
        let ready = poller.poll(Duration::from_secs(5));
        assert_eq!(ready.tokens(), &[9]);
        assert_eq!(
            client.try_recv().unwrap(),
            Some(ServerToClient::NeedFrame { frame_index: 3 })
        );
    }

    #[test]
    fn open_rejects_corrupt_segments() {
        let path = temp_path("corrupt");
        std::fs::write(&path, vec![0xABu8; 4096]).unwrap();
        let err = ShmTransport::<ClientToServer, ServerToClient>::open(
            &path,
            ShmSide::Client,
            Duration::from_millis(50),
        )
        .unwrap_err();
        // A garbage ready flag reads as "never ready" or bad magic — either
        // way the open fails instead of trusting the bytes.
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::InvalidData | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn segment_file_is_unlinked_by_the_owner() {
        let path = temp_path("unlink");
        let server = ShmTransport::<ServerToClient, ClientToServer>::create(
            &path,
            ShmSide::Server,
            ShmConfig::default(),
        )
        .unwrap();
        assert!(path.exists());
        drop(server);
        assert!(!path.exists());
    }
}
