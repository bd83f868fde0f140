//! Parallel work over one process-wide set of parked lanes: the GEMM's
//! chunked parallel-for and the server pool's distill crew.
//!
//! The ShadowTutor client device in the paper (Jetson Nano) has a quad-core
//! CPU; the server has eight cores. Both use them through [`Lanes`] —
//! threads parked behind one offer queue, started on first use and kept
//! for the life of the process — without pulling in a full task scheduler.
//!
//! # The protocol
//!
//! Every piece of parallel work is a **batch**: items in slots behind a
//! **claim cursor**. Its owner claims the first item, offers the batch to
//! up to a given number of lanes, and from then on owner and lanes do the
//! same thing: claim the next index, take that slot's item — an item
//! *moves* to whoever claimed it — run it, claim again. A lane posts what
//! its item produces to the batch's **completion queue**: every progress
//! value the moment it exists, then the item's return value, and after
//! each post calls the batch's notify hook, if it has one. The owner hands
//! its own items' output straight to its sink and drains the completion
//! queue between its items. Once the cursor is exhausted it holds an
//! [`OpenBatch`] for the items lanes still run: it may block on the queue
//! until every one has returned (the barrier [`Crew::run_batch`] and
//! [`par_ranges`] keep), or leave the batch open, go on with other work and
//! drain it later — when the notify hook says a lane has posted. It never
//! waits for a lane to turn up, so an offer no lane is free to take costs a
//! queue entry, and an offer a lane pops after its batch is done claims
//! nothing.
//!
//! * [`par_ranges`] is a batch of index ranges: the caller runs the first,
//!   idle lanes the others, and the caller whatever no lane has claimed.
//! * A [`Crew`] is a batch of per-stream distillations: the server pool's
//!   reactor worker owns it, up to `helper_count` lanes help. The worker
//!   leaves a batch open once it has no item left to claim; the lanes'
//!   items come home in a later pass of its shard, which the notify hook
//!   wakes.
//!
//! So a kernel inside a crew item splits onto whichever lanes are idle and
//! runs the rest on the item's own thread: work nested inside other work
//! never runs on more threads than lanes plus owners. The kernels' results
//! do not depend on the split, so this moves time only.
//!
//! Everything here is written against the `st_check::sync` facade, so
//! `crates/core/tests/model_crew.rs` drives this exact code under the model
//! checker: each item is claimed exactly once, each claimed item returns
//! exactly once, no blocking drain returns with an item outstanding, and a
//! lane's every return is followed by a notify, so an owner that left a
//! batch open and waits to be told misses none. The cursor
//! is the only atomic; [`ClaimCursor`] is the seam a mutant goes through.

use st_check::sync::{thread, AtomicUsize, Condvar, Mutex, MutexGuard, Ordering};
use std::collections::VecDeque;
use std::convert::Infallible;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock, PoisonError};

static THREAD_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
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

/// Number of threads a [`par_ranges`] call splits over: the caller plus up
/// to `threads() − 1` lanes.
///
/// Resolution order: [`set_threads`] override (useful in code that models a
/// specific device), then the `ST_THREADS` environment variable (useful to
/// pin a whole benchmark run, e.g. `ST_THREADS=1` for single-core numbers),
/// then [`std::thread::available_parallelism`].
pub fn threads() -> usize {
    // ORDER: Relaxed — an isolated tuning knob; no other memory is published
    // through it, and a momentarily stale read only changes a split factor.
    let over = THREAD_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    default_threads()
}

/// Pin the number of worker threads (0 restores the automatic default).
pub fn set_threads(n: usize) {
    // ORDER: Relaxed — see `threads()`: a tuning knob, not a publication.
    THREAD_OVERRIDE.store(n, std::sync::atomic::Ordering::Relaxed);
}

/// Lock a facade mutex, recovering the data if a thread panicked while
/// holding it: every critical section here is a single push, pop or take.
fn locked<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A set of parked threads behind one offer queue.
///
/// Production uses one process-wide instance, [`Lanes::global`], which
/// grows to the largest width asked of it and never shrinks. Tests and the
/// model checker build private instances and [close](Lanes::close) them.
pub struct Lanes {
    state: Mutex<LaneState>,
    offered: Condvar,
}

struct LaneState {
    offers: VecDeque<Arc<dyn Job>>,
    threads: Vec<thread::JoinHandle<()>>,
    closed: bool,
}

/// What a lane does with an offer: claim and run items until none is left.
trait Job: Send + Sync {
    fn serve(&self);
}

impl Lanes {
    /// An empty lane set: no threads until [`Lanes::ensure`] asks for some.
    pub fn new() -> Arc<Lanes> {
        Arc::new(Lanes {
            state: Mutex::new(LaneState {
                offers: VecDeque::new(),
                threads: Vec::new(),
                closed: false,
            }),
            offered: Condvar::new(),
        })
    }

    /// The process-wide lane set behind [`par_ranges`] and the server
    /// pool's distill crew.
    pub fn global() -> &'static Arc<Lanes> {
        static GLOBAL: OnceLock<Arc<Lanes>> = OnceLock::new();
        GLOBAL.get_or_init(Lanes::new)
    }

    /// Lanes started so far.
    pub fn width(&self) -> usize {
        locked(&self.state).threads.len()
    }

    /// Start lanes until there are at least `width` (none once closed).
    pub fn ensure(self: &Arc<Self>, width: usize) {
        let mut state = locked(&self.state);
        while state.threads.len() < width && !state.closed {
            let lanes = Arc::clone(self);
            state.threads.push(thread::spawn(move || lanes.run_lane()));
        }
    }

    /// Queue `copies` offers of `job`, one per lane that should take it up
    /// (none once closed: the owner claims every item itself).
    fn offer(&self, job: Arc<dyn Job>, copies: usize) {
        {
            let mut state = locked(&self.state);
            if state.closed {
                return;
            }
            for _ in 0..copies {
                state.offers.push_back(Arc::clone(&job));
            }
        }
        for _ in 0..copies {
            self.offered.notify_one();
        }
    }

    /// A lane's whole life: park until an offer is queued, serve it, park
    /// again. Returns once the set is closed and no offer is left.
    fn run_lane(&self) {
        let mut state = locked(&self.state);
        loop {
            if let Some(job) = state.offers.pop_front() {
                drop(state);
                job.serve();
                drop(job);
                state = locked(&self.state);
            } else if state.closed {
                return;
            } else {
                state = self
                    .offered
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Dismiss the lanes and join them: each serves what is still queued
    /// (stale offers run nothing) and exits. For private instances; the
    /// global one lives as long as the process.
    pub fn close(&self) {
        let threads = {
            let mut state = locked(&self.state);
            state.closed = true;
            std::mem::take(&mut state.threads)
        };
        self.offered.notify_all();
        for lane in threads {
            if let Err(payload) = lane.join() {
                resume_unwind(payload);
            }
        }
    }

    /// Run `body(0)`, …, `body(count − 1)`, each exactly once: `body(0)` on
    /// the calling thread, the rest on whichever of up to `count − 1` lanes
    /// take up the offer, and whatever no lane has claimed on the calling
    /// thread again. Returns once every range has finished. A range that
    /// panics — here or on a lane — is caught where it ran, and the first
    /// payload is resumed here after the last range is done.
    pub fn run_ranges(&self, count: usize, body: &(dyn Fn(usize) + Sync)) {
        // The invariant: `body` runs only on an index a successful claim
        // returned, and the batch's `finish` — the owner's share, then a
        // blocking drain — returns only once every claimed index has posted
        // its completion (it cannot unwind first: neither the work nor the
        // sink below can panic). An offer a lane pops after
        // that finds the cursor exhausted: it touches the cursor and nothing
        // else.
        // SAFETY: by the invariant no lane calls `body` after this call
        // returns, so its lifetime may be erased to hand it to the lanes.
        let body = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let mut panic = None;
        OpenBatch::<usize, Infallible, _, _, AtomicUsize>::start(
            self,
            count.saturating_sub(1),
            (0..count).collect(),
            move |index, _, _| catch_unwind(AssertUnwindSafe(|| body(index))),
            None,
        )
        .finish(|event, _| {
            if let Event::Returned(Err(payload)) = event {
                panic.get_or_insert(payload);
            }
        });
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

/// Which side of a batch ran an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ran {
    /// The batch's owner, between draining completions.
    Owner,
    /// A lane that took up the batch's offer.
    Helper,
}

/// What running an item hands the batch's sink.
#[derive(Debug)]
pub enum Event<P, R> {
    /// One unit of an item's output, emitted while the item is still
    /// running.
    Progress(P),
    /// The item finished; `R` carries back whatever it owned.
    Returned(R),
}

/// Hands out the indices of one batch, each exactly once.
pub trait ClaimCursor: Default + Send + Sync {
    /// The next unclaimed index (past the batch's length once exhausted).
    fn next(&self) -> usize;
}

impl ClaimCursor for AtomicUsize {
    fn next(&self) -> usize {
        // ORDER: Relaxed — the index only arbitrates who takes a slot; the
        // item itself crosses threads through that slot's mutex, and the
        // batch reached the lane through the offer queue's mutex.
        self.fetch_add(1, Ordering::Relaxed)
    }
}

/// What a lane calls after every event it posts to a batch's completion
/// queue, so an owner that is not waiting on the queue learns there is
/// something to drain. The server pool passes its shard's readiness waker.
pub type Notify = Arc<dyn Fn() + Send + Sync>;

/// One batch in flight: its items behind the claim cursor, what runs them,
/// and the queue lanes post completions into.
struct Batch<I, P, R, K, W> {
    slots: Vec<Mutex<Option<I>>>,
    cursor: K,
    work: W,
    completions: Mutex<VecDeque<Event<P, R>>>,
    posted: Condvar,
    notify: Option<Notify>,
}

impl<I, P, R, K: ClaimCursor, W> Batch<I, P, R, K, W> {
    /// Claim the next item, or `None` once every index has been handed out.
    fn claim(&self) -> Option<I> {
        let index = self.cursor.next();
        let slot = self.slots.get(index)?;
        let Some(item) = locked(slot).take() else {
            unreachable!("batch item {index} claimed twice")
        };
        Some(item)
    }

    /// A lane's post: queue the event, wake an owner blocked on the queue,
    /// then tell the notify hook (after the event is in the queue, so a
    /// drain the hook triggers finds it).
    fn post(&self, event: Event<P, R>) {
        locked(&self.completions).push_back(event);
        self.posted.notify_one();
        if let Some(notify) = &self.notify {
            notify();
        }
    }

    fn try_completion(&self) -> Option<Event<P, R>> {
        locked(&self.completions).pop_front()
    }

    fn wait_completion(&self) -> Event<P, R> {
        let mut queue = locked(&self.completions);
        loop {
            if let Some(event) = queue.pop_front() {
                return event;
            }
            queue = self
                .posted
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<I, P, R, K, W> Job for Batch<I, P, R, K, W>
where
    I: Send,
    P: Send,
    R: Send,
    K: ClaimCursor,
    W: Fn(I, Ran, &mut dyn FnMut(P)) -> R + Send + Sync,
{
    fn serve(&self) {
        while let Some(item) = self.claim() {
            let result = (self.work)(item, Ran::Helper, &mut |progress| {
                self.post(Event::Progress(progress))
            });
            self.post(Event::Returned(result));
        }
    }
}

/// The owner's handle on a batch it has started: it runs the owner's share
/// ([`OpenBatch::run_next`]) and brings home what the lanes post
/// ([`OpenBatch::drain`]). Once the cursor is exhausted the owner may keep
/// the handle and drain it later, between other work, instead of waiting
/// for the lanes; the lanes finish their items regardless.
///
/// Dropping a handle with items outstanding loses their results (each lane
/// still runs its item to the end): drain with `block` first unless the
/// items' return values are not needed.
pub struct OpenBatch<I, P, R, W, K = AtomicUsize> {
    batch: Arc<Batch<I, P, R, K, W>>,
    /// The item claimed before the batch was offered: the owner's first.
    first: Option<I>,
    /// Items whose [`Event::Returned`] has not been through a sink yet.
    outstanding: usize,
}

impl<I, P, R, W, K> OpenBatch<I, P, R, W, K>
where
    K: ClaimCursor + 'static,
    I: Send + 'static,
    P: Send + 'static,
    R: Send + 'static,
    W: Fn(I, Ran, &mut dyn FnMut(P)) -> R + Send + Sync + 'static,
{
    /// Put `items` behind a fresh cursor, claim the first for the owner,
    /// and offer the rest to up to `copies` lanes of `lanes`.
    fn start(lanes: &Lanes, copies: usize, items: Vec<I>, work: W, notify: Option<Notify>) -> Self {
        let outstanding = items.len();
        let batch = Arc::new(Batch {
            slots: items
                .into_iter()
                .map(|item| Mutex::new(Some(item)))
                .collect(),
            cursor: K::default(),
            work,
            completions: Mutex::new(VecDeque::new()),
            posted: Condvar::new(),
            notify,
        });
        // The owner claims before it offers: the first item is always its
        // own, and lanes start from the second.
        let first = batch.claim();
        if copies > 0 {
            lanes.offer(batch.clone(), copies);
        }
        OpenBatch {
            batch,
            first,
            outstanding,
        }
    }

    /// The owner's turn: claim the next item and run it here, its events
    /// going straight to `sink`. Returns `false`, running nothing, once
    /// every item has been claimed. `work` must not unwind: an item lost
    /// to a panic would never return.
    pub fn run_next<S: FnMut(Event<P, R>, Ran)>(&mut self, sink: &mut S) -> bool {
        let Some(item) = self.first.take().or_else(|| self.batch.claim()) else {
            return false;
        };
        let result = (self.batch.work)(item, Ran::Owner, &mut |progress| {
            sink(Event::Progress(progress), Ran::Owner)
        });
        sink(Event::Returned(result), Ran::Owner);
        self.outstanding -= 1;
        true
    }

    /// Hand `sink` every event the lanes have posted so far and, with
    /// `block`, wait for the rest until every item has returned. Returns
    /// whether every item's [`Event::Returned`] has been through a sink.
    /// Block only once [`run_next`](Self::run_next) has returned `false`:
    /// an item nobody has claimed would never return.
    pub fn drain<S: FnMut(Event<P, R>, Ran)>(&mut self, block: bool, sink: &mut S) -> bool {
        loop {
            while let Some(event) = self.batch.try_completion() {
                self.absorb(event, sink);
            }
            if self.outstanding == 0 || !block {
                return self.outstanding == 0;
            }
            let event = self.batch.wait_completion();
            self.absorb(event, sink);
        }
    }

    /// Whether every item has returned through a sink.
    pub fn is_done(&self) -> bool {
        self.outstanding == 0
    }

    fn absorb<S: FnMut(Event<P, R>, Ran)>(&mut self, event: Event<P, R>, sink: &mut S) {
        if matches!(event, Event::Returned(_)) {
            self.outstanding -= 1;
        }
        sink(event, Ran::Helper);
    }

    /// The barrier: run the owner's share, handing `sink` each [`Event`]
    /// with who produced it — the owner's own as they happen, a lane's when
    /// the owner next drains, between its items — then block until every
    /// item's [`Event::Returned`] has been through `sink`.
    fn finish<S: FnMut(Event<P, R>, Ran)>(mut self, mut sink: S) {
        while self.run_next(&mut sink) {
            self.drain(false, &mut sink);
        }
        self.drain(true, &mut sink);
    }
}

/// The server pool's distill crew: any number of batch owners (reactor
/// workers), up to `helper_count` lanes beside each.
///
/// `K` is the claim cursor (the shipping one unless a model-check mutant
/// says otherwise).
pub struct Crew<K = AtomicUsize> {
    lanes: Arc<Lanes>,
    helper_count: usize,
    cursor: PhantomData<fn() -> K>,
}

impl<K: ClaimCursor + 'static> Crew<K> {
    /// A crew whose owners offer each batch to up to `helper_count` lanes of
    /// `lanes`, grown to at least that width. Zero is a crew of the owner
    /// alone.
    pub fn new(lanes: Arc<Lanes>, helper_count: usize) -> Self {
        lanes.ensure(helper_count);
        Crew {
            lanes,
            helper_count,
            cursor: PhantomData,
        }
    }

    /// Whether a batch of `items` items will be offered to lanes — i.e.
    /// whether more than one of its items can be in flight at once.
    pub fn shares(&self, items: usize) -> bool {
        self.helper_count > 0 && items > 1
    }

    /// Start a batch and hand its owner the handle: the owner's first item
    /// is claimed, the rest offered to up to one lane per item left (see
    /// the module's protocol). The owner runs its share with
    /// [`OpenBatch::run_next`] and brings the lanes' events home with
    /// [`OpenBatch::drain`]; `notify` is called after every event a lane
    /// posts, so the owner can leave the batch open and come back when told.
    pub fn open<I, P, R, W>(
        &self,
        items: Vec<I>,
        work: W,
        notify: Option<Notify>,
    ) -> OpenBatch<I, P, R, W, K>
    where
        I: Send + 'static,
        P: Send + 'static,
        R: Send + 'static,
        W: Fn(I, Ran, &mut dyn FnMut(P)) -> R + Send + Sync + 'static,
    {
        let copies = if self.shares(items.len()) {
            self.helper_count.min(items.len() - 1)
        } else {
            0
        };
        OpenBatch::start(&self.lanes, copies, items, work, notify)
    }

    /// Run every item of a batch to completion: [`Crew::open`], the owner's
    /// items with a drain between each, then a blocking drain. Returns only
    /// once every item's [`Event::Returned`] has been through `sink`.
    /// `work` must not unwind.
    pub fn run_batch<I, P, R, W, S>(&self, items: Vec<I>, work: W, sink: S)
    where
        I: Send + 'static,
        P: Send + 'static,
        R: Send + 'static,
        W: Fn(I, Ran, &mut dyn FnMut(P)) -> R + Send + Sync + 'static,
        S: FnMut(Event<P, R>, Ran),
    {
        self.open(items, work, None).finish(sink);
    }
}

/// Split `[0, total)` into one contiguous range per thread — each range a
/// multiple of `granularity` except possibly the last — and run
/// `f(start, end)` on every non-empty range: the first on the calling
/// thread, the others on whichever lanes of [`Lanes::global`] are free,
/// the rest on the calling thread too. `f` is called serially as
/// `f(0, total)` when only one thread is configured ([`threads`]) or
/// `total <= granularity`. A panic in any range unwinds out of this call,
/// after every range has finished.
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
    if n_threads <= 1 || total <= granularity {
        if total > 0 {
            f(0, total);
        }
        return;
    }
    let units = total.div_ceil(granularity);
    let per_worker = units.div_ceil(n_threads) * granularity;
    let lanes = Lanes::global();
    lanes.ensure(n_threads - 1);
    lanes.run_ranges(total.div_ceil(per_worker), &|i| {
        f(i * per_worker, ((i + 1) * per_worker).min(total))
    });
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

    #[test]
    fn a_private_lane_set_runs_every_range_once_and_closes() {
        use std::sync::Mutex;
        let lanes = Lanes::new();
        lanes.ensure(3);
        assert_eq!(lanes.width(), 3);
        for count in [1usize, 2, 4, 9] {
            let hits = Mutex::new(vec![0u32; count]);
            lanes.run_ranges(count, &|i| hits.lock().unwrap()[i] += 1);
            assert_eq!(hits.into_inner().unwrap(), vec![1; count]);
        }
        lanes.close();
        assert_eq!(lanes.width(), 0);
        // A closed set starts nothing; its caller runs every range alone.
        lanes.ensure(2);
        assert_eq!(lanes.width(), 0);
        let me = std::thread::current().id();
        lanes.run_ranges(3, &|_| assert_eq!(std::thread::current().id(), me));
    }
}
