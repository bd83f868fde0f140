//! The distill crew's hand-off core: one batch's work items fanned out over
//! the batch's owner and a set of parked helper threads.
//!
//! The sessions of one co-scheduled batch share a teacher forward and
//! nothing else, so once the labels exist their distillations are
//! independent. [`Crew`] is the protocol that runs them side by side, kept
//! small, generic over its payloads and written against the `st_check::sync`
//! facade, so `tests/model_crew.rs` drives this exact code under the model
//! checker with integers for items.
//!
//! # The protocol
//!
//! The owner (a reactor worker inside a shard pass) wraps the batch's items
//! in slots behind a **claim cursor**, claims the first for itself and
//! offers the batch to the helpers parked on the crew's offer queue. Owner
//! and helpers then do the same thing: claim the next index, take that
//! slot's item — an item *moves* to whoever claimed it, nothing is borrowed
//! across threads — run it, claim again. A helper posts what its item
//! produces to the batch's **completion queue**: every progress value the
//! moment it exists, then the item's return value (which carries whatever
//! the item owned back to the owner).
//! The owner hands its own items' output straight to the sink, drains the
//! completion queue between its items, and once the cursor is exhausted
//! blocks on the queue until every item it did not run itself has returned.
//!
//! What the model checker proves under every bounded interleaving: each item
//! is claimed exactly once, each claimed item returns exactly once, and
//! [`Crew::run_batch`] never returns with an item outstanding. The cursor is
//! the only atomic; replacing its read-modify-write with a load and a store
//! ([`ClaimCursor`] is the seam the mutant goes through) is caught as a
//! double claim.
//!
//! With no helpers — or a batch of one — nothing is offered and the owner
//! claims every item itself: the same loop, not a second one.

use st_check::sync::{AtomicUsize, Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

/// Lock a facade mutex, recovering the data if a thread panicked while
/// holding it: the hand-off must outlive any one helper, and its critical
/// sections are single pushes, pops and takes.
fn locked<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Which side of the crew ran an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ran {
    /// The batch's owner, between draining completions.
    Owner,
    /// A parked helper thread that took up the batch's offer.
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
        // batch reached this thread through the offer queue's mutex.
        self.fetch_add(1, Ordering::Relaxed)
    }
}

/// One batch in flight: its items behind the claim cursor, and the queue
/// helpers post completions into.
struct Batch<I, P, R, K> {
    slots: Vec<Mutex<Option<I>>>,
    cursor: K,
    completions: Mutex<VecDeque<Event<P, R>>>,
    posted: Condvar,
}

impl<I, P, R, K: ClaimCursor> Batch<I, P, R, K> {
    fn new(items: Vec<I>) -> Self {
        Batch {
            slots: items
                .into_iter()
                .map(|item| Mutex::new(Some(item)))
                .collect(),
            cursor: K::default(),
            completions: Mutex::new(VecDeque::new()),
            posted: Condvar::new(),
        }
    }

    /// Claim the next item, or `None` once every index has been handed out.
    fn claim(&self) -> Option<I> {
        let index = self.cursor.next();
        let slot = self.slots.get(index)?;
        let Some(item) = locked(slot).take() else {
            unreachable!("crew item {index} claimed twice")
        };
        Some(item)
    }

    fn post(&self, event: Event<P, R>) {
        locked(&self.completions).push_back(event);
        self.posted.notify_one();
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

/// The helpers' side of the crew: batches on offer, and whether the crew
/// has been dismissed.
struct Offers<I, P, R, K> {
    queue: VecDeque<Arc<Batch<I, P, R, K>>>,
    closed: bool,
}

/// A pool-wide crew: any number of batch owners, a fixed set of parked
/// helper threads.
///
/// `I` is a work item, `P` one unit of its output, `R` what it returns; `K`
/// is the claim cursor (the shipping one unless a model-check mutant says
/// otherwise).
pub struct Crew<I, P, R, K = AtomicUsize> {
    helper_count: usize,
    offers: Mutex<Offers<I, P, R, K>>,
    offered: Condvar,
}

impl<I, P, R, K: ClaimCursor> Crew<I, P, R, K> {
    /// A crew whose owners may count on up to `helper_count` threads running
    /// [`Crew::help`]. Zero is a crew of the owner alone.
    pub fn new(helper_count: usize) -> Self {
        Crew {
            helper_count,
            offers: Mutex::new(Offers {
                queue: VecDeque::new(),
                closed: false,
            }),
            offered: Condvar::new(),
        }
    }

    /// Helper threads this crew was built for.
    pub fn helpers(&self) -> usize {
        self.helper_count
    }

    /// Whether a batch of `items` items will be offered to helpers — i.e.
    /// whether more than one of its items can be in flight at once.
    pub fn shares(&self, items: usize) -> bool {
        self.helper_count > 0 && items > 1
    }

    /// Run every item of a batch to completion, on the calling thread and
    /// on whichever helpers take up the offer, handing `sink` each
    /// [`Event`] with who produced it. The owner's own events reach the
    /// sink as they happen; a helper's when the owner next drains the
    /// completion queue — between its own items, and at the end. Returns
    /// only once every item's [`Event::Returned`] has been through the
    /// sink.
    ///
    /// `work` must not unwind: an item lost to a panic would never return.
    /// (The pool's `work` catches its own.)
    pub fn run_batch<W, S>(&self, items: Vec<I>, work: W, mut sink: S)
    where
        W: Fn(I, Ran, &mut dyn FnMut(P)) -> R,
        S: FnMut(Event<P, R>, Ran),
    {
        let total = items.len();
        let shared = self.shares(total);
        let batch = Arc::new(Batch::new(items));
        // The owner claims before it offers: the first-scheduled item is
        // always its own — no completion-queue hop for the stream whose
        // turn it is — and helpers start from the second.
        let mut next = batch.claim();
        if shared {
            // One offer per helper that could find an item left.
            let invitations = self.helper_count.min(total - 1);
            {
                let mut offers = locked(&self.offers);
                for _ in 0..invitations {
                    offers.queue.push_back(Arc::clone(&batch));
                }
            }
            for _ in 0..invitations {
                self.offered.notify_one();
            }
        }
        let mut returned = 0;
        let absorb = |event: Event<P, R>, sink: &mut S| {
            let done = matches!(event, Event::Returned(_));
            sink(event, Ran::Helper);
            usize::from(done)
        };
        while let Some(item) = next {
            let result = work(item, Ran::Owner, &mut |progress| {
                sink(Event::Progress(progress), Ran::Owner)
            });
            sink(Event::Returned(result), Ran::Owner);
            returned += 1;
            while let Some(event) = batch.try_completion() {
                returned += absorb(event, &mut sink);
            }
            next = batch.claim();
        }
        while returned < total {
            returned += absorb(batch.wait_completion(), &mut sink);
        }
    }

    /// A helper's whole life: park until a batch is offered, claim and run
    /// its items until none are left, park again. Returns once the crew is
    /// [closed](Crew::close) and no offer is left.
    pub fn help<W>(&self, work: W)
    where
        W: Fn(I, Ran, &mut dyn FnMut(P)) -> R,
    {
        while let Some(batch) = self.next_offer() {
            while let Some(item) = batch.claim() {
                let result = work(item, Ran::Helper, &mut |progress| {
                    batch.post(Event::Progress(progress))
                });
                batch.post(Event::Returned(result));
            }
        }
    }

    fn next_offer(&self) -> Option<Arc<Batch<I, P, R, K>>> {
        let mut offers = locked(&self.offers);
        loop {
            if let Some(batch) = offers.queue.pop_front() {
                return Some(batch);
            }
            if offers.closed {
                return None;
            }
            offers = self
                .offered
                .wait(offers)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Dismiss the helper threads: each returns from [`Crew::help`] once it finds
    /// no offer left. Call after the last batch owner is gone.
    pub fn close(&self) {
        locked(&self.offers).closed = true;
        self.offered.notify_all();
    }
}
