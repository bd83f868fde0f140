//! The cross-shard work-stealing coordination core, extracted from the
//! server pool so the *protocol* — request slots, migration mailboxes, and
//! the handoff-under-lock discipline — is a small, generic, model-checkable
//! unit.
//!
//! [`StealCore<S, E>`] is generic over the migrated-stream payload `S` and
//! the forwarded-envelope payload `E`: the production pool instantiates it
//! with whole serving sessions and uplink envelopes
//! (`serve::StealRegistry`), while the model-check suite
//! (`tests/model_steal.rs`) instantiates it with small integers and drives
//! it from instrumented threads. Same code either way — the sync primitives
//! come from the `st_check::sync` facade, which is plain `std` in normal
//! builds and the deterministic model checker under `--features
//! model-check`.
//!
//! # The protocol
//!
//! Each shard owns one *request slot* (`Mutex<Option<usize>>`) and one
//! *mailbox*. A thief asks a victim for work by writing its own index into
//! the victim's slot ([`post_request`](StealCore::post_request)); the victim
//! answers by moving a stream into the thief's mailbox and clearing the slot
//! — all under the slot's lock ([`fulfil_request`](StealCore::fulfil_request)).
//! The thief cancels by clearing the slot itself
//! ([`withdraw_request`](StealCore::withdraw_request)).
//!
//! That single lock is what makes the handoff race-free: a thief that
//! observes its request gone from the slot is guaranteed the fulfilment (if
//! any) is already visible in its mailbox, and a victim that wins the slot
//! lock against a withdrawing thief is guaranteed the thief has not exited —
//! exit requires a successful withdraw first. The model-check suite proves
//! both properties under every bounded interleaving, and proves that
//! weakening the exit discipline (closing the mailbox before withdrawing)
//! is caught as a stranded stream.

use std::sync::atomic::Ordering;

use st_check::sync::{AtomicUsize, Mutex, MutexGuard};

/// A thief only asks a shard for work when at least this many jobs are
/// published as queued there — a single queued job is cheaper to serve
/// locally than to migrate.
pub const MIN_STEAL_BACKLOG: usize = 2;

/// One shard's migration mailbox: streams handed to it by donating shards
/// and envelopes forwarded to it (traffic that reached the old shard after
/// a migration).
struct Mailbox<S, E> {
    streams: Vec<S>,
    envelopes: Vec<E>,
    /// Set by the owning worker on exit (under the mailbox lock, after a
    /// final drain). A forwarder that finds the mailbox closed keeps its
    /// envelope and accounts for the loss itself instead of posting into a
    /// dead letter box.
    closed: bool,
}

impl<S, E> Default for Mailbox<S, E> {
    fn default() -> Self {
        Mailbox {
            streams: Vec::new(),
            envelopes: Vec::new(),
            closed: false,
        }
    }
}

/// Outcome of a donation attempt ([`StealCore::fulfil_request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FulfilOutcome {
    /// No thief is waiting at this shard.
    NoRequest,
    /// The slot named this shard itself; cleared defensively — a
    /// self-request can never be fulfilled meaningfully.
    SelfRequest,
    /// A thief is waiting but the donor kept its work (the prepare callback
    /// declined); the request stays pending.
    Kept,
    /// The stream is in the thief's mailbox and the request slot is cleared.
    Delivered {
        /// The shard that received the stream.
        thief: usize,
    },
    /// The thief's mailbox is already closed (the thief died and a standby
    /// is taking it over, or it exited): the donor keeps the stream and the
    /// stale request slot is cleared. Nothing is ever pushed into a closed
    /// mailbox, so a buddy adoption racing a concurrent steal can neither
    /// double-own nor strand the stream.
    ThiefGone,
}

/// How a pending steal request looks to the thief that posted it
/// ([`StealCore::review_request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestReview {
    /// The slot no longer names the thief: the victim fulfilled (the stream
    /// is already in — or on its way to — the mailbox) or exited.
    Gone,
    /// Still posted, still waiting.
    Pending,
    /// The thief asked to withdraw and the slot was still its own: cleared.
    Withdrawn,
}

/// Shared coordination state for cross-shard work stealing. Plain shared
/// memory, deliberately *not* channels: workers polling each other through
/// channel handles would keep every uplink alive and deadlock the
/// disconnect-based shutdown.
pub struct StealCore<S, E> {
    /// Registered-session count per shard — the placement signal.
    loads: Vec<AtomicUsize>,
    /// Queued jobs per shard — the steal signal, published by each worker
    /// once per drain pass.
    backlog: Vec<AtomicUsize>,
    /// Pending steal request at each (victim) shard: `Some(thief)` while a
    /// thief is waiting for a handoff from that victim.
    requests: Vec<Mutex<Option<usize>>>,
    /// Per-shard migration mailbox.
    mailboxes: Vec<Mutex<Mailbox<S, E>>>,
}

/// Lock a facade mutex, recovering the data if another worker panicked
/// while holding it: the coordination state must outlive any one worker, and
/// every protocol invariant is re-established before a guard drops. (Shared
/// with the distill crew's hand-off, whose critical sections are single
/// pushes, pops and takes.)
pub(crate) fn locked<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<S, E> StealCore<S, E> {
    /// Coordination state for `shards` shards, all idle and empty.
    pub fn new(shards: usize) -> Self {
        StealCore {
            loads: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            backlog: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            requests: (0..shards).map(|_| Mutex::new(None)).collect(),
            mailboxes: (0..shards)
                .map(|_| Mutex::new(Mailbox::default()))
                .collect(),
        }
    }

    /// Number of shards this core coordinates.
    pub fn shards(&self) -> usize {
        self.loads.len()
    }

    /// Registered-session count of one shard.
    pub fn load(&self, shard: usize) -> usize {
        self.loads[shard].load(Ordering::SeqCst)
    }

    /// Registered-session count of every shard.
    pub fn loads_snapshot(&self) -> Vec<usize> {
        self.loads
            .iter()
            .map(|load| load.load(Ordering::SeqCst))
            .collect()
    }

    /// The shard with the fewest registered sessions (ties toward the lowest
    /// index) — the placement signal for least-loaded policies.
    pub fn least_loaded(&self) -> usize {
        self.loads
            .iter()
            .enumerate()
            .min_by_key(|(_, load)| load.load(Ordering::SeqCst))
            .map(|(index, _)| index)
            .unwrap_or(0)
    }

    /// A session registered at `shard`.
    pub fn load_inc(&self, shard: usize) {
        self.loads[shard].fetch_add(1, Ordering::SeqCst);
    }

    /// A session retired (or its registration rolled back) at `shard`.
    pub fn load_dec(&self, shard: usize) {
        self.loads[shard].fetch_sub(1, Ordering::SeqCst);
    }

    /// Publish `shard`'s queued-job count — the signal thieves pick victims
    /// by. Workers publish once per drain pass, and zero it on exit.
    pub fn publish_backlog(&self, shard: usize, depth: usize) {
        self.backlog[shard].store(depth, Ordering::SeqCst);
    }

    /// Post a steal request from `thief` at the shard with the deepest
    /// published backlog (ties toward the lowest index). Returns the victim
    /// whose request slot now names `thief`, or `None` when no other shard
    /// publishes at least `min_backlog` jobs or the best victim already has
    /// a request parked at it.
    pub fn post_request(&self, thief: usize, min_backlog: usize) -> Option<usize> {
        let (victim, backlog) = self
            .backlog
            .iter()
            .enumerate()
            .filter(|(index, _)| *index != thief)
            .map(|(index, backlog)| (index, backlog.load(Ordering::SeqCst)))
            .max_by_key(|&(index, backlog)| (backlog, std::cmp::Reverse(index)))?;
        if backlog < min_backlog {
            return None;
        }
        let mut slot = locked(&self.requests[victim]);
        if slot.is_some() {
            return None;
        }
        *slot = Some(thief);
        Some(victim)
    }

    /// How `thief`'s pending request at `victim` stands; with `withdraw`,
    /// additionally clear it if it still stands. A [`RequestReview::Gone`]
    /// answer means any fulfilment is already in (or on its way to) the
    /// thief's mailbox — drain it rather than re-posting elsewhere.
    pub fn review_request(&self, victim: usize, thief: usize, withdraw: bool) -> RequestReview {
        let mut slot = locked(&self.requests[victim]);
        if *slot != Some(thief) {
            RequestReview::Gone
        } else if withdraw {
            *slot = None;
            RequestReview::Withdrawn
        } else {
            RequestReview::Pending
        }
    }

    /// Cancel `thief`'s request at `victim`. Returns `true` when the slot
    /// still named the thief and was cleared — after which no fulfilment
    /// can ever land, so the thief may exit. A `false` answer means the
    /// victim already fulfilled (or exited): the thief's mailbox must be
    /// drained again before exiting.
    ///
    /// Cancelling under the slot's lock is the exit half of the handoff
    /// discipline: a victim mid-fulfilment holds the lock, so the thief's
    /// withdraw cannot interleave into the middle of a handoff.
    pub fn withdraw_request(&self, victim: usize, thief: usize) -> bool {
        let mut slot = locked(&self.requests[victim]);
        if *slot == Some(thief) {
            *slot = None;
            true
        } else {
            false
        }
    }

    /// Clear any request parked at `victim` (the victim is exiting and
    /// refuses it; the thief observes `Gone` and re-targets).
    pub fn clear_request(&self, victim: usize) {
        *locked(&self.requests[victim]) = None;
    }

    /// Fulfil a pending steal request against `victim`, if one exists and
    /// the donor can spare a stream. `prepare(thief)` decides: it returns
    /// the stream to donate plus the donor's remaining backlog depth, or
    /// `None` to keep the request pending. On donation the stream is pushed
    /// into the thief's mailbox, `delivered(thief)` runs (the donor flips
    /// its routing there), the load/backlog signals are updated, and only
    /// then does the slot clear.
    ///
    /// The entire handoff happens under the victim's request-slot lock: a
    /// thief that later observes the slot cleared is guaranteed to find the
    /// stream in its mailbox (the cancel/fulfil race resolves under that
    /// one lock). The thief's mailbox is locked *before* the prepare
    /// callback runs and held until the stream is pushed, so the push and
    /// the closed-flag check are one atomic step against
    /// [`close_mailbox`](Self::close_mailbox): a mailbox closed by the
    /// thief's own exit — or by a standby taking over a dead thief — is
    /// refused with [`FulfilOutcome::ThiefGone`] and the donor's state is
    /// left untouched. A delivery can therefore never land in a dead letter
    /// box, under the cooperative exit protocol *and* under failover.
    pub fn fulfil_request<F, G>(&self, victim: usize, prepare: F, delivered: G) -> FulfilOutcome
    where
        F: FnOnce(usize) -> Option<(S, usize)>,
        G: FnOnce(usize),
    {
        let mut slot = locked(&self.requests[victim]);
        let Some(thief) = *slot else {
            return FulfilOutcome::NoRequest;
        };
        if thief == victim {
            *slot = None;
            return FulfilOutcome::SelfRequest;
        }
        {
            let mut mailbox = locked(&self.mailboxes[thief]);
            if mailbox.closed {
                // The thief is gone (exit or takeover): the request is
                // stale. Refuse before `prepare` runs so nothing was moved
                // out of the donor, and clear the slot so the donor stops
                // reconsidering a dead shard's request.
                *slot = None;
                return FulfilOutcome::ThiefGone;
            }
            let Some((stream, backlog)) = prepare(thief) else {
                return FulfilOutcome::Kept;
            };
            mailbox.streams.push(stream);
            self.backlog[victim].store(backlog, Ordering::SeqCst);
        }
        delivered(thief);
        self.loads[victim].fetch_sub(1, Ordering::SeqCst);
        self.loads[thief].fetch_add(1, Ordering::SeqCst);
        *slot = None;
        FulfilOutcome::Delivered { thief }
    }

    /// Forward an envelope to `shard`'s mailbox (traffic for a stream that
    /// migrated there). `Err` hands the envelope back when the mailbox is
    /// closed — the owning worker exited, no ack can ever be delivered, and
    /// the caller accounts for the loss.
    pub fn forward_envelope(&self, shard: usize, envelope: E) -> Result<(), E> {
        let mut mailbox = locked(&self.mailboxes[shard]);
        if mailbox.closed {
            Err(envelope)
        } else {
            mailbox.envelopes.push(envelope);
            Ok(())
        }
    }

    /// Take everything currently in `shard`'s mailbox: migrated streams and
    /// forwarded envelopes, each in arrival order.
    pub fn drain_mailbox(&self, shard: usize) -> (Vec<S>, Vec<E>) {
        let mut mailbox = locked(&self.mailboxes[shard]);
        (
            std::mem::take(&mut mailbox.streams),
            std::mem::take(&mut mailbox.envelopes),
        )
    }

    /// Whether `shard`'s mailbox holds no migrated streams — the final
    /// exit check after a successful withdraw.
    pub fn mailbox_streams_empty(&self, shard: usize) -> bool {
        locked(&self.mailboxes[shard]).streams.is_empty()
    }

    /// Close `shard`'s mailbox and take whatever is still in it. Future
    /// [`forward_envelope`](Self::forward_envelope) calls to this shard are
    /// refused. Returns `(stranded_streams, leftover_envelopes)`; by the
    /// exit protocol the stream list must be empty (the caller asserts).
    pub fn close_mailbox(&self, shard: usize) -> (Vec<S>, Vec<E>) {
        let mut mailbox = locked(&self.mailboxes[shard]);
        mailbox.closed = true;
        (
            std::mem::take(&mut mailbox.streams),
            std::mem::take(&mut mailbox.envelopes),
        )
    }
}
