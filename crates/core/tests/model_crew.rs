//! Model-checking the distill crew's hand-off and the lanes it runs on.
//!
//! [`Crew`] is generic over its payloads, so these tests drive the
//! *production* protocol — the claim cursor and the completion queue
//! `serve::ServeShard` runs every batch through, offered to a private
//! [`Lanes`] set — with integers for work items under the `st_check` model
//! checker. The lanes are the same code `par_ranges` offers kernel ranges
//! to, so a crew batch and a ranges job are checked sharing one lane. The
//! properties are the ones a shard stakes its sessions on (an item *owns*
//! its stream's session while it runs), and the ones a kernel stakes its
//! borrowed closure on:
//!
//! * **Claimed exactly once**: no interleaving of the owner and the lanes
//!   runs an item or a range twice or skips one.
//! * **Returned exactly once, progress first**: every claimed item's return
//!   value reaches the owner's sink once, after everything the item emitted.
//! * **Nothing outstanding**: neither `run_batch` nor `run_ranges` returns
//!   while a lane still holds a unit of its job — the owner drains
//!   completions *while lanes run* and blocks for the rest. An owner that
//!   leaves a batch open (as a shard's pass does) and drains it later —
//!   beside a second batch of its own, and blocking at the end, as a
//!   finishing shard does — likewise ends with nothing outstanding.
//! * **No return un-notified**: every event a lane posts is followed by a
//!   call of the batch's notify hook, so an owner that left a batch open
//!   and parks until told (a reactor worker in its poller) misses none —
//!   a post without a notify would leave it parked, a deadlock the checker
//!   reports.
//! * **A stale offer runs nothing**: an offer a lane pops after its owner
//!   returned claims nothing, so the borrowed closure is never called late.
//!
//! The mutant swaps the cursor's read-modify-write for a load and a store
//! (through [`ClaimCursor`], the production code is untouched) and requires
//! the checker to find the double claim.
#![cfg(feature = "model-check")]

use std::sync::{Arc, Mutex};

use st_check::model::{check_with, Config, Report};
use st_check::sync::{thread, AtomicBool, AtomicUsize, Condvar, Mutex as ModelMutex, Ordering};
use st_tensor::parallel::{ClaimCursor, Crew, Event, Lanes, Notify, Ran};

fn cfg() -> Config {
    Config::from_env()
}

fn assert_caught(report: &Report, what: &str) {
    let cx = report
        .counterexample
        .as_ref()
        .unwrap_or_else(|| panic!("checker failed to catch {what}"));
    assert!(!cx.schedule.is_empty(), "counterexample is not replayable");
    assert!(
        cx.message.contains("claimed twice"),
        "caught for another reason: {}",
        cx.message
    );
}

fn assert_clean(report: &Report, what: &str) {
    if let Some(cx) = &report.counterexample {
        panic!("false positive on {what}:\n{}", cx.render());
    }
    assert!(report.exhausted, "{what}: exploration did not exhaust");
}

/// What the sink saw of one batch, in the order it saw it.
#[derive(Default)]
struct Seen {
    events: Vec<(bool, usize, Ran)>,
}

impl Seen {
    /// The sink of `run_batch`: `(is_return, item, who ran it)` per event.
    fn note(&mut self, event: Event<usize, usize>, ran: Ran) {
        match event {
            Event::Progress(item) => self.events.push((false, item, ran)),
            Event::Returned(item) => self.events.push((true, item, ran)),
        }
    }

    /// Every item of `0..items` emitted once and then returned once.
    fn assert_complete(&self, items: usize) {
        for item in 0..items {
            let of_item: Vec<bool> = self
                .events
                .iter()
                .filter(|(_, i, _)| *i == item)
                .map(|(returned, ..)| *returned)
                .collect();
            assert_eq!(
                of_item,
                vec![false, true],
                "item {item}: not (progress, return) exactly once: {of_item:?}"
            );
        }
        assert_eq!(self.events.len(), 2 * items, "an event for no item");
    }
}

/// The work every crew test runs: emit the item, return it.
fn echo(item: usize, _ran: Ran, emit: &mut dyn FnMut(usize)) -> usize {
    emit(item);
    item
}

/// One batch of `items` items through a crew of `helper_count` lanes, cursor
/// `K`. `runs[i]` counts how often item `i` was actually run.
fn one_batch<K: ClaimCursor + 'static>(helper_count: usize, items: usize) {
    let lanes = Lanes::new();
    let crew: Crew<K> = Crew::new(Arc::clone(&lanes), helper_count);
    let runs: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(vec![0; items]));
    let work = {
        let runs = Arc::clone(&runs);
        move |item: usize, ran: Ran, emit: &mut dyn FnMut(usize)| {
            runs.lock().unwrap()[item] += 1;
            echo(item, ran, emit)
        }
    };
    let mut seen = Seen::default();
    crew.run_batch((0..items).collect(), work, |event, ran| {
        seen.note(event, ran)
    });
    // The moment `run_batch` returns, nothing is outstanding: every item
    // ran once and came back once, whoever ran it.
    assert_eq!(*runs.lock().unwrap(), vec![1; items], "claim counts");
    seen.assert_complete(items);
    // The first-scheduled item is always the owner's own.
    assert_eq!(seen.events[0], (false, 0, Ran::Owner));
    lanes.close();
}

#[test]
fn one_helper_claims_beside_the_owner_exactly_once() {
    let report = check_with(cfg(), || one_batch::<AtomicUsize>(1, 3));
    assert_clean(&report, "owner + one lane over three items");
}

#[test]
fn two_helpers_race_the_owner_for_the_last_item() {
    let report = check_with(cfg(), || one_batch::<AtomicUsize>(2, 2));
    assert_clean(&report, "owner + two lanes over two items");
}

/// The crew is pool-wide: two owners (two shards mid-pass on two reactor
/// workers) share one lane. Each batch still completes on its own — the
/// lane serves whichever offer it pops, an owner whose offer goes unheard
/// runs everything itself.
#[test]
fn two_owners_share_one_helper() {
    let report = check_with(cfg(), || {
        let lanes = Lanes::new();
        let crew: Arc<Crew> = Arc::new(Crew::new(Arc::clone(&lanes), 1));
        let other = {
            let crew = Arc::clone(&crew);
            thread::spawn(move || {
                let mut seen = Seen::default();
                crew.run_batch(vec![0, 1], echo, |event, ran| seen.note(event, ran));
                seen.assert_complete(2);
            })
        };
        let mut seen = Seen::default();
        crew.run_batch(vec![0, 1], echo, |event, ran| seen.note(event, ran));
        seen.assert_complete(2);
        other.join().expect("join the other owner");
        lanes.close();
    });
    assert_clean(&report, "two owners sharing one lane");
}

/// The lanes are process-wide: a kernel's `par_ranges` call and a shard's
/// crew batch offer to the same parked thread. Whichever the lane pops
/// first, every item and every range runs once, and neither owner returns
/// with a unit of its job still out on the lane.
#[test]
fn a_crew_batch_and_a_ranges_job_share_one_lane() {
    let report = check_with(cfg(), || {
        let lanes = Lanes::new();
        let crew: Crew = Crew::new(Arc::clone(&lanes), 1);
        let kernel = {
            let lanes = Arc::clone(&lanes);
            thread::spawn(move || {
                let ran = [AtomicUsize::new(0), AtomicUsize::new(0)];
                lanes.run_ranges(2, &|i| {
                    ran[i].fetch_add(1, Ordering::SeqCst);
                });
                for (i, count) in ran.iter().enumerate() {
                    assert_eq!(count.load(Ordering::SeqCst), 1, "range {i} run count");
                }
            })
        };
        let mut seen = Seen::default();
        crew.run_batch(vec![0, 1], echo, |event, ran| seen.note(event, ran));
        seen.assert_complete(2);
        kernel.join().expect("join the kernel's caller");
        lanes.close();
    });
    assert_clean(&report, "a crew batch and a ranges job sharing one lane");
}

/// `run_ranges` lends the lanes a closure that borrows the caller's frame.
/// A lane that pops the offer after the call has returned must find the
/// cursor exhausted and never call it. `close` makes the lane drain every
/// offer still queued before it exits, so a late call would show in the
/// counts taken after it (a panic inside the closure would be caught on
/// the lane with nobody left to resume it, hence counts, not asserts).
#[test]
fn a_stale_offer_runs_nothing() {
    let report = check_with(cfg(), || {
        let lanes = Lanes::new();
        lanes.ensure(1);
        let returned = AtomicBool::new(false);
        let late = AtomicUsize::new(0);
        let ran = [AtomicUsize::new(0), AtomicUsize::new(0)];
        lanes.run_ranges(2, &|i| {
            if returned.load(Ordering::SeqCst) {
                late.fetch_add(1, Ordering::SeqCst);
            }
            ran[i].fetch_add(1, Ordering::SeqCst);
        });
        returned.store(true, Ordering::SeqCst);
        let counts = || {
            ran.iter()
                .map(|c| c.load(Ordering::SeqCst))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(), vec![1, 1], "outstanding at return");
        lanes.close();
        assert_eq!(late.load(Ordering::SeqCst), 0, "a range ran after return");
        assert_eq!(counts(), vec![1, 1], "run again after return");
    });
    assert_clean(&report, "an offer popped after its owner returned");
}

/// A batch of one — and any batch on a crew without helpers — is never
/// offered: the owner runs it alone, and a parked lane is not woken (it is
/// still parked when the set closes, so the close alone must release it).
#[test]
fn a_batch_of_one_is_the_owners_alone() {
    let report = check_with(cfg(), || {
        let lanes = Lanes::new();
        let crew: Crew = Crew::new(Arc::clone(&lanes), 1);
        let work = |item: usize, ran: Ran, emit: &mut dyn FnMut(usize)| {
            assert_eq!(ran, Ran::Owner, "a lane ran an unshared batch");
            echo(item, ran, emit)
        };
        assert!(!crew.shares(1) && crew.shares(2));
        let mut seen = Seen::default();
        crew.run_batch(vec![0], work, |event, ran| seen.note(event, ran));
        seen.assert_complete(1);
        lanes.close();
    });
    assert_clean(&report, "the unshared batch");
}

/// A notify hook that counts its calls, and a way to park until it has been
/// called more often than the caller has seen: the reactor's readiness
/// token, reduced to what the crew relies on.
struct Told {
    count: ModelMutex<usize>,
    changed: Condvar,
}

impl Told {
    fn new() -> Arc<Self> {
        Arc::new(Told {
            count: ModelMutex::new(0),
            changed: Condvar::new(),
        })
    }

    fn hook(self: &Arc<Self>) -> Notify {
        let told = Arc::clone(self);
        Arc::new(move || {
            *told.count.lock().unwrap() += 1;
            told.changed.notify_all();
        })
    }

    /// Park until the count passes `seen`; returns the new count.
    fn wait_past(&self, seen: usize) -> usize {
        let mut count = self.count.lock().unwrap();
        while *count == seen {
            count = self.changed.wait(count).unwrap();
        }
        *count
    }

    fn count(&self) -> usize {
        *self.count.lock().unwrap()
    }
}

/// A shard's pass: the owner runs its share of a batch, drains, and leaves
/// with the lane's item possibly still out. Later passes run only when the
/// notify hook has been called since the last one, and drain without
/// blocking, until the batch is done. Every lane post was notified, and
/// nothing is outstanding at the end.
#[test]
fn an_owner_that_leaves_a_batch_open_drains_it_when_told() {
    let report = check_with(cfg(), || {
        let lanes = Lanes::new();
        let crew: Crew = Crew::new(Arc::clone(&lanes), 1);
        let told = Told::new();
        let mut seen = Seen::default();
        let mut sink = |event, ran| seen.note(event, ran);
        let mut open = crew.open(vec![0, 1], echo, Some(told.hook()));
        while open.run_next(&mut sink) {
            open.drain(false, &mut sink);
        }
        // The pass ends here. The next one runs once the hook has fired.
        let mut passes_seen = 0;
        while !open.drain(false, &mut sink) {
            passes_seen = told.wait_past(passes_seen);
        }
        assert!(open.is_done());
        seen.assert_complete(2);
        lanes.close();
        let posted_by_lanes = seen
            .events
            .iter()
            .filter(|(.., ran)| *ran == Ran::Helper)
            .count();
        assert_eq!(
            told.count(),
            posted_by_lanes,
            "a lane post went un-notified"
        );
    });
    assert_clean(
        &report,
        "an owner leaving a batch open and draining when told",
    );
}

/// Two open batches of one owner: the second starts while the first may
/// still have an item out, and the owner drains both between its items.
/// A blocking drain of each — a finishing shard's — leaves nothing
/// outstanding, and every item of both ran and returned exactly once.
#[test]
fn a_second_batch_drains_the_first_and_a_finish_leaves_nothing_out() {
    let report = check_with(cfg(), || {
        let lanes = Lanes::new();
        let crew: Crew = Crew::new(Arc::clone(&lanes), 1);
        let (mut first_seen, mut second_seen) = (Seen::default(), Seen::default());
        let mut first_sink = |event, ran| first_seen.note(event, ran);
        let mut first = crew.open(vec![0, 1], echo, None);
        while first.run_next(&mut first_sink) {
            first.drain(false, &mut first_sink);
        }
        let mut second_sink = |event, ran| second_seen.note(event, ran);
        let mut second = crew.open(vec![0, 1], echo, None);
        while second.run_next(&mut second_sink) {
            first.drain(false, &mut first_sink);
            second.drain(false, &mut second_sink);
        }
        assert!(first.drain(true, &mut first_sink));
        assert!(second.drain(true, &mut second_sink));
        first_seen.assert_complete(2);
        second_seen.assert_complete(2);
        lanes.close();
    });
    assert_clean(&report, "two open batches of one owner");
}

/// The claim as a load and a store instead of one read-modify-write: two
/// claimants can read the same index.
#[derive(Default)]
struct TornCursor(AtomicUsize);

impl ClaimCursor for TornCursor {
    fn next(&self) -> usize {
        let index = self.0.load(Ordering::SeqCst);
        self.0.store(index + 1, Ordering::SeqCst);
        index
    }
}

#[test]
fn load_then_store_claim_mutant_is_caught() {
    let report = check_with(cfg(), || one_batch::<TornCursor>(1, 3));
    assert_caught(&report, "the load + store claim cursor");
}
