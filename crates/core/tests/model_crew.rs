//! Model-checking the distill crew's hand-off.
//!
//! [`Crew`] is generic over its payloads, so these tests drive the
//! *production* protocol — the claim cursor, the offer queue and the
//! completion queue `serve::ServeShard` runs every batch through — with
//! integers for work items under the `st_check` model checker. The
//! properties are the ones a shard stakes its sessions on (an item *owns*
//! its stream's session while it runs):
//!
//! * **Claimed exactly once**: no interleaving of the owner and the helpers
//!   runs an item twice or skips one.
//! * **Returned exactly once, progress first**: every claimed item's return
//!   value reaches the owner's sink once, after everything the item emitted.
//! * **Nothing outstanding**: `run_batch` never returns while a helper still
//!   holds an item — the owner drains completions *while helpers run* and
//!   blocks for the rest.
//!
//! The mutant swaps the cursor's read-modify-write for a load and a store
//! (through [`ClaimCursor`], the production code is untouched) and requires
//! the checker to find the double claim.
#![cfg(feature = "model-check")]

use std::sync::{Arc, Mutex};

use shadowtutor::serve::crew::{ClaimCursor, Crew, Event, Ran};
use st_check::model::{check_with, Config, Report};
use st_check::sync::{thread, AtomicUsize, Ordering};

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

/// One batch of `items` items through a crew with `helper_count` helpers,
/// cursor `K`. `runs[i]` counts how often item `i` was actually run.
fn one_batch<K: ClaimCursor + 'static>(helper_count: usize, items: usize) {
    let crew: Arc<Crew<usize, usize, usize, K>> = Arc::new(Crew::new(helper_count));
    let runs: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(vec![0; items]));
    let work = {
        let runs = Arc::clone(&runs);
        move |item: usize, _ran: Ran, emit: &mut dyn FnMut(usize)| {
            runs.lock().unwrap()[item] += 1;
            emit(item);
            item
        }
    };
    let threads: Vec<_> = (0..helper_count)
        .map(|_| {
            let (crew, work) = (Arc::clone(&crew), work.clone());
            thread::spawn(move || crew.help(work))
        })
        .collect();
    let mut seen = Seen::default();
    crew.run_batch((0..items).collect(), &work, |event, ran| {
        seen.note(event, ran)
    });
    // The moment `run_batch` returns, nothing is outstanding: every item
    // ran once and came back once, whoever ran it.
    assert_eq!(*runs.lock().unwrap(), vec![1; items], "claim counts");
    seen.assert_complete(items);
    // The first-scheduled item is always the owner's own.
    assert_eq!(seen.events[0], (false, 0, Ran::Owner));
    crew.close();
    for helper in threads {
        helper.join().expect("join helper");
    }
}

#[test]
fn one_helper_claims_beside_the_owner_exactly_once() {
    let report = check_with(cfg(), || one_batch::<AtomicUsize>(1, 3));
    assert_clean(&report, "owner + one helper over three items");
}

#[test]
fn two_helpers_race_the_owner_for_the_last_item() {
    let report = check_with(cfg(), || one_batch::<AtomicUsize>(2, 2));
    assert_clean(&report, "owner + two helpers over two items");
}

/// The crew is pool-wide: two owners (two shards mid-pass on two reactor
/// workers) share one helper. Each batch still completes on its own — the
/// helper serves whichever offer it pops, an owner whose offer goes unheard
/// runs everything itself.
#[test]
fn two_owners_share_one_helper() {
    let report = check_with(cfg(), || {
        let crew: Arc<Crew<usize, usize, usize>> = Arc::new(Crew::new(1));
        let work = |item: usize, _ran: Ran, emit: &mut dyn FnMut(usize)| {
            emit(item);
            item
        };
        let helper = {
            let crew = Arc::clone(&crew);
            thread::spawn(move || crew.help(work))
        };
        let other = {
            let crew = Arc::clone(&crew);
            thread::spawn(move || {
                let mut seen = Seen::default();
                crew.run_batch(vec![0, 1], work, |event, ran| seen.note(event, ran));
                seen.assert_complete(2);
            })
        };
        let mut seen = Seen::default();
        crew.run_batch(vec![0, 1], work, |event, ran| seen.note(event, ran));
        seen.assert_complete(2);
        other.join().expect("join the other owner");
        crew.close();
        helper.join().expect("join helper");
    });
    assert_clean(&report, "two owners sharing one helper");
}

/// A batch of one — and any batch on a crew without helpers — is never
/// offered: the owner runs it alone, and a parked helper is not woken (it
/// is still parked when the crew closes, so the close alone must release
/// it).
#[test]
fn a_batch_of_one_is_the_owners_alone() {
    let report = check_with(cfg(), || {
        let crew: Arc<Crew<usize, usize, usize>> = Arc::new(Crew::new(1));
        let work = |item: usize, ran: Ran, emit: &mut dyn FnMut(usize)| {
            assert_eq!(ran, Ran::Owner, "a helper ran an unshared batch");
            emit(item);
            item
        };
        let helper = {
            let crew = Arc::clone(&crew);
            thread::spawn(move || crew.help(work))
        };
        assert!(!crew.shares(1) && crew.shares(2));
        let mut seen = Seen::default();
        crew.run_batch(vec![0], work, |event, ran| seen.note(event, ran));
        seen.assert_complete(1);
        crew.close();
        helper.join().expect("join helper");
    });
    assert_clean(&report, "the unshared batch");
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
