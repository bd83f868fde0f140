//! The reactor's deadline heap.
//!
//! The reactor ([`crate::serve`]) owns *all* time-based serving state —
//! `NeedFrame` re-request retries — in one place instead of a sleep tick
//! per shard. It never holds more than one retry per parked frame (zero on
//! every benchmark workload), so a binary heap keyed by `(deadline,
//! schedule order)` is all the structure that traffic needs: O(log n) to
//! arm, O(1) to read the next deadline, and no slots to hash into or
//! cascade between.
//!
//! Time is passed in explicitly ([`DeadlineHeap::advance`] takes `now`), so
//! the heap is deterministic under test: no hidden clock reads.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// One pending timer. Ordered so the heap's maximum is the earliest
/// deadline, ties broken by schedule order (`seq`).
struct Entry<E> {
    deadline: Instant,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

/// Pending events of type `E`, fired in deadline order (same-deadline
/// timers in the order they were scheduled) and never before their
/// deadline.
///
/// ```
/// use shadowtutor::timer::DeadlineHeap;
/// use std::time::{Duration, Instant};
///
/// let start = Instant::now();
/// let mut timers: DeadlineHeap<&str> = DeadlineHeap::new(start);
/// timers.schedule_after(Duration::from_millis(500), "need-frame retry");
/// timers.schedule_after(Duration::from_millis(5), "batch window");
/// assert_eq!(timers.next_deadline(), Some(start + Duration::from_millis(5)));
/// let fired = timers.advance(start + Duration::from_millis(10));
/// assert_eq!(fired, vec!["batch window"]);
/// assert_eq!(timers.next_deadline(), Some(start + Duration::from_millis(500)));
/// ```
pub struct DeadlineHeap<E> {
    heap: BinaryHeap<Entry<E>>,
    /// The instant of the latest [`advance`](Self::advance) — what
    /// [`schedule_after`](Self::schedule_after) measures from.
    position: Instant,
    next_seq: u64,
}

impl<E> DeadlineHeap<E> {
    /// An empty heap positioned at `start`.
    pub fn new(start: Instant) -> Self {
        DeadlineHeap {
            heap: BinaryHeap::new(),
            position: start,
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire `after` the heap's position (the latest
    /// `advance`, not the wall clock: a timer armed after a long pass is
    /// due on the very next `advance` if the pass outlasted `after`).
    pub fn schedule_after(&mut self, after: Duration, event: E) {
        self.heap.push(Entry {
            deadline: self.position + after,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// The earliest pending deadline, or `None` when nothing is scheduled.
    /// [`advance`](Self::advance)-ing to (at least) this instant fires that
    /// timer — this is what a reactor's poll timeout should be.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|entry| entry.deadline)
    }

    /// Move the position to `now` and return every event whose deadline
    /// has passed, in deadline order (ties in schedule order).
    pub fn advance(&mut self, now: Instant) -> Vec<E> {
        self.position = self.position.max(now);
        let mut due = Vec::new();
        while self.next_deadline().is_some_and(|deadline| deadline <= now) {
            due.extend(self.heap.pop().map(|entry| entry.event));
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn ms(millis: u64) -> Duration {
        Duration::from_millis(millis)
    }

    fn heap() -> (Instant, DeadlineHeap<usize>) {
        let start = Instant::now();
        (start, DeadlineHeap::new(start))
    }

    #[test]
    fn fires_in_deadline_order_with_fifo_ties() {
        let (start, mut timers) = heap();
        timers.schedule_after(ms(30), 0);
        timers.schedule_after(ms(10), 1);
        timers.schedule_after(ms(10), 2);
        timers.schedule_after(ms(20), 3);
        assert_eq!(timers.advance(start + ms(40)), vec![1, 2, 3, 0]);
        assert_eq!(timers.next_deadline(), None);
    }

    #[test]
    fn never_fires_early() {
        let (start, mut timers) = heap();
        timers.schedule_after(ms(10), 0);
        assert!(timers.advance(start + ms(5)).is_empty());
        assert!(timers
            .advance(start + ms(10) - Duration::from_nanos(1))
            .is_empty());
        assert_eq!(timers.advance(start + ms(10)), vec![0]);
    }

    #[test]
    fn next_deadline_drives_poll_timeouts() {
        let (start, mut timers) = heap();
        assert_eq!(timers.next_deadline(), None);
        timers.schedule_after(ms(50), 0);
        timers.schedule_after(ms(20), 1);
        let next = timers.next_deadline().expect("timers pending");
        assert_eq!(next, start + ms(20));
        // Advancing to the reported deadline fires the earliest timer…
        assert_eq!(timers.advance(next), vec![1]);
        // …and the survivor is next.
        assert_eq!(timers.next_deadline(), Some(start + ms(50)));
    }

    #[test]
    fn schedule_after_is_relative_to_the_wheel_position() {
        let (start, mut timers) = heap();
        timers.advance(start + ms(100));
        timers.schedule_after(ms(10), 0);
        assert!(timers.advance(start + ms(105)).is_empty());
        assert_eq!(timers.advance(start + ms(110)), vec![0]);
        // The position never moves backwards: a stale `now` neither fires
        // anything nor shortens the next timer.
        assert!(timers.advance(start + ms(50)).is_empty());
        timers.schedule_after(ms(10), 1);
        assert_eq!(timers.next_deadline(), Some(start + ms(120)));
    }

    #[test]
    fn past_deadlines_fire_on_the_next_tick() {
        let (start, mut timers) = heap();
        timers.advance(start + ms(50));
        // Armed while the clock ran on: the deadline (position + 0) is
        // already behind the next `now`.
        timers.schedule_after(Duration::ZERO, 7);
        assert_eq!(timers.advance(start + ms(51)), vec![7]);
    }

    /// Deterministic Fisher–Yates over `items`.
    fn shuffle(items: &mut [u64], seed: u64) {
        let mut rng = crate::loadgen::JitterRng::new(seed);
        for i in (1..items.len()).rev() {
            items.swap(i, (rng.unit() * (i + 1) as f64) as usize);
        }
    }

    #[test]
    fn thousand_shuffled_timers_fire_in_order_with_fifo_ties() {
        let (start, mut timers) = heap();
        // 1 000 timers over 250 distinct deadlines (four of each), armed in
        // shuffled order; the event is the arming index.
        let mut delays: Vec<u64> = (0..1_000).map(|i| 1 + i % 250).collect();
        shuffle(&mut delays, 19);
        for (i, &delay) in delays.iter().enumerate() {
            timers.schedule_after(ms(delay), i);
        }
        let mut fired: Vec<usize> = Vec::new();
        let mut now_ms = 0;
        for step in [1, 7, 30, 2, 90, 61, 59, 13] {
            now_ms += step;
            let batch = timers.advance(start + ms(now_ms));
            assert!(batch.iter().all(|&i| delays[i] <= now_ms), "early fire");
            fired.extend(batch);
            // Whatever is left is strictly in the future, earliest first.
            let pending = delays.iter().filter(|&&d| d > now_ms).min();
            assert_eq!(
                timers.next_deadline(),
                pending.map(|&d| start + ms(d)),
                "next_deadline after advancing to {now_ms} ms"
            );
        }
        assert_eq!(fired.len(), 1_000);
        // Deadline order, and arming order among equal deadlines.
        let keys: Vec<(u64, usize)> = fired.iter().map(|&i| (delays[i], i)).collect();
        assert!(keys.windows(2).all(|pair| pair[0] < pair[1]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The contract under arbitrary schedules and uneven advances:
        /// every timer fires exactly once, never early, in deadline order.
        #[test]
        fn property_no_lost_duplicate_or_early_fires(
            delays in prop::collection::vec(1u64..6_000, 1..40),
            steps in prop::collection::vec(1u64..1_500, 1..12),
        ) {
            let start = Instant::now();
            let mut timers: DeadlineHeap<usize> = DeadlineHeap::new(start);
            for (i, &d) in delays.iter().enumerate() {
                timers.schedule_after(ms(d), i);
            }
            let mut now_ms = 0u64;
            let mut fired: Vec<(u64, usize)> = Vec::new();
            for &step in &steps {
                now_ms += step;
                for event in timers.advance(start + ms(now_ms)) {
                    let deadline = delays[event];
                    prop_assert!(deadline <= now_ms,
                        "timer {} fired at {} before {}", event, now_ms, deadline);
                    fired.push((deadline, event));
                }
            }
            // Finish the clock far past every deadline.
            now_ms += 7_000;
            for event in timers.advance(start + ms(now_ms)) {
                fired.push((delays[event], event));
            }
            // No duplicates, nothing lost.
            let unique: HashSet<usize> = fired.iter().map(|&(_, e)| e).collect();
            prop_assert_eq!(unique.len(), fired.len(), "duplicate fire");
            prop_assert_eq!(fired.len(), delays.len(), "lost timer");
            prop_assert_eq!(timers.next_deadline(), None);
            // Fires arrive in global deadline order: batches concatenate in
            // time order and each batch is sorted by the heap.
            let deadlines: Vec<u64> = fired.iter().map(|&(d, _)| d).collect();
            let mut sorted = deadlines.clone();
            sorted.sort_unstable();
            prop_assert_eq!(deadlines, sorted, "fired out of deadline order");
        }
    }
}
