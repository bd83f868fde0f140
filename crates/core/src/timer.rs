//! Hierarchical timer wheel for the reactor server pool.
//!
//! The reactor ([`crate::serve`]) owns *all* time-based serving state —
//! steal patience, `NeedFrame` re-request retries — in one place: a classic
//! hashed hierarchical timer wheel ([Varghese & Lauck 1987]-style), instead
//! of a `recv_timeout` / sleep tick per shard thread. Scheduling and cancelling are O(1)-ish; advancing does
//! O(elapsed ticks) empty-slot checks plus O(k) work for the k timers it
//! fires or cascades — and skips straight to the target when no timers are
//! live — which is what makes thousands of mostly-idle timers cheap.
//!
//! The wheel has `LEVELS` levels of `SLOTS` slots each; a slot on level
//! `l` spans `SLOTS^l` ticks, so nearby deadlines sit in fine slots and far
//! deadlines in coarse ones, cascading down as time passes. Deadlines
//! beyond the top level's horizon wrap within it and are re-examined on
//! every cascade — they still fire at their exact tick, never early.
//!
//! Time is passed in explicitly ([`TimerWheel::advance`] takes `now`), so
//! the wheel is deterministic under test: no hidden clock reads.
//!
//! [Varghese & Lauck 1987]:
//!     https://dl.acm.org/doi/10.1145/41457.37504

use std::time::{Duration, Instant};

/// Slots per wheel level.
const SLOTS: u64 = 64;
/// Wheel levels; the fine-grained horizon is `SLOTS^LEVELS` ticks.
const LEVELS: usize = 4;

/// Handle for one scheduled timer, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerId(u64);

/// One pending timer: absolute deadline in ticks plus its payload. The id
/// doubles as the schedule-order tiebreaker, so same-tick timers fire in
/// the order they were scheduled.
struct TimerEntry<E> {
    id: TimerId,
    deadline_tick: u64,
    event: E,
}

/// A hierarchical timer wheel dispatching events of type `E` in deadline
/// order.
///
/// ```
/// use shadowtutor::timer::TimerWheel;
/// use std::time::{Duration, Instant};
///
/// let start = Instant::now();
/// let mut wheel: TimerWheel<&str> = TimerWheel::new(start, Duration::from_millis(1));
/// wheel.schedule_after(Duration::from_millis(5), "batch window");
/// let later = wheel.schedule_after(Duration::from_millis(500), "steal patience");
/// wheel.cancel(later);
/// let fired = wheel.advance(start + Duration::from_millis(10));
/// assert_eq!(fired.len(), 1);
/// assert_eq!(fired[0].1, "batch window");
/// assert!(wheel.is_empty());
/// ```
pub struct TimerWheel<E> {
    /// `levels[l][s]` holds entries whose deadline lands in slot `s` of
    /// level `l`.
    levels: Vec<Vec<Vec<TimerEntry<E>>>>,
    /// The wheel's epoch: tick 0.
    start: Instant,
    /// Tick resolution.
    tick: Duration,
    /// Ticks fully processed so far.
    current_tick: u64,
    /// Next timer id (and schedule-order tiebreaker).
    next_id: u64,
    /// Live (scheduled, uncancelled, unfired) timer count.
    live: usize,
    /// Cached earliest live deadline tick; `None` means "stale, rescan".
    min_deadline: Option<Option<u64>>,
}

impl<E> TimerWheel<E> {
    /// An empty wheel whose tick 0 is `start`, with `tick` resolution.
    ///
    /// Panics if `tick` is zero — a zero-width slot cannot order deadlines.
    pub fn new(start: Instant, tick: Duration) -> Self {
        assert!(!tick.is_zero(), "timer wheel tick must be non-zero");
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            start,
            tick,
            current_tick: 0,
            next_id: 0,
            live: 0,
            min_deadline: Some(None),
        }
    }

    /// Number of live timers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no timers are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Convert an instant to a tick, rounding up so a timer never fires
    /// before its deadline.
    fn tick_of(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.start);
        elapsed
            .as_nanos()
            .div_ceil(self.tick.as_nanos())
            .min(u128::from(u64::MAX)) as u64
    }

    /// Record a newly scheduled deadline in the cached minimum.
    fn note_scheduled(&mut self, deadline_tick: u64) {
        if let Some(cached) = &mut self.min_deadline {
            *cached = Some(cached.map_or(deadline_tick, |m| m.min(deadline_tick)));
        }
    }

    /// Schedule `event` to fire at `deadline` (deadlines already past fire
    /// on the next tick — never retroactively, never dropped). Returns the
    /// id to [`cancel`](TimerWheel::cancel) it with.
    pub fn schedule(&mut self, deadline: Instant, event: E) -> TimerId {
        let tick = self.tick_of(deadline).max(self.current_tick + 1);
        self.insert(tick, event)
    }

    /// Schedule `event` to fire `after` the wheel's current position.
    pub fn schedule_after(&mut self, after: Duration, event: E) -> TimerId {
        let delta = after
            .as_nanos()
            .div_ceil(self.tick.as_nanos())
            .min(u128::from(u64::MAX)) as u64;
        let tick = self
            .current_tick
            .saturating_add(delta)
            .max(self.current_tick + 1);
        self.insert(tick, event)
    }

    fn insert(&mut self, deadline_tick: u64, event: E) -> TimerId {
        let id = TimerId(self.next_id);
        self.next_id += 1;
        self.place(TimerEntry {
            id,
            deadline_tick,
            event,
        });
        self.live += 1;
        self.note_scheduled(deadline_tick);
        id
    }

    /// Drop a scheduled timer. Returns whether it was still live.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        for level in &mut self.levels {
            for slot in level.iter_mut() {
                if let Some(pos) = slot.iter().position(|e| e.id == id) {
                    slot.remove(pos);
                    self.live -= 1;
                    self.min_deadline = None; // the cached minimum may be gone
                    return true;
                }
            }
        }
        false
    }

    /// The earliest live deadline as an instant, or `None` when the wheel is
    /// empty. [`advance`](TimerWheel::advance)-ing to (at least) this instant
    /// fires that timer — this is what a reactor's poll timeout should be.
    pub fn next_deadline(&mut self) -> Option<Instant> {
        let cached = match self.min_deadline {
            Some(cached) => cached,
            None => {
                let mut min: Option<u64> = None;
                for level in &self.levels {
                    for slot in level {
                        for entry in slot {
                            min = Some(
                                min.map_or(entry.deadline_tick, |m| m.min(entry.deadline_tick)),
                            );
                        }
                    }
                }
                self.min_deadline = Some(min);
                min
            }
        };
        cached.map(|tick| self.start + self.tick.mul_f64(tick as f64))
    }

    /// Advance the wheel to `now`, returning every timer whose deadline has
    /// passed, in deadline order (ties in schedule order). Timers never fire
    /// early and are never lost or duplicated across cascades.
    pub fn advance(&mut self, now: Instant) -> Vec<(TimerId, E)> {
        let target = self.tick_of(now);
        if target <= self.current_tick {
            return Vec::new();
        }
        let mut due: Vec<TimerEntry<E>> = Vec::new();
        while self.current_tick < target {
            if self.live == 0 {
                // Nothing can fire or cascade; jump straight to the target.
                self.current_tick = target;
                break;
            }
            self.current_tick += 1;
            // Level 0 holds only deadlines within SLOTS ticks, so the slot
            // for this exact tick fires wholesale.
            let slot0 = (self.current_tick % SLOTS) as usize;
            self.live -= self.levels[0][slot0].len();
            due.append(&mut self.levels[0][slot0]);
            // Coarser levels cascade when their finer wheel wraps around.
            let mut span = SLOTS;
            for level in 1..LEVELS {
                if !self.current_tick.is_multiple_of(span) {
                    break;
                }
                let slot = ((self.current_tick / span) % SLOTS) as usize;
                let entries: Vec<TimerEntry<E>> = std::mem::take(&mut self.levels[level][slot]);
                for entry in entries {
                    if entry.deadline_tick <= self.current_tick {
                        self.live -= 1;
                        due.push(entry);
                    } else {
                        // Re-place by remaining distance; a cascade moves a
                        // timer, it never fires or drops it.
                        self.place(entry);
                    }
                }
                span *= SLOTS;
            }
        }
        if !due.is_empty() {
            // The earliest deadline just fired, so the cached minimum is
            // stale until the next rescan.
            self.min_deadline = None;
        }
        due.sort_by_key(|e| (e.deadline_tick, e.id));
        due.into_iter().map(|e| (e.id, e.event)).collect()
    }

    /// Put an entry in the finest level that can hold its remaining
    /// distance. Deadlines beyond the top level's span wrap within it; the
    /// cascade re-places them until their tick comes in range, and the
    /// `deadline_tick <= current_tick` check in [`advance`] keeps wrapped
    /// entries from firing early.
    ///
    /// [`advance`]: TimerWheel::advance
    fn place(&mut self, entry: TimerEntry<E>) {
        let delta = entry.deadline_tick - self.current_tick;
        let mut span = 1u64;
        for level in 0..LEVELS {
            if delta < span * SLOTS || level == LEVELS - 1 {
                let slot = ((entry.deadline_tick / span) % SLOTS) as usize;
                self.levels[level][slot].push(entry);
                return;
            }
            span *= SLOTS;
        }
        unreachable!("the top level accepts every delta");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn wheel() -> (Instant, TimerWheel<usize>) {
        let start = Instant::now();
        (start, TimerWheel::new(start, Duration::from_millis(1)))
    }

    #[test]
    fn fires_in_deadline_order_with_fifo_ties() {
        let (start, mut wheel) = wheel();
        wheel.schedule(start + Duration::from_millis(30), 0);
        wheel.schedule(start + Duration::from_millis(10), 1);
        wheel.schedule(start + Duration::from_millis(10), 2);
        wheel.schedule(start + Duration::from_millis(20), 3);
        assert_eq!(wheel.len(), 4);
        let fired: Vec<usize> = wheel
            .advance(start + Duration::from_millis(40))
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        assert_eq!(fired, vec![1, 2, 3, 0]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn never_fires_early() {
        let (start, mut wheel) = wheel();
        wheel.schedule(start + Duration::from_millis(10), 0);
        assert!(wheel.advance(start + Duration::from_millis(5)).is_empty());
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.advance(start + Duration::from_millis(10)).len(), 1);
    }

    #[test]
    fn cancel_drops_a_timer_and_reports_liveness() {
        let (start, mut wheel) = wheel();
        let keep = wheel.schedule(start + Duration::from_millis(5), 0);
        let gone = wheel.schedule(start + Duration::from_millis(5), 1);
        assert!(wheel.cancel(gone));
        assert!(!wheel.cancel(gone), "double cancel reports dead");
        let fired = wheel.advance(start + Duration::from_millis(10));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0], (keep, 0));
        assert!(!wheel.cancel(keep), "fired timers are dead");
    }

    #[test]
    fn next_deadline_drives_poll_timeouts() {
        let (start, mut wheel) = wheel();
        assert_eq!(wheel.next_deadline(), None);
        wheel.schedule(start + Duration::from_millis(50), 0);
        let early = wheel.schedule(start + Duration::from_millis(20), 1);
        let next = wheel.next_deadline().expect("timers live");
        assert!(next >= start + Duration::from_millis(20));
        assert!(next < start + Duration::from_millis(25));
        // Advancing to the reported deadline fires the earliest timer…
        let fired = wheel.advance(next);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0], (early, 1));
        // …and the cache recomputes to the survivor.
        let next = wheel.next_deadline().expect("one timer left");
        assert!(next >= start + Duration::from_millis(50));
    }

    #[test]
    fn far_deadlines_cascade_down_and_fire_exactly_once() {
        let (start, mut wheel) = wheel();
        // Span several levels: past level 0 (64 ticks), past level 1
        // (4096 ticks), and past level 2 (262144 ticks ≈ 262 s at 1 ms).
        let far = [70u64, 5_000, 300_000];
        let mut ids = Vec::new();
        for (i, &t) in far.iter().enumerate() {
            ids.push(wheel.schedule(start + Duration::from_millis(t), i));
        }
        // Step in uneven chunks so cascades happen mid-walk.
        let mut fired = Vec::new();
        for stop in [100u64, 4_096, 200_000, 300_001] {
            fired.extend(wheel.advance(start + Duration::from_millis(stop)));
        }
        assert_eq!(fired.len(), 3);
        assert_eq!(
            fired.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ids,
            "deadline order across cascades"
        );
        assert!(wheel.is_empty());
    }

    #[test]
    fn schedule_after_is_relative_to_the_wheel_position() {
        let (start, mut wheel) = wheel();
        wheel.advance(start + Duration::from_millis(100));
        wheel.schedule_after(Duration::from_millis(10), 0);
        assert!(wheel.advance(start + Duration::from_millis(105)).is_empty());
        assert_eq!(wheel.advance(start + Duration::from_millis(111)).len(), 1);
    }

    #[test]
    fn past_deadlines_fire_on_the_next_tick() {
        let (start, mut wheel) = wheel();
        wheel.advance(start + Duration::from_millis(50));
        wheel.schedule(start + Duration::from_millis(10), 7); // already past
        let fired = wheel.advance(start + Duration::from_millis(51));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].1, 7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The wheel's contract under arbitrary schedules, cancels and
        /// uneven advances: every surviving timer fires exactly once, never
        /// early, in deadline order; every cancelled timer never fires.
        #[test]
        fn property_no_lost_duplicate_or_early_fires(
            delays in prop::collection::vec(1u64..6_000, 1..40),
            cancel_mask in prop::collection::vec(any::<bool>(), 40..41),
            steps in prop::collection::vec(1u64..1_500, 1..12),
        ) {
            let start = Instant::now();
            let mut wheel: TimerWheel<usize> =
                TimerWheel::new(start, Duration::from_millis(1));
            let mut ids = Vec::new();
            for (i, &d) in delays.iter().enumerate() {
                ids.push((wheel.schedule(start + Duration::from_millis(d), i), d));
            }
            let mut cancelled: HashSet<usize> = HashSet::new();
            for (i, (id, _)) in ids.clone().iter().enumerate() {
                if cancel_mask[i % cancel_mask.len()] && i % 3 == 0 {
                    prop_assert!(wheel.cancel(*id));
                    cancelled.insert(i);
                }
            }
            let mut now_ms = 0u64;
            let mut fired: Vec<(u64, usize)> = Vec::new();
            for &step in &steps {
                now_ms += step;
                for (id, event) in wheel.advance(start + Duration::from_millis(now_ms)) {
                    let (expected_id, deadline) = ids[event];
                    // Never early (tick rounding is up, so deadline ≤ now).
                    prop_assert!(deadline <= now_ms,
                        "timer {} fired at {} before {}", event, now_ms, deadline);
                    prop_assert_eq!(expected_id, id);
                    fired.push((deadline, event));
                }
            }
            // Finish the clock far past every deadline.
            now_ms += 7_000;
            for (_, event) in wheel.advance(start + Duration::from_millis(now_ms)) {
                fired.push((ids[event].1, event));
            }
            // No duplicates, no cancelled fires, nothing lost.
            let unique: HashSet<usize> = fired.iter().map(|&(_, e)| e).collect();
            prop_assert_eq!(unique.len(), fired.len(), "duplicate fire");
            for &(_, event) in &fired {
                prop_assert!(!cancelled.contains(&event), "cancelled timer fired");
            }
            prop_assert_eq!(fired.len(), delays.len() - cancelled.len(), "lost timer");
            prop_assert!(wheel.is_empty());
            // Fires arrive in global deadline order: batches concatenate in
            // time order and each batch is sorted by the wheel.
            let deadlines: Vec<u64> = fired.iter().map(|&(d, _)| d).collect();
            let mut sorted = deadlines.clone();
            sorted.sort_unstable();
            prop_assert_eq!(deadlines, sorted, "fired out of deadline order");
        }
    }
}
