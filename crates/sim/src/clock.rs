//! Virtual clock and event accounting.

/// What a span of virtual time was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Student inference on the client (`t_si`).
    StudentInference,
    /// One student distillation step on the server (`t_sd`).
    DistillStep,
    /// Teacher inference on the server (`t_ti`).
    TeacherInference,
    /// Network transfer (up or down).
    NetworkTransfer,
    /// Client idling while waiting for an in-flight student update.
    WaitForUpdate,
    /// Anything else (setup, bookkeeping).
    Other,
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Start time in seconds of virtual time.
    pub start: f64,
    /// Duration in seconds.
    pub duration: f64,
    /// What the time was spent on.
    pub kind: EventKind,
}

/// An append-only log of events.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// All events in insertion order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Total virtual time attributed to a kind.
    #[cfg(test)]
    fn total_for(&self, kind: EventKind) -> f64 {
        self.events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.duration)
            .sum()
    }

    /// Number of events of a kind.
    #[cfg(test)]
    fn count_for(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// A monotonically advancing virtual clock.
///
/// The clock never reads the host's wall clock; callers advance it by the
/// modelled duration of each operation. `advance_to` supports modelling
/// overlap: an asynchronous completion that happened "in the background" can
/// move the clock forward only if it finishes later than the foreground work.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now: f64,
    log: EventLog,
}

impl VirtualClock {
    /// A clock at time zero with an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advance by `duration` seconds, recording the event.
    pub fn advance(&mut self, duration: f64, kind: EventKind) {
        assert!(duration >= 0.0, "cannot advance by negative time");
        self.log.push(Event {
            start: self.now,
            duration,
            kind,
        });
        self.now += duration;
    }

    /// Advance to an absolute time if it is in the future (no-op otherwise).
    /// Records the waited duration under `kind`. Returns the wait duration.
    pub fn advance_to(&mut self, time: f64, kind: EventKind) -> f64 {
        if time > self.now {
            let wait = time - self.now;
            self.advance(wait, kind);
            wait
        } else {
            0.0
        }
    }

    /// The event log accumulated so far.
    pub fn log(&self) -> &EventLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_and_logs() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(0.143, EventKind::StudentInference);
        c.advance(0.013, EventKind::DistillStep);
        c.advance(0.143, EventKind::StudentInference);
        assert!((c.now() - 0.299).abs() < 1e-12);
        assert_eq!(c.log().count_for(EventKind::StudentInference), 2);
        assert!((c.log().total_for(EventKind::StudentInference) - 0.286).abs() < 1e-12);
        assert_eq!(c.log().count_for(EventKind::TeacherInference), 0);
    }

    #[test]
    fn advance_to_only_moves_forward() {
        let mut c = VirtualClock::new();
        c.advance(1.0, EventKind::Other);
        let waited = c.advance_to(0.5, EventKind::WaitForUpdate);
        assert_eq!(waited, 0.0);
        assert_eq!(c.now(), 1.0);
        let waited = c.advance_to(1.75, EventKind::WaitForUpdate);
        assert!((waited - 0.75).abs() < 1e-12);
        assert!((c.now() - 1.75).abs() < 1e-12);
        assert_eq!(c.log().count_for(EventKind::WaitForUpdate), 1);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_advance_panics() {
        VirtualClock::new().advance(-1.0, EventKind::Other);
    }

    #[test]
    fn event_log_totals() {
        let mut log = EventLog::new();
        log.push(Event {
            start: 0.0,
            duration: 2.0,
            kind: EventKind::NetworkTransfer,
        });
        log.push(Event {
            start: 2.0,
            duration: 3.0,
            kind: EventKind::NetworkTransfer,
        });
        assert_eq!(log.total_for(EventKind::NetworkTransfer), 5.0);
        assert_eq!(log.events().len(), 2);
    }
}
