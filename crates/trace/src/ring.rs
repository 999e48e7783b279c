//! Bounded per-thread event rings with overwrite-oldest (flight-recorder)
//! semantics.
//!
//! Each ring is a `Mutex<VecDeque<Event>>` with one producer — the thread
//! that owns it (the thread-local handle in [`crate::local`] is the only
//! push path) — and any number of snapshot readers. The lock is
//! uncontended except while a snapshot copies the ring out, so a push is
//! an uncontended lock plus a deque push. When the ring is full the oldest
//! event is dropped, which is exactly the flight-recorder contract: after
//! a long run you hold the *most recent* `capacity` events plus an exact
//! count of how many were aged out.
//!
//! A snapshot holds the lock while it clones, so it always returns a
//! contiguous, in-order window of the producer's events, even while the
//! producer keeps pushing. Taken at quiescence (producers parked or
//! joined — how both `eblow-eval trace` and the test suite use it), it is
//! also complete.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::Event;

/// A bounded single-producer event ring. See the module docs.
pub(crate) struct Ring {
    capacity: usize,
    state: Mutex<RingState>,
}

struct RingState {
    /// Retained events, oldest first; never longer than the capacity.
    events: VecDeque<Event>,
    /// Events aged out so far.
    dropped: u64,
}

impl Ring {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(8),
            state: Mutex::new(RingState {
                events: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// Appends an event, dropping the oldest if the ring is full.
    pub(crate) fn push(&self, event: Event) {
        // No update below can leave the ring invalid, so a lock poisoned by
        // a panicking thread is safe to recover: recording never panics.
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(event);
    }

    /// Copies out the retained events in push order, plus the number of
    /// events that were aged out before this snapshot.
    pub(crate) fn snapshot(&self) -> (Vec<Event>, u64) {
        let state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        (state.events.iter().cloned().collect(), state.dropped)
    }

    /// Total number of events ever pushed.
    #[cfg(test)]
    pub(crate) fn pushed(&self) -> u64 {
        let state = self.state.lock().unwrap();
        state.dropped + state.events.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn ev(n: u64) -> Event {
        Event {
            ts_ns: n,
            kind: EventKind::Instant,
            name: "t",
            a: n as i64,
            b: 0,
            detail: Some(format!("detail-{n}").into_boxed_str()),
        }
    }

    #[test]
    fn keeps_everything_below_capacity() {
        let ring = Ring::with_capacity(16);
        for n in 0..10 {
            ring.push(ev(n));
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 10);
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wraparound_keeps_the_most_recent_events() {
        let ring = Ring::with_capacity(8);
        for n in 0..30 {
            ring.push(ev(n));
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(ring.pushed(), 30);
        assert_eq!(dropped, 22, "30 pushed into 8 slots ages out 22");
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<_>>(),
            (22..30).collect::<Vec<_>>(),
            "retained window is the newest `capacity` events, in order"
        );
        // Each survivor still owns its own heap detail.
        for e in &events {
            assert_eq!(
                e.detail.as_deref(),
                Some(format!("detail-{}", e.a).as_str())
            );
        }
    }

    #[test]
    fn wraparound_at_exact_multiples_of_capacity() {
        let ring = Ring::with_capacity(8);
        for n in 0..16 {
            ring.push(ev(n));
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(dropped, 8);
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<_>>(),
            (8..16).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_ring_snapshots_empty() {
        let ring = Ring::with_capacity(8);
        let (events, dropped) = ring.snapshot();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }
}
