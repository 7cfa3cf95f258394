//! Discrete-event simulation kernel.
//!
//! A minimal, allocation-light scheduler: events are arbitrary payloads
//! ordered by a microsecond virtual clock, with a monotonically increasing
//! sequence number breaking ties so that simultaneous events dequeue in FIFO
//! order. Determinism of the whole laboratory hangs on that tie-break — a
//! plain `BinaryHeap<(time, payload)>` would dequeue simultaneous events in
//! an order depending on heap internals.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in microseconds since simulation start.
pub type SimTime = u64;

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A time-ordered event queue with a virtual clock.
///
/// The clock advances to each event's timestamp as it is popped; scheduling
/// an event in the past is a logic error and panics (it would silently
/// reorder causality otherwise).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at 0.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), now: 0, seq: 0 }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "scheduling into the past: at={at} now={}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { time: at, seq, payload }));
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(s)| {
            self.now = s.time;
            (s.time, s.payload)
        })
    }

    /// Drain and drop all pending events (clock is unchanged).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(100, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 100);
        q.schedule_at(150, ());
        assert_eq!(q.pop(), Some((150, ())));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule_at(100, ());
        q.pop();
        q.schedule_at(50, ());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule_at(5, ());
        q.schedule_at(6, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
