//! Cycle-stamped protocol events and the [`EventLogProbe`] that collects
//! them, used to replay the paper's illustrative timelines (Figures 1
//! and 4) and to debug protocol behaviour.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use cohort_types::{Cycles, LineAddr, TimerValue};

use crate::coherence::ReqKind;
use crate::probe::SimProbe;

/// Why a private-cache line was removed or demoted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InvalidateCause {
    /// Another core's GetM stole the line (after the timer released it).
    Stolen,
    /// An inclusive-LLC eviction back-invalidated the line.
    BackInvalidation,
    /// The core's own replacement policy evicted the line.
    Replacement,
}

/// One logged event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// An access hit in the private cache.
    Hit {
        /// Accessing core.
        core: usize,
        /// The line.
        line: LineAddr,
    },
    /// A miss was issued to the memory system.
    MissIssued {
        /// Requesting core.
        core: usize,
        /// The line.
        line: LineAddr,
        /// GetS or GetM.
        kind: ReqKind,
    },
    /// A request broadcast occupied the bus.
    Broadcast {
        /// Requesting core.
        core: usize,
        /// The line.
        line: LineAddr,
        /// GetS or GetM.
        kind: ReqKind,
    },
    /// A data transfer started.
    TransferStart {
        /// Supplying core, or `None` for the shared memory.
        from: Option<usize>,
        /// Receiving core.
        to: usize,
        /// The line.
        line: LineAddr,
    },
    /// A data transfer completed; the requester filled the line.
    Fill {
        /// Receiving core.
        core: usize,
        /// The line.
        line: LineAddr,
        /// GetS or GetM (granted state).
        kind: ReqKind,
        /// Request latency, issue to fill.
        latency: Cycles,
    },
    /// A Modified owner was demoted to Shared by a GetS.
    Downgrade {
        /// Demoted core.
        core: usize,
        /// The line.
        line: LineAddr,
    },
    /// A line left a private cache.
    Invalidate {
        /// The dispossessed core.
        core: usize,
        /// The line.
        line: LineAddr,
        /// Why.
        cause: InvalidateCause,
    },
    /// The timer registers were re-programmed (mode switch).
    TimerSwitch {
        /// The new per-core θ values.
        timers: Vec<TimerValue>,
    },
}

/// A cycle-stamped event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Cycle at which the event occurred.
    pub cycle: Cycles,
    /// What happened.
    pub kind: EventKind,
}

/// A [`SimProbe`] that collects the full [`Event`] stream in chronological
/// order — the probe-API successor of the engine's old built-in event log.
///
/// By default the log is unbounded; [`EventLogProbe::with_capacity`]
/// bounds it to a ring buffer that keeps the **most recent** events and
/// counts the rest as dropped, so long kernels can run with a
/// flight-recorder window instead of millions of retained events.
///
/// # Examples
///
/// ```
/// use cohort_sim::{EventKind, EventLogProbe, SimBuilder, SimConfig};
/// use cohort_trace::micro;
///
/// let config = SimConfig::builder(2).build()?;
/// let mut probe = EventLogProbe::new();
/// let mut sim = SimBuilder::new(config, &micro::ping_pong(2, 4)).probe(&mut probe).build()?;
/// sim.run()?;
/// assert!(probe.iter().any(|e| matches!(e.kind, EventKind::Fill { .. })));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventLogProbe {
    events: VecDeque<Event>,
    capacity: Option<usize>,
    dropped: u64,
}

impl EventLogProbe {
    /// Creates an unbounded log.
    #[must_use]
    pub fn new() -> Self {
        EventLogProbe::default()
    }

    /// Creates a ring-buffered log keeping at most `capacity` events; once
    /// full, each new event drops the oldest one.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventLogProbe {
            events: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// Records an event, keeping the log chronological. Fused transactions
    /// stamp their data-transfer start a few cycles ahead of the grant
    /// instant, so an event may arrive slightly out of order; the
    /// insertion scan is O(1) amortised because the stream is nearly
    /// sorted.
    pub fn record(&mut self, cycle: Cycles, kind: EventKind) {
        if self.capacity == Some(0) {
            self.dropped += 1;
            return;
        }
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
        let mut index = self.events.len();
        while index > 0 && self.events[index - 1].cycle > cycle {
            index -= 1;
        }
        self.events.insert(index, Event { cycle, kind });
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The ring capacity, or `None` for an unbounded log.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of events dropped by the ring buffer (0 when unbounded).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over the retained events in chronological order.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Clones the retained events into a contiguous chronological slice
    /// (what [`render_timeline`](crate::render_timeline) consumes).
    #[must_use]
    pub fn to_vec(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// Consumes the probe, returning the retained events.
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        self.events.into()
    }
}

impl<'a> IntoIterator for &'a EventLogProbe {
    type Item = &'a Event;
    type IntoIter = std::collections::vec_deque::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl SimProbe for EventLogProbe {
    fn on_event(&mut self, cycle: Cycles, kind: &EventKind) {
        self.record(cycle, kind.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(core: usize) -> EventKind {
        EventKind::Hit { core, line: LineAddr::new(1) }
    }

    #[test]
    fn unbounded_log_records_in_order() {
        let mut log = EventLogProbe::new();
        log.record(Cycles::new(1), hit(0));
        log.record(
            Cycles::new(2),
            EventKind::Invalidate {
                core: 0,
                line: LineAddr::new(1),
                cause: InvalidateCause::Stolen,
            },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.iter().next().unwrap().cycle.get(), 1);
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.capacity(), None);
    }

    #[test]
    fn near_sorted_insertion_restores_chronology() {
        let mut log = EventLogProbe::new();
        log.record(Cycles::new(10), hit(0));
        log.record(Cycles::new(4), hit(1)); // fused stamp arriving late
        log.record(Cycles::new(10), hit(2));
        let cycles: Vec<u64> = log.iter().map(|e| e.cycle.get()).collect();
        assert_eq!(cycles, [4, 10, 10]);
    }

    #[test]
    fn ring_buffer_keeps_the_most_recent_events() {
        let mut log = EventLogProbe::with_capacity(3);
        for c in 0..10 {
            log.record(Cycles::new(c), hit(c as usize));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 7);
        let cycles: Vec<u64> = log.to_vec().iter().map(|e| e.cycle.get()).collect();
        assert_eq!(cycles, [7, 8, 9]);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut log = EventLogProbe::with_capacity(0);
        log.record(Cycles::ZERO, hit(0));
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn into_events_returns_chronological_vec() {
        let mut log = EventLogProbe::new();
        log.record(Cycles::new(5), hit(0));
        log.record(Cycles::new(3), hit(1));
        let events = log.into_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].cycle <= events[1].cycle);
    }
}
