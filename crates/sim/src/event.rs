//! The indexed discrete-event core.
//!
//! Events are ordered by `(time, sequence number)`; the sequence number is
//! a monotone counter assigned at push time, which makes simultaneous
//! events pop in insertion order and the whole simulation
//! bit-deterministic.
//!
//! Storage is an index-based arena plus a keyed heap, the layout
//! dslab-style discrete-event engines use to push millions of events per
//! second:
//!
//! * event payloads live in a pre-sizable slab (`Vec<Event>` + free list)
//!   and are addressed by `u32` handles — no per-event boxing, and slots
//!   are recycled so the arena stays at peak-queue-length size;
//! * the heap itself is a flat 4-ary min-heap over `(key, handle)` pairs,
//!   where the key packs `(time, seq)` into one `u128` — sift operations
//!   compare a single integer and move small fixed-size entries, instead
//!   of comparing tuple-of-struct `Queued` records.
//!
//! The proptest suite pins pop order against a `BinaryHeap` reference
//! model, ties included.

use llmsched_dag::time::SimTime;

/// An event in the cluster simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Job `job` (dense engine index) arrives.
    Arrival {
        /// Dense index into the engine's job table.
        job: usize,
    },
    /// A task finishes. `epoch` invalidates stale finish events after an
    /// LLM batch-size change re-timed the task.
    TaskFinish {
        /// Dense job index.
        job: usize,
        /// Stage id within the job.
        stage: u32,
        /// Task index within the stage.
        task: u32,
        /// Task re-timing epoch the event was scheduled under.
        epoch: u32,
    },
    /// A backend-posted wake-up for LLM executor `exec` (e.g. a decode
    /// iteration boundary in the token-level backend). Routed to
    /// [`ExecutorBackend::step`](crate::exec::ExecutorBackend::step).
    LlmStep {
        /// LLM executor index.
        exec: usize,
        /// Backend step epoch the event was scheduled under; mismatching
        /// epochs mark the event stale.
        epoch: u64,
    },
}

/// One heap entry: the packed `(time, seq)` ordering key plus the arena
/// handle of the payload.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u128,
    slot: u32,
}

/// Branching factor of the flat heap. Four children per node keeps the
/// tree shallow and sift-down reads within one cache line of entries.
const ARITY: usize = 4;

/// A deterministic min-queue of timestamped events: slab arena + 4-ary
/// keyed heap.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: Vec<Entry>,
    arena: Vec<Event>,
    free: Vec<u32>,
    seq: u64,
}

#[inline]
fn key_of(time: SimTime, seq: u64) -> u128 {
    ((time.0 as u128) << 64) | seq as u128
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with room for `cap` simultaneous events
    /// before any reallocation.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            arena: Vec::with_capacity(cap),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let key = key_of(time, self.seq);
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.arena[s as usize] = event;
                s
            }
            None => {
                self.arena.push(event);
                u32::try_from(self.arena.len() - 1).expect("event arena larger than u32::MAX")
            }
        };
        self.heap.push(Entry { key, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        self.free.push(top.slot);
        let time = SimTime((top.key >> 64) as u64);
        Some((time, self.arena[top.slot as usize]))
    }

    /// The timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| SimTime((e.key >> 64) as u64))
    }

    /// Number of pending events (including stale ones awaiting lazy
    /// invalidation).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn sift_up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key <= e.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = e;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let e = self.heap[i];
        loop {
            let first = i * ARITY + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let last = (first + ARITY).min(n);
            for c in first + 1..last {
                if self.heap[c].key < self.heap[min].key {
                    min = c;
                }
            }
            if self.heap[min].key >= e.key {
                break;
            }
            self.heap[i] = self.heap[min];
            i = min;
        }
        self.heap[i] = e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(2.0), Event::Arrival { job: 2 });
        q.push(t(1.0), Event::Arrival { job: 1 });
        q.push(t(3.0), Event::Arrival { job: 3 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival { job } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_in_push_order() {
        let mut q = EventQueue::new();
        for job in 0..10 {
            q.push(t(1.0), Event::Arrival { job });
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival { job } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(t(5.0), Event::LlmStep { exec: 0, epoch: 0 });
        assert_eq!(q.peek_time(), Some(t(5.0)));
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn arena_slots_recycle() {
        let mut q = EventQueue::with_capacity(4);
        for round in 0..100u64 {
            for job in 0..4 {
                q.push(t(round as f64 + job as f64 * 0.1), Event::Arrival { job });
            }
            for _ in 0..4 {
                q.pop();
            }
        }
        assert!(q.is_empty());
        assert!(
            q.arena.len() <= 8,
            "recycled slab should stay near the peak queue length, got {}",
            q.arena.len()
        );
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), Event::Arrival { job: 3 });
        q.push(t(1.0), Event::Arrival { job: 1 });
        assert_eq!(q.pop().map(|(tm, _)| tm), Some(t(1.0)));
        q.push(t(2.0), Event::Arrival { job: 2 });
        q.push(t(1.5), Event::Arrival { job: 15 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrival { job } => job,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![15, 2, 3]);
    }
}
