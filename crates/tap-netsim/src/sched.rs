//! The calendar-queue scheduler: O(1) amortized push/pop for the event
//! kernel, with arena-allocated pending envelopes and explicit sequence
//! numbers.
//!
//! # Why not a binary heap
//!
//! `BinaryHeap` push/pop is O(log n); with millions of in-flight
//! transfers the log factor plus the per-entry
//! allocation traffic dominates the event loop. A calendar queue exploits
//! the shape of netsim's delay distribution — arrivals cluster within a
//! bounded horizon (serialization + [1 ms, 230 ms] propagation), with a
//! thin tail of far-future watchdog timers — to make both operations O(1)
//! amortized: events hash into time buckets of fixed width, and the pop
//! cursor sweeps the buckets in time order, staging only one bucket-width
//! of events at a time into a small ready heap.
//!
//! # Ordering invariant (documented, not incidental)
//!
//! Every event carries an [`EventKey`]: its timestamp plus a **monotone
//! sequence number** assigned at push time. Events pop in `(at, seq)`
//! order, so events scheduled for the *same instant* pop in push (FIFO)
//! order. This is the tie-break contract the whole simulator builds on: a
//! run's event order is a pure function of the order its handlers pushed
//! in, so one seed replays one history. It is pinned by unit tests and by a
//! proptest that replays random workloads through a reference binary heap.
//!
//! # Arena allocation
//!
//! Payload envelopes live in a slab arena (`Vec` + free list), so a
//! million in-flight messages reuse a contiguous allocation instead of
//! churning the global allocator, and bucket entries are three words.
//! Cancellation (`CalendarQueue::cancel`) frees the arena slot
//! immediately and lazily skips the stale bucket entry — which is what
//! makes cancellable watchdog timers (`tap-core`'s netdrive) cheap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The total order events pop in: timestamp, then the monotone sequence
/// number assigned at push. Two events never share a key, so the order is
/// total and FIFO at equal timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// When the event is scheduled to occur.
    pub at: SimTime,
    /// Push-order tie-break: strictly monotone within a queue.
    pub seq: u64,
}

/// A handle to a scheduled event, for cancelling it before it pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at_us: u64,
    seq: u64,
    slot: u32,
}

/// `ready`'s heap element: reverses [`EventKey`] order so the max-heap
/// behaves as a min-heap (queue minimum at `peek()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Staged(Entry);

impl Ord for Staged {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

impl PartialOrd for Staged {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Entry {
    fn key(&self) -> EventKey {
        EventKey {
            at: SimTime::from_micros(self.at_us),
            seq: self.seq,
        }
    }
}

struct Slot<M> {
    /// Sequence number of the event currently occupying the slot; bucket
    /// entries whose `seq` mismatches are stale (cancelled or popped) and
    /// are skipped at harvest. Sequence numbers are never reused, so a
    /// match is proof of identity.
    seq: u64,
    payload: Option<M>,
}

/// Bucket width: 1 ms, the smallest latency the paper models —
/// same-bucket events are one propagation quantum apart at most.
const WIDTH_US: u64 = 1_000;
/// Initial bucket count (grows by doubling as the queue fills).
const INITIAL_BUCKETS: usize = 32;
/// Resize when the live count exceeds this many events per bucket.
const RESIZE_LOAD: usize = 8;

/// A bucketed calendar queue over [`SimTime`], generic in the payload.
///
/// See the module docs for the design; the API contract is:
///
/// * [`CalendarQueue::push`] schedules a payload at a time and returns a
///   cancellation handle; keys are assigned monotonically.
/// * [`CalendarQueue::pop`] returns the minimum-key event.
/// * [`CalendarQueue::peek`] is `&self` and O(1): the next key is always
///   staged.
/// * Times may be arbitrary (past pushes pop immediately, far futures are
///   reached by cursor jump), but simulation kernels push monotonically.
pub struct CalendarQueue<M> {
    buckets: Vec<Vec<Entry>>,
    /// Entries with `at_us < horizon_us`, as a min-heap by key; the queue
    /// minimum is `ready.peek()`. Non-empty whenever `len > 0`. A heap
    /// (not a sorted vec) so that staging an out-of-order push costs
    /// O(log k), not an O(k) memmove.
    ready: BinaryHeap<Staged>,
    /// Everything strictly before this instant has been staged to `ready`.
    horizon_us: u64,
    /// The bucket covering `[horizon_us, horizon_us + WIDTH_US)`.
    cursor: usize,
    arena: Vec<Slot<M>>,
    free: Vec<u32>,
    len: usize,
    next_seq: u64,
}

impl<M> Default for CalendarQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> CalendarQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            ready: BinaryHeap::new(),
            horizon_us: 0,
            cursor: 0,
            arena: Vec::new(),
            free: Vec::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Live (schedulable) events in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key of the next event to pop, if any. O(1).
    pub fn peek(&self) -> Option<EventKey> {
        debug_assert_eq!(self.ready.is_empty(), self.len == 0, "ready staged");
        self.ready.peek().map(|s| s.0.key())
    }

    /// Schedule `payload` at `at` under the next monotone sequence number.
    pub fn push(&mut self, at: SimTime, payload: M) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(at, seq, payload)
    }

    fn insert(&mut self, at: SimTime, seq: u64, payload: M) -> EventHandle {
        let slot = match self.free.pop() {
            Some(s) => {
                self.arena[s as usize] = Slot {
                    seq,
                    payload: Some(payload),
                };
                s
            }
            None => {
                let s = u32::try_from(self.arena.len()).expect("arena outgrew u32 slots");
                self.arena.push(Slot {
                    seq,
                    payload: Some(payload),
                });
                s
            }
        };
        let entry = Entry {
            at_us: at.as_micros(),
            seq,
            slot,
        };
        self.len += 1;
        if entry.at_us < self.horizon_us || (self.len == 1 && self.ready.is_empty()) {
            // Lands inside (or forms) the staged window.
            self.ready.push(Staged(entry));
            if self.len == 1 {
                // Fresh staging: align the sweep to this event.
                self.align_to(entry.at_us);
            }
        } else {
            let b = self.bucket_of(entry.at_us);
            self.buckets[b].push(entry);
            self.maybe_grow();
            self.settle();
        }
        EventHandle { slot, seq }
    }

    /// Remove a scheduled event, returning its payload. `None` when the
    /// event already popped or was already cancelled (the handle is stale).
    pub(crate) fn cancel(&mut self, handle: EventHandle) -> Option<M> {
        let slot = self.arena.get_mut(handle.slot as usize)?;
        if slot.seq != handle.seq {
            return None;
        }
        let payload = slot.payload.take()?;
        slot.seq = u64::MAX; // no live entry may match again
        self.free.push(handle.slot);
        self.len -= 1;
        // A staged entry must leave `ready` eagerly so peek stays honest;
        // bucket entries are skipped lazily at harvest.
        if self.ready.iter().any(|s| s.0.seq == handle.seq) {
            self.ready.retain(|s| s.0.seq != handle.seq);
        }
        self.settle();
        Some(payload)
    }

    /// Pop the minimum-key event.
    pub fn pop(&mut self) -> Option<(EventKey, M)> {
        let Staged(entry) = self.ready.pop()?;
        let key = entry.key();
        let slot = &mut self.arena[entry.slot as usize];
        debug_assert_eq!(slot.seq, entry.seq, "staged entries are live");
        let payload = slot.payload.take().expect("staged entries carry payloads");
        slot.seq = u64::MAX;
        self.free.push(entry.slot);
        self.len -= 1;
        self.settle();
        Some((key, payload))
    }

    fn bucket_of(&self, at_us: u64) -> usize {
        ((at_us / WIDTH_US) % self.buckets.len() as u64) as usize
    }

    /// Point the sweep at the bucket containing `at_us`.
    fn align_to(&mut self, at_us: u64) {
        self.horizon_us = (at_us / WIDTH_US + 1) * WIDTH_US;
        self.cursor = self.bucket_of(self.horizon_us);
    }

    /// Restore the invariant: whenever live events remain, the next one is
    /// staged in `ready`. Sweeps buckets forward one width at a time; if a
    /// full rotation turns up nothing (the next event is more than one
    /// wheel revolution away), jumps the cursor straight to the global
    /// minimum instead of spinning.
    fn settle(&mut self) {
        let mut scanned = 0usize;
        while self.ready.is_empty() && self.len > 0 {
            if scanned >= self.buckets.len() {
                let min = self
                    .bucket_min()
                    .expect("len > 0 with empty ready implies a bucketed event");
                self.horizon_us = (min / WIDTH_US) * WIDTH_US;
                self.cursor = self.bucket_of(self.horizon_us);
                scanned = 0;
            }
            self.harvest_one();
            scanned += 1;
        }
    }

    /// Stage the cursor bucket's current-rotation events and advance.
    fn harvest_one(&mut self) {
        let end = self.horizon_us + WIDTH_US;
        let bucket = &mut self.buckets[self.cursor];
        let mut i = 0;
        while i < bucket.len() {
            let e = bucket[i];
            if self.arena[e.slot as usize].seq != e.seq {
                bucket.swap_remove(i); // stale: cancelled or long popped
                continue;
            }
            if e.at_us < end {
                bucket.swap_remove(i);
                self.ready.push(Staged(e));
                continue;
            }
            i += 1;
        }
        self.horizon_us = end;
        self.cursor = (self.cursor + 1) % self.buckets.len();
    }

    /// Minimum live timestamp across all buckets (O(n); used only for the
    /// far-future cursor jump).
    fn bucket_min(&self) -> Option<u64> {
        self.buckets
            .iter()
            .flatten()
            .filter(|e| self.arena[e.slot as usize].seq == e.seq)
            .map(|e| e.at_us)
            .min()
    }

    /// Double the bucket count once the live population outgrows the
    /// wheel, rebucketing every pending entry. Amortized O(1) per push.
    fn maybe_grow(&mut self) {
        if self.len <= RESIZE_LOAD * self.buckets.len() {
            return;
        }
        let old: Vec<Entry> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let doubled = self.buckets.len() * 2;
        self.buckets = (0..doubled).map(|_| Vec::new()).collect();
        self.cursor = self.bucket_of(self.horizon_us);
        for e in old {
            if self.arena[e.slot as usize].seq == e.seq {
                let b = self.bucket_of(e.at_us);
                self.buckets[b].push(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.push(us(5_000), "c");
        q.push(us(1_000), "a");
        q.push(us(3_000), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_at_equal_timestamps_is_an_invariant() {
        let mut q = CalendarQueue::new();
        for i in 0..100u32 {
            q.push(us(7_000), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(
            order,
            (0..100).collect::<Vec<_>>(),
            "push order == pop order"
        );
    }

    #[test]
    fn keys_are_monotone_and_reported() {
        let mut q = CalendarQueue::new();
        q.push(us(10), 'x');
        q.push(us(10), 'y');
        let (k1, _) = q.pop().unwrap();
        let (k2, _) = q.pop().unwrap();
        assert_eq!(k1.at, us(10));
        assert!(k1 < k2, "equal-time keys still totally ordered");
        assert!(k1.seq < k2.seq);
    }

    #[test]
    fn peek_always_matches_pop() {
        let mut q = CalendarQueue::new();
        let times = [9u64, 400_000, 3, 9, 1_000_000_000, 250_000, 3];
        for (i, t) in times.iter().enumerate() {
            q.push(us(*t), i);
        }
        while let Some(k) = q.peek() {
            let (popped, _) = q.pop().unwrap();
            assert_eq!(k, popped);
        }
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn far_future_events_are_reached_by_cursor_jump() {
        let mut q = CalendarQueue::new();
        // One wheel revolution at default geometry is 32 ms; 1000 s is
        // thousands of revolutions away.
        q.push(us(1_000_000_000), "far");
        q.push(us(500), "near");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek().unwrap().at, us(1_000_000_000));
        assert_eq!(q.pop().unwrap().1, "far");
    }

    #[test]
    fn cancel_removes_exactly_its_event() {
        let mut q = CalendarQueue::new();
        let a = q.push(us(1_000), "a");
        let b = q.push(us(2_000), "b");
        let c = q.push(us(3_000), "c");
        assert_eq!(q.cancel(b), Some("b"));
        assert_eq!(q.cancel(b), None, "second cancel is stale");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.cancel(a), None, "cancel after pop is stale");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.cancel(c), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_of_staged_minimum_updates_peek() {
        let mut q = CalendarQueue::new();
        let a = q.push(us(100), 1);
        q.push(us(200), 2);
        assert_eq!(q.peek().unwrap().at, us(100));
        q.cancel(a);
        assert_eq!(q.peek().unwrap().at, us(200));
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut q = CalendarQueue::new();
        for round in 0..50u64 {
            for i in 0..10u64 {
                q.push(us(round * 1_000 + i), (round, i));
            }
            for _ in 0..10 {
                q.pop().unwrap();
            }
        }
        assert!(q.arena.len() <= 20, "arena stays at the high-water mark");
    }

    #[test]
    fn growth_preserves_order_at_scale() {
        let mut q = CalendarQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut state = 0x12345u64;
        for seq in 0..100_000u64 {
            state = crate::latency::splitmix64(state);
            let at = state % 2_000_000; // 2 s span
            q.push(us(at), seq);
            expect.push((at, seq));
        }
        expect.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(k, p)| (k.at.as_micros(), p))
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        // Simulation pattern: pop advances time, handler pushes new events
        // relative to `now`.
        let mut q = CalendarQueue::new();
        let mut state = 99u64;
        q.push(us(0), 0u64);
        let mut last = 0u64;
        let mut processed = 0u64;
        while let Some((k, _)) = q.pop() {
            assert!(k.at.as_micros() >= last, "time must be monotone");
            last = k.at.as_micros();
            processed += 1;
            if processed < 5_000 {
                for _ in 0..2 {
                    state = crate::latency::splitmix64(state);
                    q.push(us(last + 1 + state % 300_000), processed);
                }
            }
        }
        assert!(processed >= 5_000);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference scheduler: the exact `BinaryHeap<Reverse<(at, seq)>>`
    /// discipline the event kernel used before the calendar queue.
    #[derive(Default)]
    struct RefHeap {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    }

    impl RefHeap {
        fn push(&mut self, at_us: u64, seq: u64, payload: u32) {
            self.heap.push(Reverse((at_us, seq, payload)));
        }
        fn pop(&mut self) -> Option<(u64, u64, u32)> {
            self.heap.pop().map(|Reverse(x)| x)
        }
    }

    proptest! {
        /// Equivalence: any interleaving of pushes (bursty, same-instant,
        /// near- and far-future) and pops drains in the identical order
        /// through the calendar queue and the old binary heap.
        #[test]
        fn prop_matches_binary_heap_reference(
            ops in proptest::collection::vec((any::<bool>(), 0u64..3, 0u64..500_000), 1..300),
            seed in any::<u64>(),
        ) {
            let mut cq: CalendarQueue<u32> = CalendarQueue::new();
            let mut reference = RefHeap::default();
            let mut state = seed;
            let mut now = 0u64;
            let mut seq = 0u64;
            for (i, (pop, kind, delay)) in ops.iter().enumerate() {
                if *pop {
                    let got = cq.pop().map(|(k, p)| (k.at.as_micros(), k.seq, p));
                    let want = reference.pop();
                    prop_assert_eq!(got, want, "pop {} diverged", i);
                    if let Some((at, _, _)) = want {
                        now = at; // simulation clocks advance on pop
                    }
                } else {
                    state = crate::latency::splitmix64(state);
                    let at = match kind {
                        0 => now + delay,                     // bounded horizon
                        1 => now,                             // same-instant burst
                        _ => now + 40_000_000 + state % 1_000_000_000, // far timer
                    };
                    cq.push(SimTime::from_micros(at), i as u32);
                    reference.push(at, seq, i as u32);
                    seq += 1;
                }
            }
            // Drain both to the end: nothing may be lost or reordered.
            loop {
                let got = cq.pop().map(|(k, p)| (k.at.as_micros(), k.seq, p));
                let want = reference.pop();
                prop_assert_eq!(got, want, "drain diverged");
                if want.is_none() {
                    break;
                }
            }
        }

        /// Cancellation never perturbs the order of surviving events.
        #[test]
        fn prop_cancel_preserves_survivor_order(
            times in proptest::collection::vec(0u64..100_000, 2..120),
            cancel_mask in any::<u64>(),
        ) {
            let mut cq: CalendarQueue<usize> = CalendarQueue::new();
            let mut handles = Vec::new();
            for (i, t) in times.iter().enumerate() {
                handles.push((i, *t, cq.push(SimTime::from_micros(*t), i)));
            }
            let mut expect: Vec<(u64, usize)> = Vec::new();
            for (i, t, h) in &handles {
                if cancel_mask >> (i % 64) & 1 == 1 {
                    prop_assert_eq!(cq.cancel(*h), Some(*i));
                } else {
                    expect.push((*t, *i));
                }
            }
            expect.sort_unstable_by_key(|&(t, i)| (t, i)); // seq order == index order
            let got: Vec<(u64, usize)> = std::iter::from_fn(|| cq.pop())
                .map(|(k, p)| (k.at.as_micros(), p))
                .collect();
            prop_assert_eq!(got, expect);
        }
    }
}
