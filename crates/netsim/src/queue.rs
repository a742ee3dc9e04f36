//! Event schedulers: a calendar (bucket) queue and the legacy binary heap.
//!
//! The simulator's event queue must pop events in a *total* order — first
//! by timestamp, ties broken by insertion sequence — because the paper
//! suite's bit-for-bit reproducibility rests on it. The comparison-based
//! `BinaryHeap` pays O(log n) comparisons per operation on ~48-byte
//! elements; the calendar queue replaces that with O(1) amortized bucket
//! arithmetic on the discrete nanosecond timestamps:
//!
//! * Time is split into ticks of `2^BUCKET_SHIFT` ns (~1.05 ms). A ring of
//!   `NUM_BUCKETS` buckets covers the ticks `[cur_tick, cur_tick + NUM_BUCKETS)`
//!   — about 4.3 simulated seconds; events beyond the window overflow into
//!   a small far-future heap and are promoted as the window slides.
//! * Pushes append to their tick's bucket unsorted (O(1)) and set a bit in
//!   an occupancy bitmap so the pop path can skip empty buckets 64 at a
//!   time.
//! * Pops activate the current tick's bucket by sorting it *descending* by
//!   `(at, seq)` once, then pop from the back (O(1) each). Events pushed
//!   into the active tick insert at their sorted position — rare, since
//!   most same-time work lands in later ticks.
//! * A drained bucket whose buffer grew beyond [`RETAINED_BUCKET_CAP`]
//!   entries gives it back when the window moves on. Without this, a
//!   rung's one-off bursts (the t=0 `Start` burst, wide fan-outs) pin
//!   their high-water capacity in every ring slot they ever touched.
//!
//! The legacy heap is kept behind [`SchedulerKind::LegacyHeap`] so the
//! determinism suite can assert byte-identical results between the two
//! scheduler implementations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds: 2^20 ns ≈ 1.05 ms, on the
/// order of one link traversal (20 ms delay, sub-ms transmission times),
/// so consecutive hop events land a handful of ticks apart. Finer ticks
/// (2^17 × 32768 buckets) were measured ~40% slower end-to-end: the ring's
/// bucket headers outgrow L2 and every push misses.
const BUCKET_SHIFT: u32 = 20;
/// Number of buckets in the ring; must be a power of two. 4096 ticks of
/// 1.05 ms cover ≈ 4.3 simulated seconds, beyond every timer the protocols
/// arm, so the far-future heap is idle in the paper suite.
const NUM_BUCKETS: u64 = 4096;
const BUCKET_MASK: u64 = NUM_BUCKETS - 1;
/// Largest buffer, in entries, a drained bucket keeps for reuse. The paper
/// suite's buckets peak below 100 events, so they keep their buffers and
/// stop reallocating once warm; a 10⁵-receiver rung's ~1,000-event ticks
/// hand theirs back. The ring then retains at most `NUM_BUCKETS × 256`
/// entries (48 MiB of 48-byte events) instead of every bucket's
/// high-water.
const RETAINED_BUCKET_CAP: usize = 256;

/// Which event-queue implementation a simulator uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// The calendar (bucket) queue — the default, O(1) amortized.
    #[default]
    Calendar,
    /// The comparison-based binary heap the engine used before the
    /// data-oriented rewrite. Retained so determinism tests can prove the
    /// two produce byte-identical runs; scheduled for deletion once the
    /// calendar queue has soaked.
    LegacyHeap,
}

/// One scheduled event: a nanosecond timestamp, the insertion sequence
/// number that breaks ties, and the payload.
#[derive(Clone, Debug)]
pub struct Entry<T> {
    /// Absolute simulated time in nanoseconds.
    pub at: u64,
    /// Global insertion sequence; the second sort key.
    pub seq: u64,
    /// The event payload.
    pub item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Always-on operation counters of one queue's lifetime. Every field is a
/// pure function of the push/pop sequence, so the telemetry is exactly as
/// deterministic as the simulation itself (asserted by
/// `tests/queue_proptest.rs`); the increments are single adds on paths
/// that already touch the same cache lines.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct QueueTelemetry {
    /// Total events pushed.
    pub pushes: u64,
    /// Total events popped.
    pub pops: u64,
    /// Pushes that overflowed the ring window into the far-future heap.
    pub far_pushes: u64,
    /// Far-future events promoted back into the ring as the window slid.
    pub promotions: u64,
    /// High-water occupancy of any single ring bucket.
    pub max_bucket_len: u64,
    /// Window advances (bitmap skips) performed by the pop path.
    pub advances: u64,
    /// Summed tick distance of those advances (mean skip =
    /// `skip_ticks / advances`).
    pub skip_ticks: u64,
    /// Largest single advance, in ticks.
    pub max_skip_ticks: u64,
}

impl QueueTelemetry {
    /// `pushes - pops`: must equal the queue's live length at all times.
    pub fn outstanding(&self) -> u64 {
        self.pushes - self.pops
    }

    /// Folds another queue's counters in (summing totals, maxing the
    /// high-water figures), for aggregating across runs or shards.
    pub fn merge(&mut self, other: &QueueTelemetry) {
        self.pushes += other.pushes;
        self.pops += other.pops;
        self.far_pushes += other.far_pushes;
        self.promotions += other.promotions;
        self.max_bucket_len = self.max_bucket_len.max(other.max_bucket_len);
        self.advances += other.advances;
        self.skip_ticks += other.skip_ticks;
        self.max_skip_ticks = self.max_skip_ticks.max(other.max_skip_ticks);
    }
}

/// A calendar queue over [`Entry`] values. See the module docs for the
/// design; the externally visible contract is exactly "pop in `(at,
/// seq)` order", identical to the legacy heap.
pub struct CalendarQueue<T> {
    /// Ring of buckets indexed by `tick & BUCKET_MASK`.
    buckets: Vec<Vec<Entry<T>>>,
    /// One bit per ring bucket: set iff the (inactive) bucket is nonempty.
    occupancy: Vec<u64>,
    /// Events with ticks at or beyond `cur_tick + NUM_BUCKETS`.
    far: BinaryHeap<Reverse<Entry<T>>>,
    /// The tick whose bucket pops next. Invariant: no queued event has a
    /// tick below `cur_tick`, and `cur_tick <= tick(now)` between calls,
    /// so pushes (always `at >= now`) never land behind the cursor.
    cur_tick: u64,
    /// Whether `buckets[cur_tick & BUCKET_MASK]` is activated (sorted
    /// descending; popped from the back).
    active: bool,
    len: usize,
    telemetry: QueueTelemetry,
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue with its window starting at tick 0.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupancy: vec![0u64; (NUM_BUCKETS / 64) as usize],
            far: BinaryHeap::new(),
            cur_tick: 0,
            active: false,
            len: 0,
            telemetry: QueueTelemetry::default(),
        }
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime operation counters (see [`QueueTelemetry`]).
    pub fn telemetry(&self) -> QueueTelemetry {
        self.telemetry
    }

    #[inline]
    fn tick_of(at: u64) -> u64 {
        at >> BUCKET_SHIFT
    }

    #[inline]
    fn mark_occupied(&mut self, tick: u64) {
        let idx = (tick & BUCKET_MASK) as usize;
        self.occupancy[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear_occupied(&mut self, tick: u64) {
        let idx = (tick & BUCKET_MASK) as usize;
        self.occupancy[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Schedules an event. `now` is the caller's clock; `entry.at` must not
    /// precede it (the simulator never schedules into the past).
    ///
    /// On a push into an empty queue the window jumps forward to
    /// `tick(now)` — not to the entry's own tick, which would be unsafe:
    /// a second push in the same dispatch could then land behind the
    /// cursor. `tick(now)` is always a valid floor because every future
    /// push satisfies `at >= now`.
    pub fn push(&mut self, entry: Entry<T>, now: u64) {
        let tick = Self::tick_of(entry.at);
        if self.len == 0 {
            let now_tick = Self::tick_of(now);
            debug_assert!(now_tick >= self.cur_tick, "clock behind the cursor");
            self.release_drained();
            self.cur_tick = now_tick;
            self.active = false;
        }
        self.len += 1;
        self.telemetry.pushes += 1;
        debug_assert!(tick >= self.cur_tick, "push behind the calendar cursor");
        if tick >= self.cur_tick + NUM_BUCKETS {
            self.telemetry.far_pushes += 1;
            self.far.push(Reverse(entry));
            return;
        }
        let idx = (tick & BUCKET_MASK) as usize;
        let occupied = if tick == self.cur_tick && self.active {
            // The bucket is mid-drain and sorted descending: insert at the
            // sorted position so pops stay in (at, seq) order.
            let bucket = &mut self.buckets[idx];
            let pos = bucket.partition_point(|e| (e.at, e.seq) > (entry.at, entry.seq));
            bucket.insert(pos, entry);
            bucket.len() as u64
        } else {
            let bucket = &mut self.buckets[idx];
            let first = bucket.is_empty();
            bucket.push(entry);
            let occupied = bucket.len() as u64;
            if first {
                // A nonempty inactive bucket is always already marked; only
                // the empty -> nonempty transition needs the bitmap write.
                self.mark_occupied(tick);
            }
            occupied
        };
        if occupied > self.telemetry.max_bucket_len {
            self.telemetry.max_bucket_len = occupied;
        }
    }

    /// Next nonempty inactive tick at or after `cur_tick`, if any, found by
    /// scanning the occupancy bitmap a 64-bucket word at a time. Any set
    /// bit belongs to a tick inside the current window (bits are only set
    /// by in-window pushes and cleared on activation), so the first set
    /// bit encountered going forward is the answer.
    fn next_occupied_tick(&self) -> Option<u64> {
        if self.len == self.far.len() + self.active_len() {
            return None; // every ring bucket except the active one is empty
        }
        let mut tick = self.cur_tick;
        let mut remaining = NUM_BUCKETS;
        while remaining > 0 {
            let idx = (tick & BUCKET_MASK) as usize;
            let bit = (idx % 64) as u64;
            // Bits below `bit` in this word belong to ticks near the far
            // end of the window (the ring wrapped); mask them off.
            let word = self.occupancy[idx / 64] & (!0u64 << bit);
            if word != 0 {
                return Some(tick + (u64::from(word.trailing_zeros()) - bit));
            }
            let step = (64 - bit).min(remaining);
            tick += step;
            remaining -= step;
        }
        None
    }

    #[inline]
    fn active_len(&self) -> usize {
        if self.active {
            self.buckets[(self.cur_tick & BUCKET_MASK) as usize].len()
        } else {
            0
        }
    }

    /// Frees the active bucket's buffer if it is larger than
    /// [`RETAINED_BUCKET_CAP`]. Called only as the cursor leaves the
    /// active bucket, which by then is always drained.
    #[inline]
    fn release_drained(&mut self) {
        if self.active {
            let drained = &mut self.buckets[(self.cur_tick & BUCKET_MASK) as usize];
            debug_assert!(drained.is_empty(), "left a bucket mid-drain");
            if drained.capacity() > RETAINED_BUCKET_CAP {
                *drained = Vec::new();
            }
        }
    }

    /// Slides the window so `cur_tick = tick`, promoting far-future events
    /// that now fall inside it, and activates the new current bucket.
    fn advance_to(&mut self, tick: u64) {
        debug_assert!(tick >= self.cur_tick);
        let skip = tick - self.cur_tick;
        self.release_drained();
        self.telemetry.advances += 1;
        self.telemetry.skip_ticks += skip;
        if skip > self.telemetry.max_skip_ticks {
            self.telemetry.max_skip_ticks = skip;
        }
        self.cur_tick = tick;
        self.active = false;
        while let Some(Reverse(head)) = self.far.peek() {
            if Self::tick_of(head.at) >= self.cur_tick + NUM_BUCKETS {
                break;
            }
            let Reverse(entry) = self.far.pop().expect("peeked entry exists");
            let t = Self::tick_of(entry.at);
            self.telemetry.promotions += 1;
            self.buckets[(t & BUCKET_MASK) as usize].push(entry);
            self.mark_occupied(t);
        }
        let idx = (self.cur_tick & BUCKET_MASK) as usize;
        if !self.buckets[idx].is_empty() {
            // (at, seq) keys are unique, so unstable sorting cannot reorder
            // equal elements — and it skips the merge-buffer allocation.
            self.buckets[idx].sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
        }
        self.clear_occupied(self.cur_tick);
        self.active = true;
    }

    /// Pops the earliest event if its timestamp is `<= limit`; `None` when
    /// the queue is empty or the earliest event lies beyond `limit`. The
    /// window only advances when an event is actually eligible, so the
    /// cursor never outruns the caller's clock.
    pub fn pop_at_most(&mut self, limit: u64) -> Option<Entry<T>> {
        loop {
            if self.len == 0 {
                return None;
            }
            if self.active {
                let idx = (self.cur_tick & BUCKET_MASK) as usize;
                if let Some(entry) = self.buckets[idx].last() {
                    if entry.at > limit {
                        return None;
                    }
                    let entry = self.buckets[idx].pop().expect("nonempty bucket");
                    self.len -= 1;
                    self.telemetry.pops += 1;
                    return Some(entry);
                }
            }
            // The active bucket is drained (or none is active): find the
            // next nonempty tick and check eligibility BEFORE advancing.
            if let Some(tick) = self.next_occupied_tick() {
                if tick << BUCKET_SHIFT > limit {
                    // Every event in that bucket is later than `limit`.
                    return None;
                }
                self.advance_to(tick);
                continue;
            }
            // Ring exhausted: everything left is in the far heap, whose
            // head is the global minimum.
            let Reverse(head) = self.far.peek().expect("len > 0 implies far nonempty");
            if head.at > limit {
                return None;
            }
            let tick = Self::tick_of(head.at);
            self.advance_to(tick);
        }
    }

    /// The events left in the active bucket, sorted descending by `(at,
    /// seq)`: the last entry pops next, the one before it after that, for
    /// as long as the bucket lasts. Empty when no bucket is active. Pushes
    /// into the active tick can still land between these entries, so a
    /// reader may use this to look ahead (to prefetch), not to predict.
    #[inline]
    pub fn backlog(&self) -> &[Entry<T>] {
        if self.active {
            &self.buckets[(self.cur_tick & BUCKET_MASK) as usize]
        } else {
            &[]
        }
    }

    /// Allocated capacity, in entries, of the ring bucket holding `tick`.
    #[cfg(test)]
    fn bucket_capacity(&self, tick: u64) -> usize {
        self.buckets[(tick & BUCKET_MASK) as usize].capacity()
    }

    /// Timestamp of the earliest queued event without popping it.
    pub fn peek_at(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if let Some(entry) = self
            .active
            .then(|| self.buckets[(self.cur_tick & BUCKET_MASK) as usize].last())
            .flatten()
        {
            return Some(entry.at);
        }
        if let Some(tick) = self.next_occupied_tick() {
            let bucket = &self.buckets[(tick & BUCKET_MASK) as usize];
            return bucket.iter().map(|e| e.at).min();
        }
        self.far.peek().map(|Reverse(e)| e.at)
    }

    /// Removes and returns every queued event in `(at, seq)` order; used
    /// when migrating between scheduler implementations.
    pub fn drain_sorted(&mut self) -> Vec<Entry<T>> {
        let mut all: Vec<Entry<T>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        while let Some(Reverse(e)) = self.far.pop() {
            all.push(e);
        }
        all.sort_by_key(|e| (e.at, e.seq));
        self.occupancy.fill(0);
        self.active = false;
        self.len = 0;
        self.telemetry.pops += all.len() as u64;
        all
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

/// The simulator-facing event queue: one of the two scheduler
/// implementations behind a common push/pop interface.
pub enum EventQueue<T> {
    /// Calendar (bucket) queue.
    Calendar(CalendarQueue<T>),
    /// Legacy comparison-based heap.
    Heap(BinaryHeap<Reverse<Entry<T>>>),
}

impl<T> EventQueue<T> {
    /// Creates an empty queue of the given kind.
    pub fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
            SchedulerKind::LegacyHeap => EventQueue::Heap(BinaryHeap::new()),
        }
    }

    /// Which implementation this queue is.
    pub fn kind(&self) -> SchedulerKind {
        match self {
            EventQueue::Calendar(_) => SchedulerKind::Calendar,
            EventQueue::Heap(_) => SchedulerKind::LegacyHeap,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len(),
            EventQueue::Heap(h) => h.len(),
        }
    }

    /// Schedules an event; `now` is the caller's clock (see
    /// [`CalendarQueue::push`]).
    #[inline]
    pub fn push(&mut self, entry: Entry<T>, now: u64) {
        match self {
            EventQueue::Calendar(q) => q.push(entry, now),
            EventQueue::Heap(h) => h.push(Reverse(entry)),
        }
    }

    /// Pops the earliest event with `at <= limit`, if any.
    #[inline]
    pub fn pop_at_most(&mut self, limit: u64) -> Option<Entry<T>> {
        match self {
            EventQueue::Calendar(q) => q.pop_at_most(limit),
            EventQueue::Heap(h) => {
                if h.peek().is_some_and(|Reverse(e)| e.at <= limit) {
                    h.pop().map(|Reverse(e)| e)
                } else {
                    None
                }
            }
        }
    }

    /// The calendar queue's active-bucket backlog (see
    /// [`CalendarQueue::backlog`]); the legacy heap has none and returns
    /// an empty slice.
    #[inline]
    pub fn backlog(&self) -> &[Entry<T>] {
        match self {
            EventQueue::Calendar(q) => q.backlog(),
            EventQueue::Heap(_) => &[],
        }
    }

    /// Timestamp of the earliest queued event.
    pub fn peek_at(&self) -> Option<u64> {
        match self {
            EventQueue::Calendar(q) => q.peek_at(),
            EventQueue::Heap(h) => h.peek().map(|Reverse(e)| e.at),
        }
    }

    /// Lifetime operation counters. The legacy heap is uninstrumented
    /// (it exists only for determinism cross-checks) and reports zeros.
    pub fn telemetry(&self) -> QueueTelemetry {
        match self {
            EventQueue::Calendar(q) => q.telemetry(),
            EventQueue::Heap(_) => QueueTelemetry::default(),
        }
    }

    /// Removes and returns every queued event in `(at, seq)` order.
    pub fn drain_sorted(&mut self) -> Vec<Entry<T>> {
        match self {
            EventQueue::Calendar(q) => q.drain_sorted(),
            EventQueue::Heap(h) => {
                let mut all: Vec<Entry<T>> = std::mem::take(h).into_iter().map(|r| r.0).collect();
                all.sort_by_key(|e| (e.at, e.seq));
                all
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_at_most(u64::MAX) {
            out.push((e.at, e.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        for (seq, at) in [(0u64, 50u64), (1, 10), (2, 50), (3, 7)].into_iter() {
            q.push(
                Entry {
                    at,
                    seq,
                    item: 0u32,
                },
                0,
            );
        }
        assert_eq!(drain_order(&mut q), vec![(7, 3), (10, 1), (50, 0), (50, 2)]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_future_events_promote_when_window_slides() {
        let mut q = CalendarQueue::new();
        let far = (NUM_BUCKETS + 10) << BUCKET_SHIFT; // outside the window
        q.push(
            Entry {
                at: far,
                seq: 0,
                item: 1u32,
            },
            0,
        );
        q.push(
            Entry {
                at: 5,
                seq: 1,
                item: 2u32,
            },
            0,
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 5);
        let e = q.pop_at_most(u64::MAX).unwrap();
        assert_eq!((e.at, e.item), (far, 1));
    }

    #[test]
    fn pop_respects_limit_and_preserves_cursor() {
        let mut q = CalendarQueue::new();
        q.push(
            Entry {
                at: 100 << BUCKET_SHIFT,
                seq: 0,
                item: 0u32,
            },
            0,
        );
        // Limit far below the only event: nothing pops, and a later push
        // at an earlier time must still surface first.
        assert!(q.pop_at_most(10).is_none());
        q.push(
            Entry {
                at: 50 << BUCKET_SHIFT,
                seq: 1,
                item: 1u32,
            },
            10,
        );
        let e = q.pop_at_most(u64::MAX).unwrap();
        assert_eq!(e.seq, 1, "earlier late-pushed event pops first");
    }

    #[test]
    fn same_tick_push_during_drain_stays_ordered() {
        let mut q = CalendarQueue::new();
        q.push(
            Entry {
                at: 10,
                seq: 0,
                item: 0u32,
            },
            0,
        );
        q.push(
            Entry {
                at: 30,
                seq: 1,
                item: 0u32,
            },
            0,
        );
        assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 10);
        // Bucket for tick 0 is now active; push into it mid-drain.
        q.push(
            Entry {
                at: 20,
                seq: 2,
                item: 0u32,
            },
            10,
        );
        assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 20);
        assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 30);
    }

    #[test]
    fn push_into_empty_queue_far_ahead_still_pops() {
        let mut q = CalendarQueue::new();
        q.push(
            Entry {
                at: 3,
                seq: 0,
                item: 0u32,
            },
            0,
        );
        assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, 3);
        // Queue is empty and the next event is far beyond the window: it
        // overflows into the far heap and is promoted on demand.
        let late = (NUM_BUCKETS * 1000) << BUCKET_SHIFT;
        q.push(
            Entry {
                at: late,
                seq: 1,
                item: 0u32,
            },
            3,
        );
        assert_eq!(q.peek_at(), Some(late));
        assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, late);
        // After that pop the window has caught up; a near-future push
        // lands in the ring again.
        q.push(
            Entry {
                at: late + 7,
                seq: 2,
                item: 0u32,
            },
            late,
        );
        assert_eq!(q.pop_at_most(u64::MAX).unwrap().at, late + 7);
    }

    #[test]
    fn matches_binary_heap_on_random_storm() {
        // Deterministic pseudo-random workload interleaving pushes and
        // limited pops; the calendar queue must agree with the reference
        // heap exactly, including (at, seq) tie-breaks.
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<Entry<u32>>> = BinaryHeap::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut bits = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        for round in 0..2000 {
            // A burst of pushes at and after `now`, spanning near ticks,
            // the active tick, and the far-future overflow heap.
            for _ in 0..(bits() % 8) {
                let spread = match bits() % 4 {
                    0 => bits() % (1 << BUCKET_SHIFT),                 // same tick
                    1 => bits() % (100 << BUCKET_SHIFT),               // near
                    2 => bits() % ((NUM_BUCKETS * 4) << BUCKET_SHIFT), // far
                    _ => bits() % 1000,                                // immediate
                };
                let e = Entry {
                    at: now + spread,
                    seq,
                    item: round,
                };
                seq += 1;
                cal.push(e.clone(), now);
                heap.push(Reverse(e));
            }
            // Pop a few events up to a random horizon.
            let limit = now + bits() % ((NUM_BUCKETS / 2) << BUCKET_SHIFT);
            for _ in 0..(bits() % 6) {
                let expect = if heap.peek().is_some_and(|Reverse(e)| e.at <= limit) {
                    heap.pop().map(|Reverse(e)| e)
                } else {
                    None
                };
                let got = cal.pop_at_most(limit);
                match (&expect, &got) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!((a.at, a.seq, a.item), (b.at, b.seq, b.item));
                        now = now.max(a.at);
                    }
                    _ => panic!("divergence: expected {expect:?}, got {got:?}"),
                }
            }
            // Mirrors `Simulator::run_until`: the clock lands on the pop
            // horizon, so later pushes never fall behind the cursor.
            now = now.max(limit);
            assert_eq!(cal.len(), heap.len());
        }
        // Full drain must agree too.
        loop {
            let expect = heap.pop().map(|Reverse(e)| e);
            let got = cal.pop_at_most(u64::MAX);
            match (&expect, &got) {
                (None, None) => break,
                (Some(a), Some(b)) => assert_eq!((a.at, a.seq), (b.at, b.seq)),
                _ => panic!("drain divergence"),
            }
        }
    }

    #[test]
    fn drained_burst_bucket_gives_its_buffer_back() {
        // The t=0 `Start` burst of a 10⁵-receiver rung on two shards: one
        // tick holding 50,001 events, then later work in another tick.
        let mut q = CalendarQueue::new();
        for seq in 0..50_001u64 {
            q.push(
                Entry {
                    at: 0,
                    seq,
                    item: 0u32,
                },
                0,
            );
        }
        q.push(
            Entry {
                at: 5 << BUCKET_SHIFT,
                seq: 50_001,
                item: 0u32,
            },
            0,
        );
        assert!(q.bucket_capacity(0) >= 50_001);
        for seq in 0..50_001u64 {
            let e = q.pop_at_most(u64::MAX).unwrap();
            assert_eq!((e.at, e.seq), (0, seq));
        }
        assert_eq!(q.backlog().len(), 0, "burst drained");
        // The next pop advances past the drained bucket.
        assert_eq!(q.pop_at_most(u64::MAX).unwrap().seq, 50_001);
        assert!(q.bucket_capacity(0) <= RETAINED_BUCKET_CAP);
    }

    #[test]
    fn small_drained_buckets_keep_their_buffers() {
        let mut q = CalendarQueue::new();
        for (seq, at) in [(0u64, 1u64), (1, 2), (2, 3 << BUCKET_SHIFT)] {
            q.push(
                Entry {
                    at,
                    seq,
                    item: 0u32,
                },
                0,
            );
        }
        let cap = q.bucket_capacity(0);
        assert!((2..=RETAINED_BUCKET_CAP).contains(&cap));
        assert_eq!(drain_order(&mut q).len(), 3);
        assert_eq!(q.bucket_capacity(0), cap);
    }

    #[test]
    fn legacy_heap_has_no_backlog() {
        // The calendar queue's backlog is checked against a reference
        // heap in `tests/queue_proptest.rs`.
        let mut q: EventQueue<u32> = EventQueue::new(SchedulerKind::LegacyHeap);
        q.push(
            Entry {
                at: 1,
                seq: 0,
                item: 0,
            },
            0,
        );
        assert!(q.backlog().is_empty());
    }

    #[test]
    fn drain_sorted_returns_everything_in_order() {
        let mut q = CalendarQueue::new();
        let far = (NUM_BUCKETS + 3) << BUCKET_SHIFT;
        for (seq, at) in [(0u64, 9u64), (1, far), (2, 9), (3, 1)].into_iter() {
            q.push(
                Entry {
                    at,
                    seq,
                    item: 0u32,
                },
                0,
            );
        }
        let order: Vec<(u64, u64)> = q.drain_sorted().iter().map(|e| (e.at, e.seq)).collect();
        assert_eq!(order, vec![(1, 3), (9, 0), (9, 2), (far, 1)]);
        assert_eq!(q.len(), 0);
        assert!(q.pop_at_most(u64::MAX).is_none());
    }
}
