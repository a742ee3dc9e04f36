//! Property test: the calendar queue's always-on telemetry counters stay
//! consistent with a shadow model across arbitrary push/pop sequences,
//! including far-future pushes that overflow the ring window into the
//! heap and are later promoted back.
//!
//! The companion to `arena_proptest.rs`: random operation tapes drive the
//! real structure and a trivially-correct model side by side, asserting
//! after every step that
//!
//! * pops come out in exact `(at, seq)` order (the queue's contract),
//! * `telemetry().outstanding()` (`pushes - pops`) equals the live event
//!   count, and
//! * the overflow counters obey `promotions <= far_pushes`.
//!
//! A second tape checks the lookahead the simulator prefetches from: while
//! a bucket is active, its backlog read back to front is exactly the next
//! pops of a reference `BinaryHeap`.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use netsim::{CalendarQueue, Entry};
use proptest::prelude::*;

/// One ring window is 4096 buckets of 2^20 ns; offsets beyond
/// `4096 << 20` from the cursor overflow into the far-future heap.
const FAR_OFFSET: u64 = 4096u64 << 20;

proptest! {
    #[test]
    fn telemetry_matches_shadow_model(
        tape in proptest::collection::vec((0u8..4, 0u64..u64::MAX / 4), 1..300)
    ) {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut now = 0u64;
        let mut next_seq = 0u64;
        let mut far_pushes = 0u64;

        for &(op, x) in &tape {
            match op {
                // Near push: lands inside the current ring window.
                0 | 1 => {
                    let at = now + x % FAR_OFFSET;
                    let seq = next_seq;
                    next_seq += 1;
                    q.push(Entry { at, seq, item: 0 }, now);
                    model.insert((at, seq));
                }
                // Far push: overflows into the far-future heap. The
                // offset is taken from `now`, which can trail the
                // cursor's window start by at most one window, so two
                // windows past `now` is always beyond the ring.
                2 => {
                    let at = now + 2 * FAR_OFFSET + x % FAR_OFFSET;
                    let seq = next_seq;
                    next_seq += 1;
                    q.push(Entry { at, seq, item: 0 }, now);
                    model.insert((at, seq));
                    far_pushes += 1;
                }
                // Pop with a horizon: must yield the model's minimum iff
                // that minimum is within the horizon.
                _ => {
                    let limit = now + x % (4 * FAR_OFFSET);
                    let expect = model
                        .iter()
                        .next()
                        .copied()
                        .filter(|&(at, _)| at <= limit);
                    let got = q.pop_at_most(limit).map(|e| (e.at, e.seq));
                    prop_assert_eq!(got, expect, "pop order diverged from model");
                    if let Some(key @ (at, _)) = got {
                        model.remove(&key);
                        now = now.max(at);
                    } else {
                        now = now.max(limit);
                    }
                }
            }
            let t = q.telemetry();
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(t.outstanding(), model.len() as u64);
            prop_assert_eq!(t.pushes, next_seq);
            prop_assert_eq!(t.pops, next_seq - model.len() as u64);
            // Every op-2 push is beyond the window by construction; near
            // pushes may *also* overflow when the cursor trails `now`
            // (after a failed pop against a distant horizon), so this is
            // a lower bound, not an equality.
            prop_assert!(t.far_pushes >= far_pushes,
                "queue missed far pushes the model scheduled");
            prop_assert!(t.promotions <= t.far_pushes,
                "promoted more events than ever overflowed");
        }

        // Drain the remainder: everything must come out in order and the
        // occupancy balance must land on exactly zero.
        while let Some(e) = q.pop_at_most(u64::MAX) {
            let min = model.iter().next().copied();
            prop_assert_eq!(Some((e.at, e.seq)), min);
            model.remove(&(e.at, e.seq));
        }
        prop_assert!(model.is_empty());
        let t = q.telemetry();
        prop_assert_eq!(t.outstanding(), 0);
        prop_assert_eq!(t.pushes, next_seq);
        prop_assert_eq!(t.pops, next_seq);
    }
}

/// Width of one calendar tick: 2^20 ns.
const TICK: u64 = 1 << 20;

proptest! {
    #[test]
    fn reversed_backlog_is_the_next_pops(
        tape in proptest::collection::vec((0u8..4, 0u64..u64::MAX / 4), 1..300)
    ) {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut next_seq = 0u64;

        for &(op, x) in &tape {
            match op {
                // Pushes crowd a few ticks, so buckets hold several
                // events and some land in the active tick mid-drain.
                0 | 1 => {
                    let at = now + x % (4 * TICK);
                    q.push(Entry { at, seq: next_seq, item: 0 }, now);
                    heap.push(Reverse((at, next_seq)));
                    next_seq += 1;
                }
                2 => {
                    let at = now + x % (2 * FAR_OFFSET);
                    q.push(Entry { at, seq: next_seq, item: 0 }, now);
                    heap.push(Reverse((at, next_seq)));
                    next_seq += 1;
                }
                _ => {
                    let limit = now + x % (8 * TICK);
                    let expect = heap
                        .peek()
                        .map(|&Reverse(k)| k)
                        .filter(|&(at, _)| at <= limit);
                    let got = q.pop_at_most(limit).map(|e| (e.at, e.seq));
                    prop_assert_eq!(got, expect);
                    if got.is_some() {
                        heap.pop();
                    }
                    now = now.max(got.map_or(limit, |(at, _)| at));
                }
            }
            // The backlog is a prefix of the remaining pop order.
            let ahead: Vec<(u64, u64)> =
                q.backlog().iter().rev().map(|e| (e.at, e.seq)).collect();
            let mut reference = heap.clone();
            let next: Vec<(u64, u64)> = (0..ahead.len())
                .map_while(|_| reference.pop().map(|Reverse(k)| k))
                .collect();
            prop_assert_eq!(&ahead, &next, "backlog disagrees with the heap's next pops");
        }
    }
}
