//! Property tests for the hierarchical timing-wheel event queue: under
//! arbitrary push / cancel / pop interleavings — same-timestamp ties,
//! delays spanning every wheel level and the overflow heap, stale and
//! duplicate cancellations — the wheel must dispatch exactly the sequence
//! of the retained reference implementation, the global binary heap
//! ([`HeapQueue`]), and agree with it on every observable (peek, length,
//! cancel outcome) at every step.

use proptest::prelude::*;
use tas_repro::sim::{EventQueue, HeapQueue, SimTime};

/// The wheel's level-0 tick in picoseconds (`2^16`); one level-1 tick is
/// 256 of them. The dense schedules below cluster around both boundaries.
const TICK_PS: u64 = 1 << 16;
/// The wheel's level-1 tick in picoseconds.
const L1_TICK_PS: u64 = 256 * TICK_PS;

#[derive(Debug, Clone)]
enum QOp {
    /// Push at `now + delay` (delays drawn from mixed horizons so entries
    /// land in every wheel level and the overflow heap).
    Push(u64),
    /// Push at exactly the previous push's timestamp: a dispatch-order tie
    /// that must break by insertion order in both engines.
    PushTie,
    /// Cancel the i-th handle issued so far (mod count): sometimes live,
    /// sometimes already dispatched or already cancelled — both engines
    /// must agree on the outcome either way.
    Cancel(usize),
    /// Pop up to n events, advancing the clock.
    Pop(u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<QOp>> {
    proptest::collection::vec(
        prop_oneof![
            // Mixed horizons: ~ns within level 0 up to seconds-scale
            // delays that park in the overflow heap.
            (0u8..4, any::<u64>()).prop_map(|(h, raw)| {
                let caps = [1_000u64, 1_000_000, 2_000_000_000, 10_000_000_000_000];
                QOp::Push(raw % caps[h as usize])
            }),
            Just(QOp::PushTie),
            any::<usize>().prop_map(QOp::Cancel),
            (1u8..8).prop_map(QOp::Pop),
        ],
        1..400,
    )
}

#[derive(Debug, Clone)]
enum DenseOp {
    /// Push at `base + ticks * TICK_PS + offset` (never before the clock),
    /// where `base` is the clock or, with `aligned`, the next level-1
    /// boundary above it: many entries share one level-0 window, straddle
    /// its edges, or sit in the last level-0 window before a level-1
    /// boundary, whose drain leaves the cursor exactly on that boundary.
    Push {
        aligned: bool,
        ticks: i64,
        offset: u64,
    },
    /// Cancel the i-th handle issued so far (mod count).
    Cancel(usize),
    /// Pop every event due within `span` ps of the clock, one at a time,
    /// through `pop_until` (the engine's dispatch path).
    PopUntil(u64),
}

fn arb_dense_ops() -> impl Strategy<Value = Vec<DenseOp>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<bool>(), 0u8..7, 0u8..4, any::<u64>()).prop_map(|(aligned, t, o, raw)| {
                let ticks = [-1i64, 0, 1, 2, 255, 256, 257][t as usize];
                let offset = match o {
                    0 => 0,
                    1 => TICK_PS - 1,
                    2 => raw % 64,
                    _ => raw % TICK_PS,
                };
                DenseOp::Push {
                    aligned,
                    ticks,
                    offset,
                }
            }),
            any::<usize>().prop_map(DenseOp::Cancel),
            any::<usize>().prop_map(DenseOp::Cancel),
            (0u8..4, any::<u64>()).prop_map(|(k, raw)| {
                DenseOp::PopUntil(match k {
                    0 => 0,
                    1 => raw % TICK_PS,
                    2 => TICK_PS + raw % TICK_PS,
                    _ => raw % (300 * TICK_PS),
                })
            }),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dense sub-tick schedules with heavy cancellation around the level-0
    /// and level-1 boundaries: the wheel still dispatches exactly the
    /// heap's sequence, and `pop_until` stops exactly at its limit.
    #[test]
    fn wheel_matches_heap_on_dense_sub_tick_schedules(ops in arb_dense_ops()) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut handles = Vec::new();
        let mut now = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                DenseOp::Push { aligned, ticks, offset } => {
                    let base = if aligned { (now / L1_TICK_PS + 1) * L1_TICK_PS } else { now };
                    let at = (base + offset).saturating_add_signed(ticks * TICK_PS as i64);
                    let at = SimTime::from_ps(at.max(now));
                    handles.push((wheel.push(at, i as u64), heap.push(at, i as u64)));
                }
                DenseOp::Cancel(j) => {
                    if !handles.is_empty() {
                        let (w, h) = handles[j % handles.len()];
                        prop_assert_eq!(wheel.cancel(w), heap.cancel(h));
                    }
                }
                DenseOp::PopUntil(span) => {
                    let limit = SimTime::from_ps(now + span);
                    loop {
                        let h = match heap.peek_time() {
                            Some(t) if t <= limit => heap.pop(),
                            _ => None,
                        };
                        let w = wheel.pop_until(limit);
                        prop_assert_eq!(w, h);
                        match w {
                            Some((t, _)) => now = now.max(t.as_ps()),
                            None => break,
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.live_len(), heap.live_len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }

    /// The wheel and the heap reference dispatch identical (time, payload)
    /// sequences and agree on peek/len/cancel at every step.
    #[test]
    fn wheel_matches_heap_reference(ops in arb_ops()) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut handles = Vec::new();
        let mut now = 0u64;
        let mut last_at = 0u64;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                QOp::Push(delay) => {
                    last_at = now + delay;
                    let at = SimTime::from_ps(last_at);
                    handles.push((wheel.push(at, i as u64), heap.push(at, i as u64)));
                }
                QOp::PushTie => {
                    let at = SimTime::from_ps(last_at.max(now));
                    handles.push((wheel.push(at, i as u64), heap.push(at, i as u64)));
                }
                QOp::Cancel(j) => {
                    if !handles.is_empty() {
                        let (w, h) = handles[j % handles.len()];
                        prop_assert_eq!(wheel.cancel(w), heap.cancel(h));
                    }
                }
                QOp::Pop(n) => {
                    for _ in 0..n {
                        let (w, h) = (wheel.pop(), heap.pop());
                        prop_assert_eq!(w, h);
                        match w {
                            Some((t, _)) => now = now.max(t.as_ps()),
                            None => break,
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.live_len(), heap.live_len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain to exhaustion: every remaining live event must come out of
        // both engines in the same order with the same key and payload.
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }
}
