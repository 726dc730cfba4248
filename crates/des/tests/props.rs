//! Property-based tests for the DES kernel against naive reference models.

use nfv_des::{jain_index, DurationHistogram, EventQueue, SimTime, WindowedMedian};
use nfv_des::{Duration, Ewma};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of an interleaved queue workload: schedule events at an offset
/// from the current clock, or drain some.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Push `count` events `delta` ns after the queue's clock (count > 1 is
    /// a same-instant burst, which exercises the seq tie-break).
    Push { delta: u64, count: u8 },
    /// Pop one event unconditionally.
    Pop,
    /// Pop one event only if due within `horizon` ns of the clock (the
    /// engine's `pop_before` batching path).
    PopBefore { horizon: u64 },
    /// Drain every event at the earliest pending instant (the engine's
    /// timer-coalescing `pop_batch_before` path).
    PopBatch,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        // Near-term offsets: land in the wheel's low levels.
        (0u64..5_000, 1u8..4).prop_map(|(delta, count)| QueueOp::Push { delta, count }),
        // Far-future timers: exercise high levels and cascades.
        (1u64 << 20..1u64 << 40, 1u8..3).prop_map(|(delta, count)| QueueOp::Push { delta, count }),
        Just(QueueOp::Pop),
        (0u64..10_000).prop_map(|horizon| QueueOp::PopBefore { horizon }),
        Just(QueueOp::PopBatch),
    ]
}

/// Test-only reference model of [`EventQueue`]: a `BTreeMap` keyed by
/// `(time, insertion seq)`, whose first entry is by definition the next
/// event due. Slow and obviously correct.
#[derive(Default)]
struct ModelQueue {
    pending: BTreeMap<(SimTime, u64), u32>,
    seq: u64,
    now: SimTime,
}

impl ModelQueue {
    fn push(&mut self, at: SimTime, tag: u32) {
        self.pending.insert((at, self.seq), tag);
        self.seq += 1;
    }

    fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, u32)> {
        let (&(at, _), _) = self.pending.first_key_value()?;
        if at > limit {
            return None;
        }
        let ((at, _), tag) = self.pending.pop_first()?;
        self.now = at;
        Some((at, tag))
    }

    fn pop_batch_before(
        &mut self,
        limit: SimTime,
        out: &mut Vec<(SimTime, u32)>,
    ) -> Option<(SimTime, u32)> {
        out.clear();
        let first = self.pop_before(limit)?;
        while self.peek_time() == Some(first.0) {
            out.extend(self.pop_before(limit));
        }
        Some(first)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|&(at, _)| at)
    }
}

proptest! {
    /// The timer wheel dequeues the same `(time, tag)` stream as the
    /// `BTreeMap` reference model for arbitrary interleavings of
    /// scheduling and draining, including same-instant bursts, far-future
    /// timers and whole-instant batch drains; clock, length and next
    /// due time agree after every step.
    #[test]
    fn queue_backends_dequeue_identically(
        ops in prop::collection::vec(queue_op(), 1..200),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut tag = 0u32;
        let (mut ow, mut om) = (Vec::new(), Vec::new());
        for op in ops {
            match op {
                QueueOp::Push { delta, count } => {
                    // Both clocks are identical (asserted below), so the
                    // same absolute time goes to each.
                    let at = SimTime::from_nanos(wheel.now().as_nanos() + delta);
                    for _ in 0..count {
                        wheel.push(at, tag);
                        model.push(at, tag);
                        tag += 1;
                    }
                }
                QueueOp::Pop => {
                    prop_assert_eq!(wheel.pop(), model.pop_before(SimTime::MAX));
                }
                QueueOp::PopBefore { horizon } => {
                    let limit = SimTime::from_nanos(wheel.now().as_nanos() + horizon);
                    prop_assert_eq!(wheel.pop_before(limit), model.pop_before(limit));
                }
                QueueOp::PopBatch => {
                    let k = wheel.pop_batch_before(SimTime::MAX, &mut ow);
                    prop_assert_eq!(k, model.pop_batch_before(SimTime::MAX, &mut om));
                    prop_assert_eq!(&ow, &om);
                }
            }
            prop_assert_eq!(wheel.now(), model.now);
            prop_assert_eq!(wheel.len(), model.pending.len());
            prop_assert_eq!(wheel.peek_time(), model.peek_time());
        }
        // Drain all to the end: every remaining event must match too.
        loop {
            let a = wheel.pop();
            prop_assert_eq!(a, model.pop_before(SimTime::MAX));
            if a.is_none() {
                break;
            }
        }
    }

    /// The event queue pops in exactly sorted (time, insertion) order.
    #[test]
    fn event_queue_matches_stable_sort(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut reference: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        reference.sort(); // stable: equal times keep insertion order
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        prop_assert_eq!(popped, reference);
    }

    /// Histogram percentiles stay within the log-bucket relative error of
    /// the exact order statistics.
    #[test]
    fn histogram_percentile_bounded_error(
        samples in prop::collection::vec(1u64..1_000_000, 10..500),
        p in 0.0f64..100.0,
    ) {
        let mut h = DurationHistogram::new();
        for &s in &samples {
            h.record(Duration::from_nanos(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        let exact = sorted[rank] as f64;
        let est = h.percentile(p).unwrap().as_nanos() as f64;
        // one bucket below, never above by more than a bucket width (~6.25%)
        prop_assert!(est <= exact * 1.0001, "est {est} > exact {exact}");
        prop_assert!(est >= exact * 0.93 - 1.0, "est {est} << exact {exact}");
    }

    /// Windowed median equals the median of the samples inside the window.
    #[test]
    fn windowed_median_matches_naive(
        samples in prop::collection::vec((0u64..1_000, 0u64..10_000), 1..200),
    ) {
        let mut sorted_by_time = samples.clone();
        sorted_by_time.sort_by_key(|&(t, _)| t);
        let window = Duration::from_nanos(300);
        let mut m = WindowedMedian::new(window);
        let mut last_t = 0;
        for &(t, v) in &sorted_by_time {
            m.observe(SimTime::from_nanos(t), v);
            last_t = t;
        }
        let horizon = last_t.saturating_sub(300);
        let mut in_window: Vec<u64> = sorted_by_time
            .iter()
            .filter(|&&(t, _)| t >= horizon)
            .map(|&(_, v)| v)
            .collect();
        in_window.sort_unstable();
        prop_assert_eq!(m.median(), Some(in_window[in_window.len() / 2]));
    }

    /// Jain's index is always in [1/n, 1] for non-degenerate inputs.
    #[test]
    fn jain_bounds(xs in prop::collection::vec(0.001f64..1e6, 1..32)) {
        let j = jain_index(&xs);
        let n = xs.len() as f64;
        prop_assert!(j <= 1.0 + 1e-9);
        prop_assert!(j >= 1.0 / n - 1e-9);
    }

    /// EWMA stays within the min/max envelope of its inputs.
    #[test]
    fn ewma_within_envelope(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut e = Ewma::new(1, 8);
        for &s in &samples {
            e.observe(s);
        }
        let lo = *samples.iter().min().unwrap();
        let hi = *samples.iter().max().unwrap();
        prop_assert!(e.value() >= lo.saturating_sub(1) && e.value() <= hi + 1,
            "ewma {} outside [{lo}, {hi}]", e.value());
    }
}
