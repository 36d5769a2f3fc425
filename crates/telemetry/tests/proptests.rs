//! Property-based tests on the telemetry data structures.

use aqua_telemetry::hist::BUCKET_COUNT;
use aqua_telemetry::{HistogramData, RingBuffer, Span, WallProfile};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every value lands in a bucket whose inclusive bounds contain it.
    #[test]
    fn bucket_bounds_contain_their_values(v in any::<u64>()) {
        let i = HistogramData::bucket_index(v);
        let (lo, hi) = HistogramData::bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "{v} outside bucket {i} = [{lo}, {hi}]");
    }

    /// Percentiles stay inside the rank sample's bucket (the factor-of-two
    /// interpolation guarantee) and inside the observed `[min, max]` range.
    #[test]
    fn percentiles_interpolate_within_the_rank_bucket(
        samples in prop::collection::vec(0u64..1_000_000_000, 1..200),
        q_mil in 1u64..=1000,
    ) {
        let mut h = HistogramData::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        let q = q_mil as f64 / 1000.0;
        let p = h.percentile(q);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1];
        let (lo, hi) = HistogramData::bucket_bounds(HistogramData::bucket_index(exact));
        prop_assert!(
            p >= lo as f64 && p <= hi as f64,
            "p({q}) = {p} outside bucket [{lo}, {hi}] of exact rank sample {exact}"
        );
        prop_assert!(p >= sorted[0] as f64 && p <= *sorted.last().unwrap() as f64);
    }

    /// Quantiles are monotone in `q`.
    #[test]
    fn percentiles_are_monotone_in_q(
        samples in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let mut h = HistogramData::new();
        for &s in &samples {
            h.record(s);
        }
        let qs = [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0];
        for w in qs.windows(2) {
            prop_assert!(h.percentile(w[0]) <= h.percentile(w[1]));
        }
    }

    /// Merging two histograms is identical to recording every sample into
    /// one, including counts, sum, min/max, and all bucket contents.
    #[test]
    fn merge_equals_recording_everything(
        a_samples in prop::collection::vec(any::<u64>(), 0..100),
        b_samples in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut a = HistogramData::new();
        let mut b = HistogramData::new();
        let mut both = HistogramData::new();
        for &s in &a_samples {
            a.record(s);
            both.record(s);
        }
        for &s in &b_samples {
            b.record(s);
            both.record(s);
        }
        a.merge(&b);
        prop_assert_eq!(&a, &both);
        prop_assert_eq!(a.count(), (a_samples.len() + b_samples.len()) as u64);
        prop_assert_eq!(a.summary(), both.summary());
    }

    /// A full ring retains exactly the newest `capacity` entries, in push
    /// order, and accounts for every overflow in `dropped()`.
    #[test]
    fn ring_wraparound_drops_oldest_first(
        values in prop::collection::vec(any::<u32>(), 0..200),
        capacity in 1usize..16,
    ) {
        let mut rb = RingBuffer::new(capacity);
        for &v in &values {
            rb.push(v);
        }
        let kept = values.len().min(capacity);
        let expected: Vec<u32> = values[values.len() - kept..].to_vec();
        prop_assert_eq!(rb.iter().copied().collect::<Vec<_>>(), expected);
        prop_assert_eq!(rb.len(), kept);
        prop_assert_eq!(rb.offered(), values.len() as u64);
        prop_assert_eq!(rb.dropped(), (values.len() - kept) as u64);
    }

    /// A capacity-0 ring rejects everything but still counts offers.
    #[test]
    fn ring_capacity_zero_drops_everything(n in 0u64..100) {
        let mut rb = RingBuffer::new(0);
        for v in 0..n {
            rb.push(v);
        }
        prop_assert!(rb.is_empty());
        prop_assert_eq!(rb.offered(), n);
        prop_assert_eq!(rb.dropped(), n);
    }

    /// Histogram merging is associative and preserves count/sum/min/max and
    /// every bucket no matter how the samples are partitioned across jobs —
    /// the property the parallel runner's telemetry merge relies on.
    #[test]
    fn merge_is_partition_independent(
        samples in prop::collection::vec(any::<u64>(), 1..120),
        cut_a in 0usize..120,
        cut_b in 0usize..120,
    ) {
        let cut_a = cut_a.min(samples.len());
        let cut_b = cut_b.min(samples.len()).max(cut_a);
        let mut parts = [HistogramData::new(), HistogramData::new(), HistogramData::new()];
        let mut whole = HistogramData::new();
        for (i, &s) in samples.iter().enumerate() {
            let p = if i < cut_a { 0 } else if i < cut_b { 1 } else { 2 };
            parts[p].record(s);
            whole.record(s);
        }
        // Left-fold (merged[0] <- 1 <- 2) vs right-fold (1 <- 2 first).
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right_tail = parts[1].clone();
        right_tail.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(&right, &whole);
        prop_assert_eq!(left.count(), samples.len() as u64);
        prop_assert_eq!(left.sum(), samples.iter().map(|&s| s as u128).sum::<u128>());
        prop_assert_eq!(left.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(left.max(), *samples.iter().max().unwrap());
        prop_assert_eq!(left.buckets(), whole.buckets());
    }

    /// Ring merging replays retained entries in order and never loses the
    /// offered/dropped accounting of either side.
    #[test]
    fn ring_merge_accounts_for_both_sides(
        a_values in prop::collection::vec(any::<u32>(), 0..60),
        b_values in prop::collection::vec(any::<u32>(), 0..60),
        cap_a in 1usize..12,
        cap_b in 1usize..12,
    ) {
        let mut a = RingBuffer::new(cap_a);
        for &v in &a_values {
            a.push(v);
        }
        let mut b = RingBuffer::new(cap_b);
        for &v in &b_values {
            b.push(v);
        }
        // Pushing b's retained entries by hand must be indistinguishable.
        let mut expect = a.clone();
        for v in b.iter().copied().collect::<Vec<_>>() {
            expect.push(v);
        }
        a.merge_from(&b);
        prop_assert_eq!(a.iter().copied().collect::<Vec<_>>(),
                        expect.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(a.offered(), (a_values.len() + b_values.len()) as u64);
        let retained = a.len() as u64;
        prop_assert_eq!(a.dropped(), a.offered() - retained);
    }

    /// Merge accounting holds at *any* capacity, including zero on either
    /// side: `offered` always counts every entry either ring ever saw and
    /// `dropped` is exactly `offered - retained`.
    #[test]
    fn ring_merge_accounting_covers_zero_capacity(
        a_values in prop::collection::vec(any::<u32>(), 0..40),
        b_values in prop::collection::vec(any::<u32>(), 0..40),
        cap_a in 0usize..8,
        cap_b in 0usize..8,
    ) {
        let mut a = RingBuffer::new(cap_a);
        for &v in &a_values {
            a.push(v);
        }
        let mut b = RingBuffer::new(cap_b);
        for &v in &b_values {
            b.push(v);
        }
        let b_offered = b.offered();
        let b_dropped = b.dropped();
        prop_assert_eq!(b_offered, b_values.len() as u64);
        prop_assert_eq!(b_dropped, b_offered - b.len() as u64);
        a.merge_from(&b);
        prop_assert_eq!(a.offered(), (a_values.len() + b_values.len()) as u64);
        prop_assert_eq!(a.dropped(), a.offered() - a.len() as u64);
        prop_assert!(a.len() <= cap_a);
        // The donor ring is untouched by the merge.
        prop_assert_eq!((b.offered(), b.dropped()), (b_offered, b_dropped));
    }

    /// Mapped merge is plain merge composed with the map on retained
    /// entries; the offered/dropped accounting is identical.
    #[test]
    fn ring_mapped_merge_matches_plain_merge(
        a_values in prop::collection::vec(any::<u32>(), 0..40),
        b_values in prop::collection::vec(any::<u32>(), 0..40),
        cap in 0usize..8,
        offset in 0u32..1000,
    ) {
        let mut plain = RingBuffer::new(cap);
        let mut mapped = RingBuffer::new(cap);
        for &v in &a_values {
            plain.push(v);
            mapped.push(v);
        }
        let mut b = RingBuffer::new(4);
        for &v in &b_values {
            b.push(v % 1000);
        }
        let mut b_shifted = RingBuffer::new(4);
        for &v in &b_values {
            b_shifted.push(v % 1000 + offset);
        }
        plain.merge_from(&b_shifted);
        mapped.merge_from_with(&b, |&v| v + offset);
        prop_assert_eq!(plain.iter().collect::<Vec<_>>(), mapped.iter().collect::<Vec<_>>());
        prop_assert_eq!(plain.offered(), mapped.offered());
        prop_assert_eq!(plain.dropped(), mapped.dropped());
    }

    /// Wallclock-profile merging is partition-independent: splitting the
    /// same phase records across forked profiles and merging back (in
    /// either fold order) reproduces counts, total/child nanoseconds, and
    /// min/max exactly — the property the matrix runner's fork/merge path
    /// relies on for deterministic phase counts.
    #[test]
    fn wall_profile_merge_is_partition_independent(
        records in prop::collection::vec(
            (0usize..4, 0u64..1_000_000, 0u64..1_000), 0..80),
        cut_a in 0usize..80,
        cut_b in 0usize..80,
    ) {
        const PATHS: [&str; 4] = [
            "sim.run",
            "sim.run;sim.epoch",
            "sim.run;sim.epoch_end",
            "bench.run",
        ];
        let cut_a = cut_a.min(records.len());
        let cut_b = cut_b.min(records.len()).max(cut_a);
        let mut whole = WallProfile::new();
        let mut parts = [WallProfile::new(), WallProfile::new(), WallProfile::new()];
        for (i, &(p, total, child)) in records.iter().enumerate() {
            let child = child.min(total);
            whole.record(PATHS[p], total, child);
            let part = if i < cut_a { 0 } else if i < cut_b { 1 } else { 2 };
            parts[part].record(PATHS[p], total, child);
        }
        // Left fold (0 <- 1 <- 2) vs right fold (1 <- 2 first).
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut right_tail = parts[1].clone();
        right_tail.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(&right, &whole);
        for (path, stats) in whole.paths() {
            prop_assert_eq!(left.path(path), Some(stats));
        }
    }

    /// Span rings never panic at capacity zero: pushes and merges (mapped
    /// or not) are safe, retain nothing, and count everything as dropped.
    #[test]
    fn span_ring_capacity_zero_never_panics(n in 0u64..60, m in 0u64..60) {
        let span = |id: u64| Span {
            id,
            parent: id.checked_sub(1).filter(|&p| p > 0),
            name: "sim.mitigation",
            start_ps: id * 10,
            end_ps: id * 10 + 5,
        };
        let mut zero = RingBuffer::new(0);
        for id in 1..=n {
            zero.push(span(id));
        }
        let mut donor = RingBuffer::new(8);
        for id in 1..=m {
            donor.push(span(id));
        }
        zero.merge_from_with(&donor, |s| Span { id: s.id + n, ..*s });
        prop_assert!(zero.is_empty());
        prop_assert_eq!(zero.offered(), n + m);
        prop_assert_eq!(zero.dropped(), n + m);
        // And merging *from* a zero-capacity ring only carries counts.
        let mut sink = RingBuffer::new(4);
        sink.merge_from(&zero);
        prop_assert!(sink.is_empty());
        prop_assert_eq!(sink.dropped(), n + m);
    }
}

/// Nested spans through the hub never panic when the span ring has
/// capacity zero, and the drop accounting stays exact.
#[test]
fn hub_span_stack_survives_zero_capacity_ring() {
    use aqua_telemetry::{Telemetry, TelemetryConfig};
    let t = Telemetry::new(TelemetryConfig {
        span_capacity: 0,
        ..Default::default()
    });
    for depth in 0..5usize {
        let guards: Vec<_> = (0..depth)
            .map(|d| t.span_start("nested", d as u64))
            .collect();
        for g in guards.into_iter().rev() {
            g.end(100);
        }
    }
    assert!(t.spans().is_empty());
    let s = t.summary().unwrap();
    assert_eq!(s.spans_recorded, 10); // 0+1+2+3+4
    assert_eq!(s.spans_dropped, 10);
}

/// The 65 buckets tile the full `u64` range with no gaps or overlaps.
#[test]
fn buckets_tile_u64_contiguously() {
    assert_eq!(HistogramData::bucket_bounds(0), (0, 0));
    for i in 0..BUCKET_COUNT - 1 {
        let (_, hi) = HistogramData::bucket_bounds(i);
        let (next_lo, _) = HistogramData::bucket_bounds(i + 1);
        assert_eq!(hi + 1, next_lo, "gap between buckets {i} and {}", i + 1);
    }
    assert_eq!(HistogramData::bucket_bounds(BUCKET_COUNT - 1).1, u64::MAX);
}
