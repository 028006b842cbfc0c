//! Pure metric derivations: windowed histogram percentiles, the p95
//! sample-count rule, the failed-request split, and the quartile
//! statistics of the stability report. Everything here is a function of
//! its arguments, so each rule is unit-tested on its own.

use std::collections::BTreeMap;

/// Samples a percentile must leave beyond it before it is reported as a
/// steady statistic.
pub const MIN_SAMPLES_BEYOND: u64 = 10;

/// One snapshot of a registry histogram: bucket upper edge → count, as
/// returned by `Histogram::nonzero_buckets`.
pub type Buckets = BTreeMap<u64, u64>;

/// Turns `Histogram::nonzero_buckets` output into a snapshot.
pub fn buckets(pairs: Vec<(u64, u64)>) -> Buckets {
    pairs.into_iter().collect()
}

/// Samples recorded between two snapshots of one histogram, per bucket.
/// The histogram is process-wide and never reset, so this is how a
/// window excludes warmup (and earlier clusters in the same process).
pub fn window(base: &Buckets, end: &Buckets) -> Buckets {
    end.iter()
        .filter_map(|(&edge, &n)| {
            let d = n.saturating_sub(base.get(&edge).copied().unwrap_or(0));
            (d > 0).then_some((edge, d))
        })
        .collect()
}

/// Total samples in a windowed snapshot.
pub fn count(w: &Buckets) -> u64 {
    w.values().sum()
}

/// Lowest value that lands in the registry bucket whose upper edge is
/// `upper`. The registry keeps 32 linear sub-buckets per power of two,
/// exact below 64, so the bucket width is `2^(floor(log2 upper) - 5)`.
pub fn bucket_lower(upper: u64) -> u64 {
    if upper < 64 {
        return upper;
    }
    let shift = 63 - upper.leading_zeros() - 5;
    upper - ((1u64 << shift) - 1)
}

/// The `p`-th percentile (0–100) of a windowed snapshot, interpolated
/// linearly inside the bucket that holds the target rank, so it moves
/// smoothly instead of jumping between bucket edges. `None` when empty.
pub fn percentile(w: &Buckets, p: f64) -> Option<f64> {
    let n = count(w);
    if n == 0 {
        return None;
    }
    let target = (p / 100.0 * n as f64).clamp(0.0, n as f64);
    let mut seen = 0u64;
    for (&upper, &c) in w {
        if (seen + c) as f64 >= target {
            let lower = bucket_lower(upper) as f64;
            let frac = (target - seen as f64) / c as f64;
            return Some(lower + frac * (upper as f64 + 1.0 - lower));
        }
        seen += c;
    }
    w.keys().next_back().map(|&u| u as f64)
}

/// Samples that lie beyond the `p`-th percentile of `n` samples.
pub fn samples_beyond(n: u64, p: f64) -> u64 {
    n - ((p / 100.0) * n as f64).ceil().min(n as f64) as u64
}

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// [`MIN_SAMPLES_BEYOND`] of them must lie beyond it.
pub fn percentile_supported(n: u64, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_SAMPLES_BEYOND
}

/// Where the offered transactions of one window went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailedSplit {
    /// `1 - committed / offered`: everything offered and not committed.
    pub failed: f64,
    /// Conflict and logic aborts, as a share of offered.
    pub aborted: f64,
    /// Growth of the in-flight backlog over the window (entries proposed
    /// and not yet executed, in transactions), as a share of offered.
    /// Negative when the backlog shrank.
    pub in_flight: f64,
    /// The rest: requests shed at the capped pending pool.
    pub shed: f64,
}

/// Splits the failed share of a window. `offered` counts arrivals over
/// the window, `committed` the transactions executed at the observer,
/// `aborted` the observer's aborts, and `backlog_growth` how many more
/// transactions were in flight when the window closed than when it
/// opened. A transaction still in flight at the close was offered inside
/// the window but not committed, so it counts as failed; the split keeps
/// it apart from shedding so the two are not confused.
pub fn failed_split(
    offered: f64,
    committed: f64,
    aborted: f64,
    backlog_growth: f64,
) -> FailedSplit {
    let offered = offered.max(1.0);
    let failed = 1.0 - committed / offered;
    let aborted = aborted / offered;
    let in_flight = backlog_growth / offered;
    FailedSplit {
        failed,
        aborted,
        in_flight,
        shed: (failed - aborted - in_flight).max(0.0),
    }
}

/// A run's `attempted` and `failed`: the transactions the observer
/// executed in the measured windows, committed or aborted, and of those
/// the ones the database failed to execute, conflict aborts the fallback
/// did not rescue. A logic abort (SmallBank's insufficient funds) is the
/// transaction's own outcome, the same on every replica, so it is
/// attempted and not failed. `committed` is the observer's count;
/// `aborted` (all aborts) and `conflict_aborted` are summed over all
/// `nodes` replicas, which execute the same entries, so each becomes its
/// per-node mean rounded up: one abort anywhere counts. Transactions still
/// in flight when a window closes have no outcome yet and count in
/// neither; the offered-but-not-committed share is the per-layer
/// `core.failed_frac`.
pub fn outcome(committed: u64, aborted: u64, conflict_aborted: u64, nodes: usize) -> (u64, u64) {
    let per_node = |n: u64| n.div_ceil(nodes.max(1) as u64);
    (committed + per_node(aborted), per_node(conflict_aborted))
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// which is how the spread of repeated runs is judged.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Run-to-run spread: interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Largest distance of any run from the median, as a share of it.
pub fn max_deviation(values: &[f64]) -> f64 {
    let m = median(values);
    values
        .iter()
        .map(|v| (v - m).abs() / m.abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use massbft_telemetry::registry::Registry;

    #[test]
    fn bucket_lower_brackets_every_recorded_value() {
        let reg = Registry::default();
        for v in (0..5000u64).chain((1..200).map(|i| i * 7919)) {
            let h = reg.histogram(&format!("v{v}"));
            h.record(v);
            let (upper, n) = h.nonzero_buckets()[0];
            assert_eq!(n, 1);
            assert!(bucket_lower(upper) <= v && v <= upper, "{v} in ({upper})");
        }
    }

    #[test]
    fn windowing_excludes_warmup() {
        let reg = Registry::default();
        let h = reg.histogram("lat");
        // Warmup: slow first entries.
        for _ in 0..500 {
            h.record(900_000);
        }
        let base = buckets(h.nonzero_buckets());
        for v in 0..1000u64 {
            h.record(80_000 + v * 20);
        }
        let w = window(&base, &buckets(h.nonzero_buckets()));
        assert_eq!(count(&w), 1000);
        let p50 = percentile(&w, 50.0).unwrap();
        let p95 = percentile(&w, 95.0).unwrap();
        assert!((p50 - 90_000.0).abs() / 90_000.0 < 0.02, "p50 {p50}");
        assert!((p95 - 99_000.0).abs() / 99_000.0 < 0.02, "p95 {p95}");
        // The unwindowed histogram is dominated by the warmup tail.
        assert!(h.percentile(95.0) > 800_000);
    }

    #[test]
    fn percentile_interpolates_inside_a_bucket() {
        let mut w = Buckets::new();
        // One bucket [65536, 67583] holding 100 samples.
        let upper = 67_583;
        assert_eq!(bucket_lower(upper), 65_536);
        w.insert(upper, 100);
        let p25 = percentile(&w, 25.0).unwrap();
        let p75 = percentile(&w, 75.0).unwrap();
        assert!(p25 > 65_536.0 && p25 < p75 && p75 < 67_584.0);
        assert_eq!(percentile(&Buckets::new(), 50.0), None);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1150, 95.0), 57);
        assert!(percentile_supported(1150, 95.0));
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(percentile_supported(200, 95.0));
        assert!(!percentile_supported(199, 95.0));
        assert!(!percentile_supported(900, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(!percentile_supported(0, 50.0));
    }

    #[test]
    fn failed_counts_entries_in_flight() {
        // 120k offered, 117k committed, 1k aborted; the backlog grew by
        // 1.5k between the window edges, so 0.5k were shed.
        let s = failed_split(120_000.0, 117_000.0, 1_000.0, 1_500.0);
        assert!((s.failed - 0.025).abs() < 1e-12);
        assert!((s.aborted - 1_000.0 / 120_000.0).abs() < 1e-12);
        assert!((s.in_flight - 1_500.0 / 120_000.0).abs() < 1e-12);
        assert!((s.shed - 500.0 / 120_000.0).abs() < 1e-12);
        // A shrinking backlog can make committed exceed offered: failed
        // goes negative and nothing is shed.
        let s = failed_split(1_000.0, 1_050.0, 0.0, -50.0);
        assert!(s.failed < 0.0 && s.in_flight < 0.0);
        assert_eq!(s.shed, 0.0);
    }

    #[test]
    fn outcome_fails_only_unrescued_conflict_aborts() {
        assert_eq!(outcome(90_000, 0, 0, 8), (90_000, 0));
        // 8 replicas each logic-aborting the same 12 transactions.
        assert_eq!(outcome(90_000, 96, 0, 8), (90_012, 0));
        // Of 16 aborts per replica, 4 are conflicts left unrescued.
        assert_eq!(outcome(90_000, 128, 32, 8), (90_016, 4));
        // A single conflict abort on one replica is still a failure.
        assert_eq!(outcome(90_000, 1, 1, 8), (90_001, 1));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 22.5));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert!((max_deviation(&v) - 4.5 / 5.5).abs() < 1e-12);
    }
}
