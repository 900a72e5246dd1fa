//! Order statistics: the percentile rule the benchmark reports under,
//! and the quartile spread its regression gate uses.

/// Samples a percentile needs beyond it before it may be reported.
pub const TAIL_SAMPLES: f64 = 10.0;

/// Value at quantile `q` (0..=1) of an ascending slice, by linear
/// interpolation between closest ranks. Empty input reads as 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The highest of p50 / p90 / p95 / p99 that still has at least
/// [`TAIL_SAMPLES`] samples beyond it: p95 needs 200 samples, p99 1000.
pub fn top_percentile(samples: usize) -> u32 {
    [99u32, 95, 90]
        .into_iter()
        .find(|p| samples as f64 * f64::from(100 - p) / 100.0 >= TAIL_SAMPLES)
        .unwrap_or(50)
}

/// Whether `samples` timed statements support reporting `pct`.
pub fn supports(samples: usize, pct: u32) -> bool {
    top_percentile(samples) >= pct
}

/// Median, p95 (only meaningful when [`supports`]`(n, 95)`) and the
/// highest percentile the sample count supports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub top_pct: u32,
    pub top: f64,
}

/// `values` in the order they were taken; p50 and p95 are
/// [`blocked_quantile`]s.
pub fn summarize(values: &[f64]) -> Summary {
    let top_pct = top_percentile(values.len());
    Summary {
        n: values.len(),
        p50: blocked_quantile(values, 0.5),
        p95: blocked_quantile(values, 0.95),
        top_pct,
        top: quantile_sorted(&sorted(values), f64::from(top_pct) / 100.0),
    }
}

/// Most blocks a run's samples are cut into, and fewest samples a block
/// may hold: each block can carry a p95 of its own under the rule above.
pub const MAX_BLOCKS: usize = 8;
pub const MIN_BLOCK_SAMPLES: usize = 200;

/// Cut `n` samples, in the order they were taken, into up to
/// [`MAX_BLOCKS`] consecutive blocks of at least [`MIN_BLOCK_SAMPLES`].
fn blocks(n: usize) -> Vec<std::ops::Range<usize>> {
    let k = (n / MIN_BLOCK_SAMPLES).clamp(1, MAX_BLOCKS);
    (0..k).map(|i| i * n / k..(i + 1) * n / k).collect()
}

/// Quantile `q` of `values` (in the order they were taken) as the median
/// over blocks of each block's own quantile. The host this runs on stalls
/// for seconds at a time; a stall lands in one or two blocks and the
/// median over blocks passes it by, where the quantile over all samples
/// — p95 above all — would be made of little else.
pub fn blocked_quantile(values: &[f64], q: f64) -> f64 {
    let per_block: Vec<f64> = blocks(values.len())
        .into_iter()
        .map(|r| quantile_sorted(&sorted(&values[r]), q))
        .collect();
    median(&per_block)
}

/// Events per second as the median over the same blocks: `done_s` holds
/// each event's completion time, ascending, on a clock that started at 0;
/// a block's rate is its event count over the time from the previous
/// block's last event to its own.
pub fn blocked_rate(done_s: &[f64]) -> f64 {
    let mut from = 0.0;
    let rates: Vec<f64> = blocks(done_s.len())
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let to = done_s[r.end - 1];
            let rate = r.len() as f64 / (to - from).max(1e-9);
            from = to;
            rate
        })
        .collect();
    median(&rates)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the spread computed here is the
/// one the external driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples() {
        assert_eq!(top_percentile(200), 95);
        assert!(supports(200, 95));
        assert_eq!(top_percentile(199), 90);
        assert!(!supports(199, 95));
        assert_eq!(top_percentile(1000), 99);
        assert_eq!(top_percentile(99), 50);
        assert_eq!(top_percentile(100), 90);
    }

    #[test]
    fn blocked_statistics_pass_a_stall_by() {
        // 1 600 samples of 1 ms, 10 per second; the third block of eight
        // ran at a tenth of the speed.
        let mut values = vec![1.0; 1_600];
        let mut done = Vec::with_capacity(1_600);
        let mut t = 0.0;
        for (i, v) in values.iter_mut().enumerate() {
            let stalled = (400..600).contains(&i);
            if stalled {
                *v = 10.0;
            }
            t += if stalled { 1.0 } else { 0.1 };
            done.push(t);
        }
        assert_eq!(blocked_quantile(&values, 0.95), 1.0);
        assert_eq!(quantile_sorted(&sorted(&values), 0.95), 10.0);
        assert!((blocked_rate(&done) - 10.0).abs() < 1e-9);
        // Fewer than two blocks' worth of samples: one block, the plain figure.
        assert_eq!(blocked_quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(blocked_rate(&[0.5, 1.0, 1.5]), 2.0);
        assert_eq!(blocked_rate(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile_sorted(&v, 0.25), 2.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
