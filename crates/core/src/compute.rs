//! Computation strategies for sequence values (§2.2 of the paper).
//!
//! The paper contrasts the *explicit form* — `O(W)` raw-value reads per
//! position — with a *pipelined recursion* needing three operations per
//! position regardless of window size:
//!
//! * cumulative: `x̃_k = x̃_{k−1} + x_k`
//! * sliding:    `x̃_k = x̃_{k−1} + x_{k+h} − x_{k−l−1}`
//!
//! Both are implemented here for SUM (the paper's focus; COUNT is trivial
//! and AVG = SUM/COUNT) and validated against each other. MIN/MAX — the
//! paper's *semi-algebraic* aggregates — have no such recursion: they run
//! through the sliding-extremum kernel (`rfv_expr::agg::sliding_extremum`).

use rfv_types::{Result, RfvError};

use crate::sequence::{window_sum, CompleteSequence, CumulativeSequence, WindowSpec};

/// Explicit form: recompute each window from raw data. `O(n · W)`.
pub fn compute_explicit(raw: &[f64], window: WindowSpec) -> Vec<f64> {
    let n = raw.len() as i64;
    (1..=n)
        .map(|k| {
            let (lo, hi) = window.bounds(k);
            window_sum(raw, lo, hi)
        })
        .collect()
}

/// Pipelined form (§2.2): `O(n)` with a constant number of operations per
/// position — the body of the materialized sequence, computed by the same
/// recurrence. Matches [`compute_explicit`] exactly for integral input and
/// to floating-point accumulation error otherwise.
pub fn compute_pipelined(raw: &[f64], window: WindowSpec) -> Vec<f64> {
    match window {
        WindowSpec::Cumulative => CumulativeSequence::materialize(raw).body().to_vec(),
        // Offsets beyond `n` reach only the zeros outside `1..=n`.
        WindowSpec::Sliding { l, h } => {
            let n = raw.len() as i64;
            CompleteSequence::materialize(raw, l.min(n), h.min(n))
                .expect("a sliding window has non-negative offsets")
                .body()
        }
    }
}

/// The §2.2 cache-size claim: the pipelined evaluator needs a cache of
/// `W(k) + 2` values. This helper returns that bound for documentation and
/// assertion purposes.
pub fn pipelined_cache_size(window: WindowSpec) -> Result<i64> {
    match window.window_size() {
        Some(w) => Ok(w + 2),
        None => Err(RfvError::derivation(
            "cumulative windows have unbounded window size; the pipelined \
             evaluator caches only the running value",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::CompleteMinMaxSequence;
    use rfv_testkit::{check, gen, oracle};

    #[test]
    fn cumulative_both_forms() {
        let raw = [1.0, 2.0, 3.0];
        assert_eq!(
            compute_explicit(&raw, WindowSpec::Cumulative),
            vec![1.0, 3.0, 6.0]
        );
        assert_eq!(
            compute_pipelined(&raw, WindowSpec::Cumulative),
            vec![1.0, 3.0, 6.0]
        );
    }

    #[test]
    fn sliding_both_forms() {
        let raw = [1.0, 2.0, 3.0, 4.0, 5.0];
        let w = WindowSpec::sliding(1, 1).unwrap();
        let expect = vec![3.0, 6.0, 9.0, 12.0, 9.0];
        assert_eq!(compute_explicit(&raw, w), expect);
        assert_eq!(compute_pipelined(&raw, w), expect);
    }

    #[test]
    fn empty_input() {
        let w = WindowSpec::sliding(2, 3).unwrap();
        assert!(compute_explicit(&[], w).is_empty());
        assert!(compute_pipelined(&[], w).is_empty());
    }

    #[test]
    fn minmax_explicit() {
        let raw = [3.0, 1.0, 4.0, 1.0, 5.0];
        let min = CompleteMinMaxSequence::materialize(&raw, 1, 1, false).unwrap();
        let max = CompleteMinMaxSequence::materialize(&raw, 1, 1, true).unwrap();
        assert_eq!(min.get(2), Some(1.0));
        assert_eq!(max.get(2), Some(4.0));
        // Header position: window [-2, 0] clipped to empty.
        assert_eq!(max.get(-1), None);
    }

    #[test]
    fn cache_size_matches_paper_claim() {
        assert_eq!(
            pipelined_cache_size(WindowSpec::sliding(2, 1).unwrap()).unwrap(),
            6,
            "W(k)+2 = (2+1+1)+2"
        );
        assert!(pipelined_cache_size(WindowSpec::Cumulative).is_err());
    }

    /// Fig. 3's relationship: the two computation forms agree — and both
    /// agree with the testkit's independent brute-force oracle.
    #[test]
    fn explicit_equals_pipelined() {
        check(
            "explicit_equals_pipelined",
            |rng| {
                let (l, h) = gen::window(7)(rng);
                (gen::int_values(0, 60)(rng), l, h)
            },
            |(raw, l, h)| {
                let w = WindowSpec::sliding(*l, *h).unwrap();
                assert_eq!(compute_explicit(raw, w), compute_pipelined(raw, w));
                oracle::assert_close_with(
                    &compute_explicit(raw, w),
                    &oracle::brute_sum(raw, *l, *h),
                    1e-9,
                    "explicit vs brute-force",
                );
                assert_eq!(
                    compute_explicit(raw, WindowSpec::Cumulative),
                    compute_pipelined(raw, WindowSpec::Cumulative)
                );
                oracle::assert_close_with(
                    &compute_pipelined(raw, WindowSpec::Cumulative),
                    &oracle::brute_cumulative(raw),
                    1e-9,
                    "cumulative vs brute-force",
                );
            },
        );
    }

    /// The materialized MIN/MAX sequence agrees with the oracle at every
    /// position, header and trailer included, on adversarial tie-heavy
    /// data.
    #[test]
    fn minmax_at_matches_oracle() {
        check(
            "minmax_at_matches_oracle",
            |rng| {
                let (l, h) = gen::window(5)(rng);
                (gen::tie_values(0, 40)(rng), l, h)
            },
            |(raw, l, h)| {
                for max in [false, true] {
                    let seq = CompleteMinMaxSequence::materialize(raw, *l, *h, max).unwrap();
                    for k in (1 - h - 2)..=(raw.len() as i64 + l + 2) {
                        assert_eq!(
                            seq.get(k),
                            oracle::brute_minmax_at(raw, k - l, k + h, max),
                            "k={k} max={max}"
                        );
                    }
                }
            },
        );
    }
}
