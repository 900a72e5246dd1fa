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
//! paper's *semi-algebraic* aggregates — only admit the explicit form (or
//! the monotonic-deque operator in `rfv-exec`).

use rfv_types::{Result, RfvError};

use crate::sequence::{window_sum, WindowSpec};

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
/// position. Matches [`compute_explicit`] exactly for integral input and to
/// floating-point accumulation error otherwise.
pub fn compute_pipelined(raw: &[f64], window: WindowSpec) -> Vec<f64> {
    let n = raw.len() as i64;
    let get = |p: i64| -> f64 {
        if (1..=n).contains(&p) {
            raw[(p - 1) as usize]
        } else {
            0.0
        }
    };
    match window {
        WindowSpec::Cumulative => {
            let mut out = Vec::with_capacity(raw.len());
            let mut sum = 0.0;
            for k in 1..=n {
                sum += get(k);
                out.push(sum);
            }
            out
        }
        WindowSpec::Sliding { l, h } => {
            let mut out = Vec::with_capacity(raw.len());
            if n == 0 {
                return out;
            }
            // Seed x̃_1 explicitly, then roll.
            let mut sum = window_sum(raw, 1 - l, 1 + h);
            out.push(sum);
            for k in 2..=n {
                sum += get(k + h) - get(k - l - 1);
                out.push(sum);
            }
            out
        }
    }
}

/// Explicit MIN/MAX computation (semi-algebraic — no pipelined form).
/// Returns `None` at positions whose clipped window is empty (cannot occur
/// for `1 ≤ k ≤ n` with `l, h ≥ 0`, but callers may ask for header/trailer
/// positions).
pub fn compute_minmax_at(raw: &[f64], window: WindowSpec, k: i64, max: bool) -> Option<f64> {
    let n = raw.len() as i64;
    let (lo, hi) = window.bounds(k);
    let lo = lo.max(1);
    let hi = hi.min(n);
    if lo > hi {
        return None;
    }
    minmax_of(
        raw[(lo - 1) as usize..=(hi - 1) as usize].iter().copied(),
        max,
    )
}

/// MAX (`max`) or MIN of `vals`; `None` when there are none. The one
/// MIN/MAX kernel: materialization and §2.3 maintenance both select with
/// it, so a maintained cell holds the bits a rematerialized one would.
pub(crate) fn minmax_of(vals: impl Iterator<Item = f64>, max: bool) -> Option<f64> {
    vals.reduce(|a, b| if (b > a) == max { b } else { a })
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
        let w = WindowSpec::sliding(1, 1).unwrap();
        assert_eq!(compute_minmax_at(&raw, w, 2, false), Some(1.0));
        assert_eq!(compute_minmax_at(&raw, w, 2, true), Some(4.0));
        // Header position: window [-2, 0] clipped to empty.
        assert_eq!(compute_minmax_at(&raw, w, -1, true), None);
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

    /// MIN/MAX point computation agrees with the oracle, including on
    /// adversarial tie-heavy data.
    #[test]
    fn minmax_at_matches_oracle() {
        check(
            "minmax_at_matches_oracle",
            |rng| {
                let (l, h) = gen::window(5)(rng);
                (gen::tie_values(0, 40)(rng), l, h)
            },
            |(raw, l, h)| {
                let w = WindowSpec::sliding(*l, *h).unwrap();
                for max in [false, true] {
                    for k in (1 - h - 2)..=(raw.len() as i64 + l + 2) {
                        assert_eq!(
                            compute_minmax_at(raw, w, k, max),
                            oracle::brute_minmax_at(raw, k - l, k + h, max),
                            "k={k} max={max}"
                        );
                    }
                }
            },
        );
    }
}
