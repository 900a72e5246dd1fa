//! Derivability of sequence queries from materialized sequence data
//! (§3–§5 of the paper).
//!
//! Given a materialized *complete* sequence view `x̃ = (l_x, h_x)` and an
//! incoming query `ỹ = (l_y, h_y)` over the same base data, the algorithms
//! here compute `ỹ` **without touching the raw data**:
//!
//! | materialized | query    | algorithm | module |
//! |--------------|----------|-----------|--------|
//! | cumulative   | raw      | `x_k = c̃_k − c̃_{k−1}` | [`raw`] |
//! | cumulative   | sliding  | `ỹ_k = c̃_{k+h} − c̃_{k−l−1}` | [`cumulative`] |
//! | sliding      | raw      | telescoping series (§3.2) | [`raw`] |
//! | sliding      | cumulative | MinOA positive series | [`cumulative`] |
//! | sliding      | sliding (wider) | **MaxOA** (§4) / **MinOA** (§5) | [`maxoa`], [`minoa`] |
//! | sliding MIN/MAX | sliding (wider) | MaxOA coverage | [`maxoa`] |
//!
//! [`choose`] implements the paper's §7 guidance for picking between the
//! two: MinOA for the SUM family (fewer terms, no compensation), MaxOA for
//! MIN/MAX (MinOA's subtraction is meaningless for semi-algebraic
//! aggregates).
//!
//! Those modules hold the paper's *explicit* forms, one series per
//! position. [`linear`] computes the same SUM derivations in one pass
//! each; it is what queries run (see `crate::source`).

pub mod cumulative;
pub mod linear;
pub mod maxoa;
pub mod minoa;
pub mod raw;

use rfv_types::{Result, RfvError};

use crate::sequence::{CompleteSequence, WindowSpec};

/// Which derivation algorithm answers a query from a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// View spec equals query spec — read the view body directly.
    Exact,
    /// View is cumulative — two-point difference (§3.1).
    FromCumulative,
    /// Maximal Overlapping Algorithm (§4).
    MaxOA,
    /// Minimal Overlapping Algorithm (§5).
    MinOA,
}

/// Pick an algorithm for deriving `query` from a view with window
/// `view` under SUM/COUNT/AVG semantics.
pub fn choose(view: WindowSpec, query: WindowSpec) -> Result<Algorithm> {
    match (view, query) {
        (v, q) if v == q => Ok(Algorithm::Exact),
        (WindowSpec::Cumulative, WindowSpec::Sliding { .. }) => Ok(Algorithm::FromCumulative),
        (WindowSpec::Sliding { .. }, WindowSpec::Cumulative) => Ok(Algorithm::MinOA),
        (WindowSpec::Sliding { .. }, WindowSpec::Sliding { .. }) => {
            // MinOA handles every (l_y, h_y), wider or narrower; the paper's
            // evaluation found no clear winner, and MinOA needs no
            // compensation sequence, so it is the default for SUM.
            Ok(Algorithm::MinOA)
        }
        (WindowSpec::Cumulative, WindowSpec::Cumulative) => Ok(Algorithm::Exact),
    }
}

/// High-level SUM derivation: the view body on an exact match, MinOA in
/// its one-pass form otherwise.
pub fn derive_sum(view: &CompleteSequence, ly: i64, hy: i64) -> Result<Vec<f64>> {
    WindowSpec::sliding(ly, hy)?;
    if ly == view.l() && hy == view.h() {
        return Ok(view.body());
    }
    linear::sliding_from_sliding(view, ly, hy)
}

/// How many of the positions `1..=n` lie inside `window` at position `k`:
/// COUNT over a dense sequence, and AVG's divisor, as position arithmetic.
pub fn window_cardinality(window: WindowSpec, n: i64, k: i64) -> i64 {
    match window {
        WindowSpec::Cumulative => k,
        WindowSpec::Sliding { l, h } => (k + h).min(n) - (k - l).max(1) + 1,
    }
}

/// Brute-force ground truth: compute the `(l_y, h_y)` sliding-window SUM
/// sequence directly from raw data. Tests compare every derivation path
/// against this.
pub fn brute_force_sum(raw: &[f64], ly: i64, hy: i64) -> Vec<f64> {
    let n = raw.len() as i64;
    (1..=n)
        .map(|k| crate::sequence::window_sum(raw, k - ly, k + hy))
        .collect()
}

/// Validate that a derived body matches the brute force within floating
/// point tolerance. Returns the maximum absolute error.
pub fn max_abs_error(derived: &[f64], expected: &[f64]) -> Result<f64> {
    if derived.len() != expected.len() {
        return Err(RfvError::internal(format!(
            "length mismatch: {} vs {}",
            derived.len(),
            expected.len()
        )));
    }
    Ok(derived
        .iter()
        .zip(expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_picks_expected_algorithms() {
        let c = WindowSpec::Cumulative;
        let s21 = WindowSpec::sliding(2, 1).unwrap();
        let s31 = WindowSpec::sliding(3, 1).unwrap();
        assert_eq!(choose(s21, s21).unwrap(), Algorithm::Exact);
        assert_eq!(choose(c, s31).unwrap(), Algorithm::FromCumulative);
        assert_eq!(choose(s21, s31).unwrap(), Algorithm::MinOA);
        assert_eq!(choose(s21, c).unwrap(), Algorithm::MinOA);
        assert_eq!(choose(c, c).unwrap(), Algorithm::Exact);
    }

    #[test]
    fn derive_sum_exact_match_reads_body() {
        let raw = [1.0, 2.0, 3.0, 4.0];
        let view = CompleteSequence::materialize(&raw, 2, 1).unwrap();
        assert_eq!(derive_sum(&view, 2, 1).unwrap(), view.body());
    }

    #[test]
    fn window_cardinality_clips_at_both_ends() {
        let w = WindowSpec::sliding(2, 1).unwrap();
        let counts: Vec<i64> = (1..=5).map(|k| window_cardinality(w, 5, k)).collect();
        assert_eq!(counts, vec![2, 3, 4, 4, 3]);
        assert_eq!(window_cardinality(WindowSpec::Cumulative, 5, 4), 4);
    }

    #[test]
    fn max_abs_error_checks_lengths() {
        assert!(max_abs_error(&[1.0], &[1.0, 2.0]).is_err());
        assert_eq!(max_abs_error(&[1.0, 2.0], &[1.0, 2.5]).unwrap(), 0.5);
    }
}
