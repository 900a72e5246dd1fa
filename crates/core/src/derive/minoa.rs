//! The **MinO Algorithm** (Minimal Overlapping Algorithm, §5).
//!
//! MinOA constructs the target value `ỹ_k` as the difference of two
//! *tilings* of disjoint (minimally overlapping) view windows (Fig. 12):
//!
//! * the **positive sequence** tiles the prefix `(−∞, k + h_y]` with view
//!   windows right-justified at `k + h_y`: positions
//!   `k + Δh − i·w` for `i ≥ 0`;
//! * the **negative sequence** tiles the prefix `(−∞, k − l_y − 1]`:
//!   positions `k − Δl − i·w` for `i ≥ 1`;
//!
//! giving the explicit form
//!
//! ```text
//! ỹ_k = Σ_{i≥0} x̃_{k+Δh−i·w}  −  Σ_{i≥1} x̃_{k−Δl−i·w},
//! w = l_x + h_x + 1, Δl = l_y − l_x, Δh = h_y − h_x.
//! ```
//!
//! Both series terminate at the sequence header (completeness), matching
//! the paper's `i_up = ⌈(k + h_y) / w_x⌉` bound. Because the tilings are
//! exact (consecutive windows are adjacent, never overlapping), the shift
//! strides are simply `w`; in exchange MinOA relies on subtraction and is
//! therefore limited to SUM/COUNT/AVG — no MIN/MAX (§5, §7).
//!
//! Unlike MaxOA, MinOA has **no window-size precondition**: any
//! `(l_y, h_y)` — wider *or narrower* than the view — is derivable,
//! including the cumulative sequence (`Δ` series tiling the whole prefix,
//! see [`crate::derive::cumulative::cumulative_from_sliding`]).

use rfv_types::Result;

use crate::sequence::{CompleteSequence, WindowSpec};

/// Number of view-value accesses the explicit form performs for position
/// `k`. Non-decreasing in `k`, so `terms_at(…, n)` is the per-position
/// maximum [`crate::rewrite`] reports.
pub fn terms_at(view: &CompleteSequence, ly: i64, hy: i64, k: i64) -> i64 {
    let w = view.window_size();
    let first = view.first_pos();
    let count_series = |start: i64| -> i64 {
        if start < first {
            0
        } else {
            (start - first) / w + 1
        }
    };
    count_series(k + (hy - view.h())) + count_series(k - (ly - view.l()) - w)
}

/// Explicit form of MinOA for SUM-class aggregates.
pub fn derive_sum(view: &CompleteSequence, ly: i64, hy: i64) -> Result<Vec<f64>> {
    WindowSpec::sliding(ly, hy)?;
    let w = view.window_size();
    let first = view.first_pos();
    let delta_l = ly - view.l();
    let delta_h = hy - view.h();
    Ok((1..=view.n())
        .map(|k| {
            // Positive sequence: head right-justified with the query window.
            let mut sum = 0.0;
            let mut m = k + delta_h;
            while m >= first {
                sum += view.get(m);
                m -= w;
            }
            // Negative sequence: fills the gap left of the query window.
            let mut m = k - delta_l - w;
            while m >= first {
                sum -= view.get(m);
                m -= w;
            }
            sum
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::brute_force_sum;
    use rfv_testkit::{check, gen, oracle};

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-6, "pos {}: {x} vs {y}", i + 1);
        }
    }

    #[test]
    fn widening_derivation() {
        let raw: Vec<f64> = (1..=15).map(f64::from).collect();
        let view = CompleteSequence::materialize(&raw, 2, 1).unwrap();
        let derived = derive_sum(&view, 3, 1).unwrap();
        assert_close(&derived, &brute_force_sum(&raw, 3, 1));
    }

    #[test]
    fn narrowing_derivation() {
        // MinOA also narrows — MaxOA cannot.
        let raw: Vec<f64> = (1..=15).map(|i| f64::from(i * 3 % 11)).collect();
        let view = CompleteSequence::materialize(&raw, 3, 2).unwrap();
        let derived = derive_sum(&view, 1, 0).unwrap();
        assert_close(&derived, &brute_force_sum(&raw, 1, 0));
    }

    #[test]
    fn very_wide_target() {
        // Δl far beyond w: MaxOA rejects this, MinOA handles it.
        let raw: Vec<f64> = (1..=12).map(f64::from).collect();
        let view = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        let derived = derive_sum(&view, 9, 7).unwrap();
        assert_close(&derived, &brute_force_sum(&raw, 9, 7));
    }

    #[test]
    fn tiling_collision_cancels() {
        // Δl + Δh ≡ 0 (mod w): positive and negative series share
        // positions; the signed arithmetic must cancel them exactly.
        // x̃ = (1, 1) (w = 3), ỹ = (3, 2): Δl = 2, Δh = 1, Δl + Δh = 3 = w.
        let raw: Vec<f64> = (1..=10).map(f64::from).collect();
        let view = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        let derived = derive_sum(&view, 3, 2).unwrap();
        assert_close(&derived, &brute_force_sum(&raw, 3, 2));
    }

    #[test]
    fn identity_and_single_value_input() {
        let view = CompleteSequence::materialize(&[7.0], 2, 1).unwrap();
        assert_close(&derive_sum(&view, 2, 1).unwrap(), &[7.0]);
        assert_close(&derive_sum(&view, 5, 5).unwrap(), &[7.0]);
    }

    #[test]
    fn term_count_matches_paper_bound() {
        let raw: Vec<f64> = (1..=40).map(f64::from).collect();
        let view = CompleteSequence::materialize(&raw, 2, 1).unwrap();
        // i_up ≈ (k + h_y) / w terms in the positive series.
        let terms = terms_at(&view, 3, 1, 20);
        let w = view.window_size();
        assert!(terms <= 2 * ((20 + 1) / w + 2), "terms = {terms}");
        assert!(terms >= (20 + 1) / w, "terms = {terms}");
    }

    /// MinOA has no widening precondition: any target (ly, hy) works,
    /// including narrowing. Checked against the testkit oracle.
    #[test]
    fn matches_brute_force_for_any_target() {
        check(
            "minoa_matches_brute_force_for_any_target",
            |rng| {
                let raw = gen::int_values(1, 60)(rng);
                let (lx, hx) = gen::window(4)(rng);
                let ly = rng.i64_in(0, 11);
                let hy = rng.i64_in(0, 11);
                (raw, lx, hx, ly, hy)
            },
            |&(ref raw, lx, hx, ly, hy)| {
                let view = CompleteSequence::materialize(raw, lx, hx).unwrap();
                let derived = derive_sum(&view, ly, hy).unwrap();
                oracle::assert_close_with(
                    &derived,
                    &oracle::brute_sum(raw, ly, hy),
                    1e-6,
                    "minoa vs brute-force",
                );
            },
        );
    }

    /// MinOA and MaxOA agree wherever MaxOA's precondition holds.
    #[test]
    fn agrees_with_maxoa() {
        check(
            "minoa_agrees_with_maxoa",
            |rng| (gen::int_values(1, 40)(rng), gen::widening(3, 4)(rng)),
            |&(ref raw, (lx, hx, dl, dh))| {
                let w = lx + hx + 1;
                let (dl, dh) = (dl.min(w), dh.min(w));
                let view = CompleteSequence::materialize(raw, lx, hx).unwrap();
                let a = derive_sum(&view, lx + dl, hx + dh).unwrap();
                let b = crate::derive::maxoa::derive_sum(&view, lx + dl, hx + dh).unwrap();
                oracle::assert_close_with(&a, &b, 1e-6, "minoa vs maxoa");
            },
        );
    }
}
