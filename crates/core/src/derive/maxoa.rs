//! The **MaxO Algorithm** (Maximal Overlapping Algorithm, §4).
//!
//! MaxOA derives `ỹ = (l_y, h_y)` from a complete materialized
//! `x̃ = (l_x, h_x)` by *maximally overlapping* shifted view values:
//! `x̃_{k−Δl}` extends the window to the left, `x̃_{k+Δh}` to the right, and
//! the double-counted overlap is removed through *compensation sequences*
//! `z̃^L` and `z̃^H` — themselves regular sliding-window sequences computed
//! by the same pipelined recursion (Figs. 8, 9, 11).
//!
//! Both forms from the paper are implemented:
//!
//! * [`derive_sum_recursive`] — the recursive form with explicit
//!   compensation-sequence state,
//! * [`derive_sum`] — the explicit (closed) form
//!   `ỹ_k = x̃_k + Σ_{i≥1}(x̃_{k−i·w} − x̃_{k−i·w−Δl})
//!               + Σ_{i≥1}(x̃_{k+i·w} − x̃_{k+i·w+Δh})`,
//!   where `w = l_x + h_x + 1` (note `Δl + Δp = w`: the paper's overlap
//!   factor `Δp = 1 + l_x + h_x − Δl` makes the shift stride exactly one
//!   window size).
//!
//! Unlike MinOA, MaxOA extends to the **semi-algebraic** aggregates:
//! [`derive_minmax`] computes `ỹ_k = F(x̃_{k−Δl}, x̃_k, x̃_{k+Δh})`, valid
//! because MIN/MAX are idempotent under overlap (§4.2 closing remark).
//!
//! Preconditions: `0 ≤ Δl ≤ w` and `0 ≤ Δh ≤ w` — the shifted windows must
//! at least touch the original (`Δ = w` still tiles without a gap). The
//! paper states the slightly stricter `l_y ≤ h−1+2·l_x` (`Δl ≤ w−2`); the
//! boundary cases `Δ ∈ {w−1, w}` follow from the same algebra and are
//! covered by the property tests.

use rfv_types::{Result, RfvError};

use crate::sequence::{better, CompleteMinMaxSequence, CompleteSequence};

/// Coverage (`Δl`, `Δh`) and overlap (`Δp`, `Δq`) factors for a derivation,
/// per the paper's definitions in §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Factors {
    pub delta_l: i64,
    pub delta_h: i64,
    /// `Δp = 1 + l_x + h_x − Δl` (lower-side overlap factor).
    pub delta_p: i64,
    /// `Δq = 1 + l_x + h_x − Δh` (upper-side overlap factor).
    pub delta_q: i64,
}

/// Validate the MaxOA preconditions and compute the §4 factors.
pub fn factors(lx: i64, hx: i64, ly: i64, hy: i64) -> Result<Factors> {
    let w = lx + hx + 1;
    let delta_l = ly - lx;
    let delta_h = hy - hx;
    if delta_l < 0 || delta_h < 0 {
        return Err(RfvError::derivation(format!(
            "MaxOA cannot narrow a window: ({lx},{hx}) → ({ly},{hy}) \
             (use MinOA for Δl < 0 or Δh < 0)"
        )));
    }
    if delta_l > w || delta_h > w {
        return Err(RfvError::derivation(format!(
            "MaxOA precondition violated: Δl={delta_l}, Δh={delta_h} must be \
             ≤ w={w} (a single shift must reach the window edge; paper §4: \
             l_y ≤ h−1+2·l_x)"
        )));
    }
    Ok(Factors {
        delta_l,
        delta_h,
        delta_p: 1 + lx + hx - delta_l,
        delta_q: 1 + lx + hx - delta_h,
    })
}

/// Explicit form of MaxOA for SUM-class aggregates.
pub fn derive_sum(view: &CompleteSequence, ly: i64, hy: i64) -> Result<Vec<f64>> {
    let f = factors(view.l(), view.h(), ly, hy)?;
    let w = view.window_size();
    let first = view.first_pos();
    let last = view.last_pos();
    Ok((1..=view.n())
        .map(|k| {
            let mut y = view.get(k);
            // Lower-side series: x̃_{k−i·w} − x̃_{k−i·w−Δl}. Zero once the
            // leading index drops below the stored header.
            let mut m = k - w;
            while m >= first {
                y += view.get(m) - view.get(m - f.delta_l);
                m -= w;
            }
            // Upper-side series: x̃_{k+i·w} − x̃_{k+i·w+Δh}.
            let mut m = k + w;
            while m <= last {
                y += view.get(m) - view.get(m + f.delta_h);
                m += w;
            }
            y
        })
        .collect())
}

/// Recursive form of MaxOA: materializes the lower and upper compensation
/// sequences (`z̃^L`, `z̃^H`) with the §4 recursions
/// `z̃^L_k = x̃_{k−Δl} − x̃_{k−w} + z̃^L_{k−w}` and
/// `z̃^H_k = x̃_{k+Δh} − x̃_{k+w} + z̃^H_{k+w}`, then assembles
/// `ỹ_k = x̃_k + (x̃_{k−Δl} − z̃^L_k) + (x̃_{k+Δh} − z̃^H_k)`.
pub fn derive_sum_recursive(view: &CompleteSequence, ly: i64, hy: i64) -> Result<Vec<f64>> {
    let f = factors(view.l(), view.h(), ly, hy)?;
    let (lx, hx) = (view.l(), view.h());
    let w = view.window_size();
    let n = view.n();

    // z̃^L_m = Σ raw over [m−l_x, m−Δl+h_x]; zero when the window end is
    // before position 1, i.e. m ≤ Δl − h_x. Build bottom-up.
    let zl_start = (f.delta_l - hx).min(1) - w; // definitely-zero region
    let mut zl = vec![0.0; (n - zl_start + 1).max(0) as usize];
    for m in zl_start..=n {
        let idx = (m - zl_start) as usize;
        if m <= f.delta_l - hx {
            zl[idx] = 0.0;
        } else {
            let prev = if m - w >= zl_start {
                zl[(m - w - zl_start) as usize]
            } else {
                0.0
            };
            zl[idx] = view.get(m - f.delta_l) - view.get(m - w) + prev;
        }
    }
    // z̃^H_m = Σ raw over [m+Δh−l_x, m+h_x]; zero when the window start is
    // past position n, i.e. m > n + l_x − Δh. Build top-down.
    let zh_end = (n + lx - f.delta_h).max(n) + w;
    let mut zh = vec![0.0; (zh_end - 1 + 1).max(0) as usize + 1];
    for m in (1..=zh_end).rev() {
        let idx = m as usize;
        if m > n + lx - f.delta_h {
            zh[idx] = 0.0;
        } else {
            let next = if m + w <= zh_end {
                zh[(m + w) as usize]
            } else {
                0.0
            };
            zh[idx] = view.get(m + f.delta_h) - view.get(m + w) + next;
        }
    }

    Ok((1..=n)
        .map(|k| {
            let zl_k = zl[(k - zl_start) as usize];
            let zh_k = zh[k as usize];
            view.get(k) + (view.get(k - f.delta_l) - zl_k) + (view.get(k + f.delta_h) - zh_k)
        })
        .collect())
}

/// MaxOA for MIN/MAX: full coverage by at most three overlapping view
/// windows, combined idempotently. Returns `None` entries only when the
/// query window at a position is entirely devoid of data (impossible for
/// `1 ≤ k ≤ n` with non-empty data).
pub fn derive_minmax(view: &CompleteMinMaxSequence, ly: i64, hy: i64) -> Result<Vec<Option<f64>>> {
    let f = factors(view.l(), view.h(), ly, hy)?;
    let max = view.is_max();
    let combine = |a: Option<f64>, b: Option<f64>| match (a, b) {
        (Some(x), Some(y)) if better(y, x, max) => Some(y),
        (None, y) => y,
        (x, _) => x,
    };
    Ok((1..=view.n())
        .map(|k| {
            let mut best = view.get(k);
            if f.delta_l > 0 {
                best = combine(best, view.get(k - f.delta_l));
            }
            if f.delta_h > 0 {
                best = combine(best, view.get(k + f.delta_h));
            }
            best
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
    fn factors_match_paper_definitions() {
        // x̃ = (2, 1), ỹ = (3, 1): Δl = 1, Δp = 1 + 2 + 1 − 1 = 3, and
        // Δl + Δp = w = 4.
        let f = factors(2, 1, 3, 1).unwrap();
        assert_eq!(f.delta_l, 1);
        assert_eq!(f.delta_p, 3);
        assert_eq!(f.delta_l + f.delta_p, 4);
        assert_eq!(f.delta_h, 0);
        assert_eq!(f.delta_q, 4);
    }

    #[test]
    fn preconditions() {
        assert!(factors(2, 1, 1, 1).is_err(), "narrowing");
        assert!(factors(2, 1, 2, 0).is_err(), "narrowing h");
        assert!(factors(1, 1, 5, 1).is_err(), "Δl = 4 > w = 3");
        assert!(factors(1, 1, 4, 1).is_ok(), "Δl = w boundary allowed");
    }

    #[test]
    fn fig6_worked_example() {
        // The paper's running example: x̃ = (2,1) → ỹ = (3,1) over n = 11.
        let raw: Vec<f64> = (1..=11).map(|i| f64::from(i * i)).collect();
        let view = CompleteSequence::materialize(&raw, 2, 1).unwrap();
        let derived = derive_sum(&view, 3, 1).unwrap();
        assert_close(&derived, &brute_force_sum(&raw, 3, 1));

        // Spot-check the paper's printed identities:
        // y4 = x̃4 + x̃0 and y9 = x̃9 + x̃5 − x̃4 + x̃1 − x̃0.
        let x = |k: i64| view.get(k);
        assert!((derived[3] - (x(4) + x(0))).abs() < 1e-9);
        assert!((derived[8] - (x(9) + x(5) - x(4) + x(1) - x(0))).abs() < 1e-9);
    }

    #[test]
    fn double_sided_derivation() {
        let raw: Vec<f64> = (1..=20).map(|i| f64::from(i % 7)).collect();
        let view = CompleteSequence::materialize(&raw, 2, 2).unwrap();
        let derived = derive_sum(&view, 4, 3).unwrap();
        assert_close(&derived, &brute_force_sum(&raw, 4, 3));
    }

    #[test]
    fn recursive_equals_explicit() {
        let raw: Vec<f64> = (1..=30).map(|i| f64::from((i * 13) % 17)).collect();
        for (lx, hx, ly, hy) in [
            (2, 1, 3, 1),
            (2, 2, 4, 3),
            (1, 1, 2, 2),
            (3, 0, 4, 0),
            (0, 3, 0, 5),
        ] {
            let view = CompleteSequence::materialize(&raw, lx, hx).unwrap();
            let explicit = derive_sum(&view, ly, hy).unwrap();
            let recursive = derive_sum_recursive(&view, ly, hy).unwrap();
            assert_close(&explicit, &recursive);
            assert_close(&explicit, &brute_force_sum(&raw, ly, hy));
        }
    }

    #[test]
    fn identity_derivation() {
        let raw = vec![1.0, 2.0, 3.0];
        let view = CompleteSequence::materialize(&raw, 1, 1).unwrap();
        assert_close(&derive_sum(&view, 1, 1).unwrap(), &view.body());
    }

    #[test]
    fn minmax_derivation() {
        let raw = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for max in [false, true] {
            let view = CompleteMinMaxSequence::materialize(&raw, 2, 1, max).unwrap();
            let derived = derive_minmax(&view, 3, 2).unwrap();
            for (i, d) in derived.iter().enumerate() {
                let k = i as i64 + 1;
                let expected = oracle::brute_minmax_at(&raw, k - 3, k + 2, max);
                assert_eq!(*d, expected, "pos {k} max={max}");
            }
        }
    }

    /// Clamp a widening so MaxOA's precondition Δl, Δh ≤ w holds.
    fn clamp_widening(lx: i64, hx: i64, dl: i64, dh: i64) -> (i64, i64) {
        let w = lx + hx + 1;
        (dl.min(w), dh.min(w))
    }

    #[test]
    fn explicit_matches_brute_force() {
        check(
            "maxoa_explicit_matches_brute_force",
            |rng| (gen::int_values(1, 60)(rng), gen::widening(4, 5)(rng)),
            |&(ref raw, (lx, hx, dl, dh))| {
                let (dl, dh) = clamp_widening(lx, hx, dl, dh);
                let view = CompleteSequence::materialize(raw, lx, hx).unwrap();
                let derived = derive_sum(&view, lx + dl, hx + dh).unwrap();
                let expected = brute_force_sum(raw, lx + dl, hx + dh);
                oracle::assert_close_with(&derived, &expected, 1e-6, "maxoa explicit");
            },
        );
    }

    #[test]
    fn recursive_matches_brute_force() {
        check(
            "maxoa_recursive_matches_brute_force",
            |rng| (gen::int_values(1, 40)(rng), gen::widening(3, 4)(rng)),
            |&(ref raw, (lx, hx, dl, dh))| {
                let (dl, dh) = clamp_widening(lx, hx, dl, dh);
                let view = CompleteSequence::materialize(raw, lx, hx).unwrap();
                let derived = derive_sum_recursive(&view, lx + dl, hx + dh).unwrap();
                let expected = brute_force_sum(raw, lx + dl, hx + dh);
                oracle::assert_close_with(&derived, &expected, 1e-6, "maxoa recursive");
            },
        );
    }

    /// §4.4 coverage: `derive_minmax` against the testkit's independent
    /// brute-force oracle, on tie-heavy data (runs of equal values and
    /// all-equal sequences) where sloppy tie-breaking shows up.
    #[test]
    fn minmax_matches_brute_force() {
        check(
            "maxoa_minmax_matches_brute_force",
            |rng| {
                let raw = gen::tie_values(1, 40)(rng);
                let wid = gen::widening(3, 4)(rng);
                (raw, wid, rng.bool())
            },
            |&(ref raw, (lx, hx, dl, dh), max)| {
                let (dl, dh) = clamp_widening(lx, hx, dl, dh);
                let (ly, hy) = (lx + dl, hx + dh);
                let view = CompleteMinMaxSequence::materialize(raw, lx, hx, max).unwrap();
                let derived = derive_minmax(&view, ly, hy).unwrap();
                let direct = CompleteMinMaxSequence::materialize(raw, ly, hy, max).unwrap();
                for (i, d) in derived.iter().enumerate() {
                    let k = i as i64 + 1;
                    assert_eq!(*d, direct.get(k), "pos {k} max={max} (engine)");
                    assert_eq!(
                        *d,
                        oracle::brute_minmax_at(raw, k - ly, k + hy, max),
                        "pos {k} max={max} (oracle)"
                    );
                }
            },
        );
    }
}
