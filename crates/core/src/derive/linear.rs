//! The §3–§6 SUM derivations in one pass: `O(n + l + h)` each.
//!
//! The explicit forms in [`super::minoa`], [`super::cumulative`] and
//! [`super::raw`] walk one series of view values *per position*
//! (`O(n²/w)` in total). All of those series are the same object — view
//! windows `w = l_x + h_x + 1` apart tile a prefix of the raw data exactly —
//! so one **strided prefix sum** over the stored view
//!
//! ```text
//! P_m = Σ_{i≥0} x̃_{m−i·w} = x̃_m + P_{m−w}        (= x_1 + … + x_{m+h_x})
//! ```
//!
//! built once from the header up answers every position by lookup. These
//! are windowed recurrences in the sense of Maslen & Rockmore, "How to
//! Compute a Moving Sum"; the query path (`crate::source`) uses only
//! these forms, the explicit ones stay as the paper's reference forms and
//! as test oracles.
//!
//! Integer-valued inputs stay exact (every intermediate is an integer
//! below 2⁵³); float results differ from a fresh summation by rounding
//! that grows with the magnitude of the running total, which is what the
//! input-scaled tolerance of the differential tests allows for.

use rfv_types::Result;

use super::cumulative::sliding_from_cumulative;
use crate::sequence::{CompleteSequence, CumulativeSequence, WindowSpec};

/// `P_m` for every stored position of a complete sliding view.
struct StridedPrefix {
    first: i64,
    w: i64,
    sums: Vec<f64>,
}

impl StridedPrefix {
    fn new(view: &CompleteSequence) -> Self {
        let w = view.window_size();
        let stride = w as usize;
        let mut sums: Vec<f64> =
            Vec::with_capacity((view.last_pos() - view.first_pos() + 1) as usize);
        for (i, (_, x)) in view.entries().enumerate() {
            let below = if i >= stride { sums[i - stride] } else { 0.0 };
            sums.push(x + below);
        }
        StridedPrefix {
            first: view.first_pos(),
            w,
            sums,
        }
    }

    /// `P_m` for any `m`: 0 below the header; past the trailer `x̃ = 0`,
    /// so `P_m` is the last stored `P` of `m`'s stride class.
    fn at(&self, m: i64) -> f64 {
        let last = self.first + self.sums.len() as i64 - 1;
        let m = if m > last {
            m - (m - last + self.w - 1) / self.w * self.w
        } else {
            m
        };
        if m < self.first {
            0.0
        } else {
            self.sums[(m - self.first) as usize]
        }
    }
}

/// Sliding `(l_y, h_y)` from a complete sliding view, wider or narrower
/// (§5, MinOA): the positive series is `P_{k+Δh}`, the negative one
/// `P_{k−Δl−w}`.
pub fn sliding_from_sliding(view: &CompleteSequence, ly: i64, hy: i64) -> Result<Vec<f64>> {
    WindowSpec::sliding(ly, hy)?;
    let p = StridedPrefix::new(view);
    let up = hy - view.h();
    let down = ly - view.l() + view.window_size();
    Ok((1..=view.n())
        .map(|k| p.at(k + up) - p.at(k - down))
        .collect())
}

/// The cumulative sequence from a complete sliding view: `c̃_k = P_{k−h_x}`.
pub fn cumulative_from_sliding(view: &CompleteSequence) -> Vec<f64> {
    let p = StridedPrefix::new(view);
    (1..=view.n()).map(|k| p.at(k - view.h())).collect()
}

/// The raw values from a complete sliding view (§3.2) by the recursion
/// `x_{k+h} = x̃_k − x̃_{k−1} + x_{k−l−1}`: the window at `k` gains
/// `x_{k+h}` and loses `x_{k−l−1}`, `w` positions below it.
pub fn raw_from_sliding(view: &CompleteSequence) -> Vec<f64> {
    let (h, w) = (view.h(), view.window_size() as usize);
    let mut raw: Vec<f64> = Vec::with_capacity(view.n() as usize);
    for (j, k) in (1 - h..=view.n() - h).enumerate() {
        let dropped = if j >= w { raw[j - w] } else { 0.0 };
        raw.push(view.get(k) - view.get(k - 1) + dropped);
    }
    raw
}

/// §6.2 partitioning reduction: the `(l_y, h_y)` window over the
/// concatenation of `members` (partitions of one complete reporting
/// function, in merge order) — raw values per member, one running sum over
/// the merged sequence, two lookups per position.
pub fn reduce_partitions<'a>(
    members: impl IntoIterator<Item = &'a CompleteSequence>,
    ly: i64,
    hy: i64,
) -> Result<Vec<f64>> {
    let merged: Vec<f64> = members.into_iter().flat_map(raw_from_sliding).collect();
    sliding_from_cumulative(&CumulativeSequence::materialize(&merged), ly, hy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::{brute_force_sum, minoa, raw};
    use rfv_testkit::{check, gen, oracle};

    #[test]
    fn strided_prefix_is_the_running_total() {
        let raw: Vec<f64> = (1..=9).map(f64::from).collect();
        let view = CompleteSequence::materialize(&raw, 2, 1).unwrap();
        let p = StridedPrefix::new(&view);
        // P_m = x_1 + … + x_{m+h}, clipped to the data on both sides.
        for m in -6..=20 {
            let want: f64 = raw.iter().take((m + 1).clamp(0, 9) as usize).sum();
            assert_eq!(p.at(m), want, "m = {m}");
        }
    }

    #[test]
    fn widen_narrow_collide_and_outgrow_the_data() {
        let raw: Vec<f64> = (1..=12).map(|i| f64::from(i * 7 % 13)).collect();
        for (lx, hx, ly, hy) in [
            (2, 1, 3, 1),   // widen
            (3, 2, 1, 0),   // narrow
            (1, 1, 3, 2),   // Δl + Δh ≡ 0 (mod w): the two series share positions
            (1, 1, 40, 40), // target wider than n
            (2, 1, 2, 1),   // identity
            (0, 0, 0, 3),   // view is the raw data
        ] {
            let view = CompleteSequence::materialize(&raw, lx, hx).unwrap();
            assert_eq!(
                sliding_from_sliding(&view, ly, hy).unwrap(),
                brute_force_sum(&raw, ly, hy),
                "({lx},{hx}) -> ({ly},{hy})"
            );
        }
        let empty = CompleteSequence::materialize(&[], 2, 1).unwrap();
        assert!(sliding_from_sliding(&empty, 3, 3).unwrap().is_empty());
        assert!(sliding_from_sliding(&empty, -1, 0).is_err());
    }

    #[test]
    fn linear_forms_equal_the_explicit_forms() {
        check(
            "linear forms equal the explicit forms",
            |rng| {
                let raw = gen::int_values(0, 60)(rng);
                let (lx, hx) = gen::window(4)(rng);
                (raw, lx, hx, rng.i64_in(0, 11), rng.i64_in(0, 11))
            },
            |&(ref data, lx, hx, ly, hy)| {
                let view = CompleteSequence::materialize(data, lx, hx).unwrap();
                assert_eq!(
                    sliding_from_sliding(&view, ly, hy).unwrap(),
                    minoa::derive_sum(&view, ly, hy).unwrap()
                );
                assert_eq!(
                    cumulative_from_sliding(&view),
                    crate::derive::cumulative::cumulative_from_sliding(&view)
                );
                assert_eq!(raw_from_sliding(&view), raw::from_sliding(&view).unwrap());
                assert_eq!(&raw_from_sliding(&view), data);
            },
        );
    }

    #[test]
    fn reduction_equals_the_window_over_the_concatenation() {
        check(
            "partitioning reduction equals the window over the concatenation",
            |rng| {
                let parts = gen::vec_of(gen::int_values(0, 15), 1, 4)(rng);
                let (lx, hx) = gen::window(3)(rng);
                let (ly, hy) = gen::window(6)(rng);
                (parts, lx, hx, ly, hy)
            },
            |&(ref parts, lx, hx, ly, hy)| {
                let views: Vec<CompleteSequence> = parts
                    .iter()
                    .map(|raw| CompleteSequence::materialize(raw, lx, hx).unwrap())
                    .collect();
                let merged: Vec<f64> = parts.concat();
                assert_eq!(
                    reduce_partitions(&views, ly, hy).unwrap(),
                    oracle::brute_sum(&merged, ly, hy)
                );
            },
        );
    }
}
