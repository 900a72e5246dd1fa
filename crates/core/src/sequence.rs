//! The formal sequence model of §2 of the paper.
//!
//! A *simple sequence* `(S, W, F_A)` assigns every position `k ∈ [1, n]`
//! the aggregate `F_A` of the raw values inside a window `[w_L(k), w_H(k)]`.
//! Raw values outside `[1, n]` are defined to be 0 (the paper's convention),
//! which makes SUM-class math total. Two window shapes exist:
//!
//! * **cumulative** — `w_L(k) = start`, `w_H(k) = k` (Year-To-Date style);
//! * **sliding `(l, h)`** — `w_L(k) = k − l`, `w_H(k) = k + h` with
//!   constant `l, h ≥ 0`; window size `W(k) = l + h + 1`.
//!
//! A sequence is **complete** (§3.2) if header and trailer values are also
//! stored: positions `1−h … 0` and `n+1 … n+l`, where raw values of `[1,n]`
//! still contribute. Completeness is the prerequisite for every derivation
//! algorithm in [`crate::derive`].

use std::convert::Infallible;

use rfv_expr::agg::sliding_extremum;
use rfv_types::{Result, RfvError};

/// Hard ceiling on the number of stored positions (`n + l + h`) a complete
/// sequence may materialize. Window offsets are already bounded at bind
/// time, but a view over a tiny table with a huge frame would still try to
/// allocate `l + h` header/trailer slots — 2²⁸ f64s (2 GiB) is far beyond
/// any sensible reporting window and a safe place to fail with an error
/// instead of an OOM abort.
pub const MAX_MATERIALIZED_EXTENT: i64 = 1 << 28;

/// A complete `(l, h)` sequence over `n` raw values must stay within
/// [`MAX_MATERIALIZED_EXTENT`] stored positions: checked before one is
/// materialized, and before an edit that grows one is applied.
pub(crate) fn check_extent(n: i64, l: i64, h: i64) -> Result<()> {
    let extent = n.saturating_add(l).saturating_add(h);
    if extent > MAX_MATERIALIZED_EXTENT {
        return Err(RfvError::derivation(format!(
            "a complete ({l},{h}) sequence over n={n} would store {extent} positions \
             (max {MAX_MATERIALIZED_EXTENT})"
        )));
    }
    Ok(())
}

/// The §2.2 SUM recurrence: fills `cells` with the `(l, h)` window sums at
/// positions `lo, lo + 1, …` of the raw sequence `x` — the window at `lo`
/// summed, then rolled by `x̃_{k+1} = x̃_k + x_{k+1+h} − x_{k−l}`.
pub(crate) fn roll_sums(cells: &mut [f64], lo: i64, (l, h): (i64, i64), x: impl Fn(i64) -> f64) {
    let mut sum: f64 = (lo - l..=lo + h).map(&x).sum();
    for (cell, k) in cells.iter_mut().zip(lo..) {
        *cell = sum;
        sum += x(k + 1 + h) - x(k - l);
    }
}

/// Whether `a` is a strictly better MAX (`max`) or MIN than `b` — the
/// window operator's rule: unordered values (NaN) are equal, and an equal
/// value never displaces the one already chosen.
pub(crate) fn better(a: f64, b: f64, max: bool) -> bool {
    (max && a > b) || (!max && a < b)
}

/// The sliding extremum of §2.2's semi-algebraic case: fills `cells` with
/// the `(l, h)` window MAX (`max`) or MIN at positions `lo, lo + 1, …`,
/// `None` where the window holds no raw value. `vals` are the raw values at
/// positions `first ..`, and must cover every window's part in `1..=n`.
pub(crate) fn roll_extrema(
    cells: &mut [Option<f64>],
    lo: i64,
    (l, h): (i64, i64),
    (first, vals): (i64, &[f64]),
    max: bool,
) {
    let len = vals.len() as i64;
    let windows = (lo..).take(cells.len()).map(|k| {
        let start = (k - l - first).clamp(0, len);
        let end = (k + h + 1 - first).clamp(start, len);
        (start as usize, end as usize)
    });
    let mut cells = cells.iter_mut();
    let Ok(()) = sliding_extremum::<Infallible>(
        windows,
        |_| false,
        |a, b| Ok(better(vals[a], vals[b], max)),
        |best| {
            *cells.next().expect("one window per cell") = best.map(|i| vals[i]);
            Ok(())
        },
    );
}

/// Window shape of a simple sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowSpec {
    /// `ROWS UNBOUNDED PRECEDING`: at position `k` the window is `[1, k]`.
    Cumulative,
    /// `ROWS BETWEEN l PRECEDING AND h FOLLOWING`.
    Sliding { l: i64, h: i64 },
}

impl WindowSpec {
    /// A sliding window, validating `l, h ≥ 0` and `l + h > 0` is *not*
    /// required (the paper's footnote assumes `l+h>0` for convenience, but
    /// the degenerate `(0,0)` window — the identity sequence — is useful
    /// and all algorithms handle it).
    pub fn sliding(l: i64, h: i64) -> Result<WindowSpec> {
        if l < 0 || h < 0 {
            return Err(RfvError::derivation(format!(
                "sliding window ({l},{h}) must have l ≥ 0 and h ≥ 0"
            )));
        }
        Ok(WindowSpec::Sliding { l, h })
    }

    /// Window size `W(k)` for sliding windows (`None` for cumulative,
    /// whose size grows with `k`).
    pub fn window_size(&self) -> Option<i64> {
        match self {
            WindowSpec::Cumulative => None,
            WindowSpec::Sliding { l, h } => Some(l + h + 1),
        }
    }

    /// Window bounds `[w_L(k), w_H(k)]` at position `k`.
    pub fn bounds(&self, k: i64) -> (i64, i64) {
        match self {
            WindowSpec::Cumulative => (i64::MIN / 4, k),
            WindowSpec::Sliding { l, h } => (k - l, k + h),
        }
    }
}

/// `cumulative` / `sliding(l,h)` — the form `rfv_stat_views` and the
/// rewrite report print.
impl std::fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowSpec::Cumulative => write!(f, "cumulative"),
            WindowSpec::Sliding { l, h } => write!(f, "sliding({l},{h})"),
        }
    }
}

/// A materialized **complete** sliding-window sequence: the sequence values
/// for positions `1−h … n+l` (header + body + trailer), SUM semantics.
///
/// This is the in-memory form of the paper's materialized reporting
/// function view (Fig. 7). Positions outside the stored range read as 0 —
/// exactly the paper's convention `x̃_k = 0 for k ≤ −h, k > n+l`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompleteSequence {
    l: i64,
    h: i64,
    n: i64,
    /// Values for positions `1−h ..= n+l`, in order.
    values: Vec<f64>,
}

impl CompleteSequence {
    /// Materialize the complete sequence over `raw` (positions `1..=n`)
    /// with a `(l, h)` sliding window and SUM aggregation.
    ///
    /// Runs in `O(n + l + h)` using the pipelined recursion of §2.2.
    pub fn materialize(raw: &[f64], l: i64, h: i64) -> Result<Self> {
        WindowSpec::sliding(l, h)?;
        let n = raw.len() as i64;
        check_extent(n, l, h)?;
        let mut values = vec![0.0; (n + l + h) as usize];
        let get_raw = |p: i64| {
            if (1..=n).contains(&p) {
                raw[(p - 1) as usize]
            } else {
                0.0
            }
        };
        roll_sums(&mut values, 1 - h, (l, h), get_raw);
        Ok(CompleteSequence { l, h, n, values })
    }

    /// Construct directly from stored values (e.g. read back from a view
    /// table). `values` must cover positions `1−h ..= n+l`.
    pub fn from_values(l: i64, h: i64, n: i64, values: Vec<f64>) -> Result<Self> {
        WindowSpec::sliding(l, h)?;
        let expected = (n + l - (1 - h) + 1).max(0) as usize;
        if values.len() != expected {
            return Err(RfvError::derivation(format!(
                "complete ({l},{h}) sequence over n={n} needs {expected} values \
                 (positions {}..={}), got {}",
                1 - h,
                n + l,
                values.len()
            )));
        }
        Ok(CompleteSequence { l, h, n, values })
    }

    pub fn l(&self) -> i64 {
        self.l
    }

    pub fn h(&self) -> i64 {
        self.h
    }

    pub fn n(&self) -> i64 {
        self.n
    }

    /// Window size `w = l + h + 1`.
    pub fn window_size(&self) -> i64 {
        self.l + self.h + 1
    }

    /// Sequence value at position `k`; 0 outside the stored range.
    pub fn get(&self, k: i64) -> f64 {
        let lo = 1 - self.h;
        if k < lo || k > self.n + self.l {
            0.0
        } else {
            self.values[(k - lo) as usize]
        }
    }

    /// The body values (positions `1..=n`).
    pub fn body(&self) -> Vec<f64> {
        (1..=self.n).map(|k| self.get(k)).collect()
    }

    /// All stored `(position, value)` pairs, header and trailer included.
    pub fn entries(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        let lo = 1 - self.h;
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (lo + i as i64, v))
    }

    /// First stored position (`1 − h`).
    pub fn first_pos(&self) -> i64 {
        1 - self.h
    }

    /// Last stored position (`n + l`).
    pub fn last_pos(&self) -> i64 {
        self.n + self.l
    }
}

/// Brute-force SUM of `raw` over window `[lo, hi]` (clipped to `[1, n]`).
/// The ground truth every algorithm in this crate is tested against.
pub fn window_sum(raw: &[f64], lo: i64, hi: i64) -> f64 {
    let n = raw.len() as i64;
    let lo = lo.max(1);
    let hi = hi.min(n);
    if lo > hi {
        return 0.0;
    }
    raw[(lo - 1) as usize..=(hi - 1) as usize].iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_testkit::{check, gen};

    #[test]
    fn window_spec_validation() {
        assert!(WindowSpec::sliding(-1, 0).is_err());
        assert!(WindowSpec::sliding(0, -2).is_err());
        assert!(WindowSpec::sliding(0, 0).is_ok());
        assert_eq!(WindowSpec::sliding(2, 1).unwrap().window_size(), Some(4));
        assert_eq!(WindowSpec::Cumulative.window_size(), None);
    }

    #[test]
    fn bounds() {
        assert_eq!(WindowSpec::sliding(2, 1).unwrap().bounds(5), (3, 6));
        let (_, hi) = WindowSpec::Cumulative.bounds(5);
        assert_eq!(hi, 5);
    }

    #[test]
    fn materialize_small_example() {
        // raw = [1, 2, 3, 4], (l, h) = (1, 1).
        let seq = CompleteSequence::materialize(&[1.0, 2.0, 3.0, 4.0], 1, 1).unwrap();
        assert_eq!(seq.first_pos(), 0);
        assert_eq!(seq.last_pos(), 5);
        // header: x̃_0 = x_{-1..1} = 1
        assert_eq!(seq.get(0), 1.0);
        assert_eq!(seq.get(1), 3.0);
        assert_eq!(seq.get(2), 6.0);
        assert_eq!(seq.get(3), 9.0);
        assert_eq!(seq.get(4), 7.0);
        // trailer: x̃_5 = x_{4..6} = 4
        assert_eq!(seq.get(5), 4.0);
        // outside: zero
        assert_eq!(seq.get(-1), 0.0);
        assert_eq!(seq.get(6), 0.0);
        assert_eq!(seq.body(), vec![3.0, 6.0, 9.0, 7.0]);
    }

    #[test]
    fn degenerate_identity_window() {
        let seq = CompleteSequence::materialize(&[5.0, 7.0], 0, 0).unwrap();
        assert_eq!(seq.body(), vec![5.0, 7.0]);
        assert_eq!(seq.first_pos(), 1);
        assert_eq!(seq.last_pos(), 2);
    }

    #[test]
    fn empty_raw_data() {
        let seq = CompleteSequence::materialize(&[], 2, 1).unwrap();
        assert_eq!(seq.n(), 0);
        assert!(seq.body().is_empty());
        assert_eq!(seq.get(0), 0.0);
    }

    #[test]
    fn from_values_arity_check() {
        assert!(CompleteSequence::from_values(1, 1, 4, vec![0.0; 6]).is_ok());
        assert!(CompleteSequence::from_values(1, 1, 4, vec![0.0; 5]).is_err());
    }

    #[test]
    fn entries_cover_header_to_trailer() {
        let seq = CompleteSequence::materialize(&[1.0, 2.0], 1, 2).unwrap();
        let positions: Vec<i64> = seq.entries().map(|(p, _)| p).collect();
        assert_eq!(positions, vec![-1, 0, 1, 2, 3]);
    }

    /// The window operator's MIN/MAX — its `f64` lane, and its `Value`
    /// lane, which a trailing NULL row forces — and the materialized
    /// sequence pick the same element on windows of signed zeros and NaNs.
    #[test]
    fn minmax_materialize_picks_what_the_operator_picks() {
        use rfv_exec::window::execute_window;
        use rfv_exec::{ParStats, SortKey, WindowExprSpec, WindowFrame, WindowMode};
        use rfv_expr::{AggFunc, Expr};
        use rfv_types::{Gov, Row, Value};

        let nan = f64::NAN;
        let raw = [0.0, -0.0, nan, 1.0, -0.0, 0.0, 2.0, nan, -1.0, 0.0, -0.0];
        let operator = |vals: Vec<Value>, func, (l, h): (i64, i64)| -> Vec<Value> {
            let rows = (1..)
                .zip(vals)
                .map(|(k, v)| Row::new(vec![Value::Int(k), v]));
            let spec = WindowExprSpec::agg(
                func,
                Some(Expr::col(1)),
                WindowFrame::sliding(l as u64, h as u64),
            );
            let out = execute_window(
                rows.collect(),
                &[],
                &[SortKey::asc(Expr::col(0))],
                &[spec],
                &[],
                WindowMode::Pipelined,
                &mut ParStats::default(),
                &Gov::none(),
            )
            .unwrap();
            out.iter()
                .map(|r| r.get(2).clone())
                .take(raw.len())
                .collect()
        };
        let bits = |v: &Value| match v {
            Value::Float(f) => f.to_bits(),
            other => panic!("not a float: {other:?}"),
        };
        for (l, h) in [(1, 1), (0, 2), (2, 0), (3, 3)] {
            for (func, max) in [(AggFunc::Min, false), (AggFunc::Max, true)] {
                let seq = CompleteMinMaxSequence::materialize(&raw, l, h, max).unwrap();
                let want: Vec<u64> = seq.body().iter().map(|v| v.unwrap().to_bits()).collect();
                let floats = raw.iter().map(|&f| Value::Float(f)).collect();
                let with_null = raw
                    .iter()
                    .map(|&f| Value::Float(f))
                    .chain([Value::Null])
                    .collect();
                for (lane, vals) in [("f64", floats), ("Value", with_null)] {
                    let got: Vec<u64> = operator(vals, func, (l, h)).iter().map(bits).collect();
                    assert_eq!(got, want, "{func} ({l},{h}) {lane} lane");
                }
            }
        }
        // The earlier of two equal zeros is kept, by MIN as by MAX.
        for max in [false, true] {
            let seq = CompleteMinMaxSequence::materialize(&[0.0, -0.0], 1, 0, max).unwrap();
            assert_eq!(seq.get(2).map(f64::to_bits), Some(0.0f64.to_bits()));
        }
    }

    /// Materialized values match the brute-force window sum everywhere,
    /// header and trailer included. Runs on the adversarial value mix
    /// (heavy tails, tie runs, zeros) with a magnitude-scaled tolerance.
    #[test]
    fn materialize_matches_brute_force() {
        check(
            "materialize_matches_brute_force",
            |rng| {
                let (l, h) = gen::window(5)(rng);
                (gen::values(0, 40)(rng), l, h)
            },
            |&(ref raw, l, h)| {
                let seq = CompleteSequence::materialize(raw, l, h).unwrap();
                // The pipelined recursion accumulates one rounding error per
                // position, each bounded by an ulp of the largest magnitude
                // seen — scale the tolerance accordingly.
                let magnitude = raw.iter().fold(1.0f64, |a, &v| a.max(v.abs()));
                let steps = (raw.len() as i64 + l + h + 4) as f64;
                let tol = 1e-12 * magnitude * steps;
                for k in (1 - h - 2)..=(raw.len() as i64 + l + 2) {
                    let expected = window_sum(raw, k - l, k + h);
                    assert!(
                        (seq.get(k) - expected).abs() <= tol.max(1e-9),
                        "k={k}: {} vs {} (tol {tol:e})",
                        seq.get(k),
                        expected
                    );
                }
            },
        );
    }
}

/// The stored form every materialized simple sequence has, whatever its
/// class: one value per position over a contiguous extent — what a
/// `(pos, val)` mirror table of the sequence shows.
pub(crate) trait StoredSequence {
    /// First and last stored position, header and trailer included.
    fn extent(&self) -> (i64, i64);
    /// The value stored at `pos`, a position of the extent; `None` where
    /// there is none to show (the empty window of a MIN/MAX sequence).
    fn stored(&self, pos: i64) -> Option<f64>;
}

impl StoredSequence for CompleteSequence {
    fn extent(&self) -> (i64, i64) {
        (self.first_pos(), self.last_pos())
    }
    fn stored(&self, pos: i64) -> Option<f64> {
        Some(self.get(pos))
    }
}

impl StoredSequence for CumulativeSequence {
    fn extent(&self) -> (i64, i64) {
        (1, self.n())
    }
    fn stored(&self, pos: i64) -> Option<f64> {
        Some(self.get(pos))
    }
}

impl StoredSequence for CompleteMinMaxSequence {
    fn extent(&self) -> (i64, i64) {
        (1 - self.h, self.n + self.l)
    }
    fn stored(&self, pos: i64) -> Option<f64> {
        self.get(pos)
    }
}

// Crate-internal mutable access for the incremental maintenance rules
// (`crate::maintenance`), which patch a sequence in place. Not part of the
// public API: the caller keeps `values.len() == n + l + h`.
impl CompleteSequence {
    pub(crate) fn parts_mut(&mut self) -> (&mut i64, &mut Vec<f64>) {
        (&mut self.n, &mut self.values)
    }
}

impl CompleteMinMaxSequence {
    pub(crate) fn parts_mut(&mut self) -> (&mut i64, &mut Vec<Option<f64>>) {
        (&mut self.n, &mut self.values)
    }
}

/// A materialized complete **cumulative** sequence: running sums
/// `c̃_k = x_1 + … + x_k`. Header positions (`k ≤ 0`) read 0; trailer
/// positions (`k > n`) read the grand total — both follow from the window
/// `[1, k]` clipped to the existing raw data.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeSequence {
    values: Vec<f64>,
}

impl CumulativeSequence {
    /// Materialize from raw data in `O(n)`.
    pub fn materialize(raw: &[f64]) -> Self {
        let mut seq = CumulativeSequence {
            values: Vec::with_capacity(raw.len()),
        };
        seq.restart_at(1, raw.iter().copied());
        seq
    }

    /// Construct from stored running sums (positions `1..=n`).
    pub fn from_values(values: Vec<f64>) -> Self {
        CumulativeSequence { values }
    }

    /// Restart the running sum at position `a` (`1 ≤ a ≤ n + 1`): `c̃_a …`
    /// are dropped and recomputed from `c̃_{a−1}` over `tail`, the raw values
    /// from `a` on — the arithmetic of [`materialize`](Self::materialize)
    /// resumed mid-way. An append is the case `a = n + 1`, `O(m)` regardless
    /// of `n`; a change at `a` costs the `O(n − a)` suffix.
    pub fn restart_at(&mut self, a: i64, tail: impl IntoIterator<Item = f64>) {
        self.values.truncate((a - 1).max(0) as usize);
        let mut sum = self.values.last().copied().unwrap_or(0.0);
        for v in tail {
            sum += v;
            self.values.push(sum);
        }
    }

    pub fn n(&self) -> i64 {
        self.values.len() as i64
    }

    /// `c̃_k`, totalized outside `[1, n]`.
    pub fn get(&self, k: i64) -> f64 {
        if k < 1 || self.values.is_empty() {
            0.0
        } else {
            self.values[((k.min(self.n())) - 1) as usize]
        }
    }

    /// Body values (positions `1..=n`).
    pub fn body(&self) -> &[f64] {
        &self.values
    }
}

/// A materialized complete **MIN/MAX** sliding-window sequence. Unlike the
/// SUM case there is no neutral element in the data domain, so positions
/// whose clipped window is empty store `None` (SQL NULL).
#[derive(Debug, Clone, PartialEq)]
pub struct CompleteMinMaxSequence {
    l: i64,
    h: i64,
    n: i64,
    /// `true` for MAX, `false` for MIN.
    max: bool,
    values: Vec<Option<f64>>,
}

impl CompleteMinMaxSequence {
    /// Materialize over `raw` with a `(l, h)` window, in one `O(n + l + h)`
    /// pass of the sliding-extremum kernel.
    pub fn materialize(raw: &[f64], l: i64, h: i64, max: bool) -> Result<Self> {
        WindowSpec::sliding(l, h)?;
        let n = raw.len() as i64;
        check_extent(n, l, h)?;
        let mut values = vec![None; (n + l + h) as usize];
        roll_extrema(&mut values, 1 - h, (l, h), (1, raw), max);
        Ok(CompleteMinMaxSequence {
            l,
            h,
            n,
            max,
            values,
        })
    }

    /// Construct directly from stored values (e.g. read back from a
    /// snapshot). `values` must cover positions `1−h ..= n+l`.
    pub fn from_values(
        l: i64,
        h: i64,
        n: i64,
        max: bool,
        values: Vec<Option<f64>>,
    ) -> Result<Self> {
        WindowSpec::sliding(l, h)?;
        let expected = (n + l - (1 - h) + 1).max(0) as usize;
        if values.len() != expected {
            return Err(RfvError::derivation(format!(
                "complete ({l},{h}) min/max sequence over n={n} needs {expected} \
                 values, got {}",
                values.len()
            )));
        }
        Ok(CompleteMinMaxSequence {
            l,
            h,
            n,
            max,
            values,
        })
    }

    pub fn l(&self) -> i64 {
        self.l
    }

    pub fn h(&self) -> i64 {
        self.h
    }

    pub fn n(&self) -> i64 {
        self.n
    }

    pub fn is_max(&self) -> bool {
        self.max
    }

    pub fn window_size(&self) -> i64 {
        self.l + self.h + 1
    }

    /// Value at `k`; `None` outside the stored range or where the window
    /// was empty.
    pub fn get(&self, k: i64) -> Option<f64> {
        let lo = 1 - self.h;
        if k < lo || k > self.n + self.l {
            None
        } else {
            self.values[(k - lo) as usize]
        }
    }

    /// Body values (positions `1..=n`).
    pub fn body(&self) -> Vec<Option<f64>> {
        (1..=self.n).map(|k| self.get(k)).collect()
    }
}
