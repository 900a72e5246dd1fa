//! Aggregate functions and accumulators.
//!
//! The paper (§2.1) fixes the window aggregate `F_A` to SUM, COUNT, AVG,
//! MIN, MAX, and leans on SUM because COUNT is trivial and AVG derives from
//! SUM/COUNT. We implement all five. SUM/COUNT/AVG additionally implement
//! [`RetractAccumulator`], which the pipelined sliding-window evaluator
//! (§2.2: `x̃_k = x̃_{k−1} + x_{k+h} − x_{k−l−1}`) needs; MIN/MAX are
//! *semi-algebraic* (the paper's term) and cannot retract.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::fmt;

use rfv_types::{DataType, Result, RfvError, Value};

/// The aggregate functions supported in group-by and OVER() contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Sum,
    Count,
    /// `COUNT(*)` — counts rows, not non-null values.
    CountStar,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn from_name(name: &str, star: bool) -> Option<AggFunc> {
        match (name.to_ascii_uppercase().as_str(), star) {
            ("COUNT", true) => Some(AggFunc::CountStar),
            ("COUNT", false) => Some(AggFunc::Count),
            ("SUM", false) => Some(AggFunc::Sum),
            ("AVG", false) => Some(AggFunc::Avg),
            ("MIN", false) => Some(AggFunc::Min),
            ("MAX", false) => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// Result type given the input type.
    pub fn result_type(self, input: DataType) -> DataType {
        match self {
            AggFunc::Count | AggFunc::CountStar => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => input,
        }
    }

    /// Whether values can be *removed* from a running state
    /// (the algebraic aggregates, in the paper's classification).
    pub fn is_retractable(self) -> bool {
        !matches!(self, AggFunc::Min | AggFunc::Max)
    }

    /// Build a fresh accumulator.
    pub fn accumulator(self) -> Box<dyn Accumulator> {
        match self {
            AggFunc::Sum => Box::new(SumAcc::default()),
            AggFunc::Count => Box::new(CountAcc {
                count_star: false,
                count: 0,
            }),
            AggFunc::CountStar => Box::new(CountAcc {
                count_star: true,
                count: 0,
            }),
            AggFunc::Avg => Box::new(AvgAcc::default()),
            AggFunc::Min => Box::new(MinMaxAcc {
                want: Ordering::Less,
                best: None,
            }),
            AggFunc::Max => Box::new(MinMaxAcc {
                want: Ordering::Greater,
                best: None,
            }),
        }
    }

    /// Build a retractable accumulator, erroring for MIN/MAX.
    pub fn retract_accumulator(self) -> Result<Box<dyn RetractAccumulator>> {
        match self {
            AggFunc::Sum => Ok(Box::new(SumAcc::default())),
            AggFunc::Count => Ok(Box::new(CountAcc {
                count_star: false,
                count: 0,
            })),
            AggFunc::CountStar => Ok(Box::new(CountAcc {
                count_star: true,
                count: 0,
            })),
            AggFunc::Avg => Ok(Box::new(AvgAcc::default())),
            AggFunc::Min | AggFunc::Max => Err(RfvError::execution(format!(
                "{self} does not support retraction"
            ))),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// Incremental aggregate state.
pub trait Accumulator: fmt::Debug + Send {
    /// Fold one value into the state. NULLs are ignored (SQL semantics)
    /// except for COUNT(*) which counts rows regardless.
    fn update(&mut self, value: &Value) -> Result<()>;
    /// Current result. Empty SUM/AVG/MIN/MAX yield NULL, COUNT yields 0.
    /// Errors when an all-integer SUM total does not fit in `i64`
    /// (transient overflow is fine — the state is `i128` — but a final
    /// out-of-range total must not silently degrade to float).
    fn finish(&self) -> Result<Value>;
    /// Reset to the initial state.
    fn reset(&mut self);
}

/// An accumulator that can also *remove* a previously added value —
/// the engine-side mirror of the paper's pipelined window computation.
pub trait RetractAccumulator: Accumulator {
    fn retract(&mut self, value: &Value) -> Result<()>;
}

/// Typed entry points of the retractable accumulators, for a caller that
/// holds its input as `&[f64]` / `&[i64]` instead of boxed [`Value`]s (the
/// window operator's slice lanes). [`Accumulator::update`] and
/// [`RetractAccumulator::retract`] dispatch a `Value` to these same methods,
/// so both ways in perform the same operations in the same order and their
/// results are bit-identical.
pub trait TypedRetract: RetractAccumulator + Default {
    fn add_int(&mut self, i: i64);
    fn add_float(&mut self, f: f64);
    fn retract_int(&mut self, i: i64);
    fn retract_float(&mut self, f: f64);
}

/// The sliding extremum, MIN/MAX's recurrence (they cannot retract, so a
/// monotone deque of candidate indices stands in for [`TypedRetract`]).
///
/// For each of `windows` — half-open index ranges `[lo, hi)` whose two ends
/// never decrease — emits the index of that window's extremum, or `None`
/// when every element in it is `skip`ped (NULL). `better(a, b)` says element
/// `a` is strictly better than element `b`; an element displaces another
/// only if strictly better, so the earliest of equal elements wins. Every
/// index enters and leaves the deque at most once: `O(len + m)` over `len`
/// elements and `m` windows, with at most `2·len` calls of `better`, each
/// on two elements of one window.
pub fn sliding_extremum<E>(
    windows: impl IntoIterator<Item = (usize, usize)>,
    mut skip: impl FnMut(usize) -> bool,
    mut better: impl FnMut(usize, usize) -> std::result::Result<bool, E>,
    mut emit: impl FnMut(Option<usize>) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let mut deque: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    for (lo, hi) in windows {
        while deque.front().is_some_and(|&f| f < lo) {
            deque.pop_front();
        }
        // Elements before `lo` can be in no later window either.
        next = next.max(lo);
        while next < hi {
            if !skip(next) {
                while let Some(&back) = deque.back() {
                    if !better(next, back)? {
                        break;
                    }
                    deque.pop_back();
                }
                deque.push_back(next);
            }
            next += 1;
        }
        emit(deque.front().copied())?;
    }
    Ok(())
}

/// SUM over ints stays exact (i128 internally to dodge transient overflow);
/// any float input switches the state to float.
///
/// The float lane uses Neumaier-compensated summation so that the pipelined
/// retraction scheme of §2.2 (`x̃_k = x̃_{k−1} + x_{k+h} − x_{k−l−1}`) does
/// not accumulate cancellation drift relative to a fresh per-window
/// recompute: each add/retract folds the rounding error of the running sum
/// into a separate compensation term. When every float ever added has been
/// retracted again (`float_n == 0`) the float lane snaps back to exact zero,
/// so long pipelined scans over mixed int/float data cannot carry residue
/// from windows that no longer overlap the current one.
#[derive(Debug, Default)]
pub struct SumAcc {
    int_sum: i128,
    /// Running float sum (Neumaier main term).
    float_sum: f64,
    /// Neumaier compensation: accumulated low-order bits lost by `float_sum`.
    float_comp: f64,
    /// Floats currently in the state (adds minus retracts). Nonzero means
    /// the result is float-typed; zero resets the float lane exactly.
    float_n: u64,
    /// Whether any float was *ever* seen — keeps SUM float-typed for the
    /// duration of a window scan even when the current window is all-int.
    saw_float: bool,
    non_null: u64,
}

impl SumAcc {
    /// Neumaier (improved Kahan) compensated add. Retraction is the same
    /// operation with `-f`.
    fn neumaier(&mut self, f: f64) {
        let t = self.float_sum + f;
        if self.float_sum.abs() >= f.abs() {
            self.float_comp += (self.float_sum - t) + f;
        } else {
            self.float_comp += (f - t) + self.float_sum;
        }
        self.float_sum = t;
    }

    fn float_total(&self) -> f64 {
        self.float_sum + self.float_comp
    }
}

impl TypedRetract for SumAcc {
    #[inline]
    fn add_int(&mut self, i: i64) {
        self.int_sum += i as i128;
        self.non_null += 1;
    }

    #[inline]
    fn add_float(&mut self, f: f64) {
        self.neumaier(f);
        self.float_n += 1;
        self.saw_float = true;
        self.non_null += 1;
    }

    #[inline]
    fn retract_int(&mut self, i: i64) {
        self.int_sum -= i as i128;
        self.non_null -= 1;
    }

    #[inline]
    fn retract_float(&mut self, f: f64) {
        self.neumaier(-f);
        self.float_n -= 1;
        self.non_null -= 1;
        if self.float_n == 0 {
            // All floats retracted: snap to exact zero so residual
            // rounding error cannot leak into later windows.
            self.float_sum = 0.0;
            self.float_comp = 0.0;
        }
    }
}

impl Accumulator for SumAcc {
    fn update(&mut self, value: &Value) -> Result<()> {
        match value {
            Value::Null => {}
            Value::Int(i) => self.add_int(*i),
            Value::Float(f) => self.add_float(*f),
            other => {
                return Err(RfvError::execution(format!(
                    "SUM over non-numeric {other:?}"
                )))
            }
        }
        Ok(())
    }

    fn finish(&self) -> Result<Value> {
        if self.non_null == 0 {
            Ok(Value::Null)
        } else if self.saw_float {
            Ok(Value::Float(self.float_total() + self.int_sum as f64))
        } else {
            i64::try_from(self.int_sum).map(Value::Int).map_err(|_| {
                RfvError::execution(format!(
                    "integer SUM overflow: total {} does not fit in BIGINT",
                    self.int_sum
                ))
            })
        }
    }

    fn reset(&mut self) {
        *self = SumAcc::default();
    }
}

impl RetractAccumulator for SumAcc {
    fn retract(&mut self, value: &Value) -> Result<()> {
        match value {
            Value::Null => {}
            Value::Int(i) => self.retract_int(*i),
            Value::Float(f) => self.retract_float(*f),
            other => {
                return Err(RfvError::execution(format!(
                    "SUM over non-numeric {other:?}"
                )))
            }
        }
        Ok(())
    }
}

/// COUNT of non-NULL values; with `count_star`, of rows.
#[derive(Debug, Default)]
pub struct CountAcc {
    count_star: bool,
    count: i64,
}

impl TypedRetract for CountAcc {
    #[inline]
    fn add_int(&mut self, _: i64) {
        self.count += 1;
    }

    #[inline]
    fn add_float(&mut self, _: f64) {
        self.count += 1;
    }

    #[inline]
    fn retract_int(&mut self, _: i64) {
        self.count -= 1;
    }

    #[inline]
    fn retract_float(&mut self, _: f64) {
        self.count -= 1;
    }
}

impl Accumulator for CountAcc {
    fn update(&mut self, value: &Value) -> Result<()> {
        if self.count_star || !value.is_null() {
            self.count += 1;
        }
        Ok(())
    }

    fn finish(&self) -> Result<Value> {
        Ok(Value::Int(self.count))
    }

    fn reset(&mut self) {
        self.count = 0;
    }
}

impl RetractAccumulator for CountAcc {
    fn retract(&mut self, value: &Value) -> Result<()> {
        if self.count_star || !value.is_null() {
            self.count -= 1;
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
pub struct AvgAcc {
    sum: SumAcc,
}

impl TypedRetract for AvgAcc {
    #[inline]
    fn add_int(&mut self, i: i64) {
        self.sum.add_int(i);
    }

    #[inline]
    fn add_float(&mut self, f: f64) {
        self.sum.add_float(f);
    }

    #[inline]
    fn retract_int(&mut self, i: i64) {
        self.sum.retract_int(i);
    }

    #[inline]
    fn retract_float(&mut self, f: f64) {
        self.sum.retract_float(f);
    }
}

impl Accumulator for AvgAcc {
    fn update(&mut self, value: &Value) -> Result<()> {
        self.sum.update(value)
    }

    fn finish(&self) -> Result<Value> {
        if self.sum.non_null == 0 {
            return Ok(Value::Null);
        }
        // AVG is float-typed, so read the exact i128 int lane directly
        // rather than going through SUM's i64 range check.
        let total = self.sum.float_total() + self.sum.int_sum as f64;
        Ok(Value::Float(total / self.sum.non_null as f64))
    }

    fn reset(&mut self) {
        self.sum.reset();
    }
}

impl RetractAccumulator for AvgAcc {
    fn retract(&mut self, value: &Value) -> Result<()> {
        self.sum.retract(value)
    }
}

#[derive(Debug)]
struct MinMaxAcc {
    want: Ordering,
    best: Option<Value>,
}

impl Accumulator for MinMaxAcc {
    fn update(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            return Ok(());
        }
        match &self.best {
            None => self.best = Some(value.clone()),
            Some(b) => {
                if value.sql_cmp(b)? == Some(self.want) {
                    self.best = Some(value.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(&self) -> Result<Value> {
        Ok(self.best.clone().unwrap_or(Value::Null))
    }

    fn reset(&mut self) {
        self.best = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut acc = func.accumulator();
        for v in vals {
            acc.update(v).unwrap();
        }
        acc.finish().unwrap()
    }

    #[test]
    fn sum_ignores_nulls_and_is_null_when_empty() {
        assert_eq!(run(AggFunc::Sum, &[]), Value::Null);
        assert_eq!(run(AggFunc::Sum, &[Value::Null]), Value::Null);
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Null, Value::Int(2)]),
            Value::Int(3)
        );
    }

    #[test]
    fn sum_mixed_types_goes_float() {
        assert_eq!(
            run(AggFunc::Sum, &[Value::Int(1), Value::Float(0.5)]),
            Value::Float(1.5)
        );
    }

    #[test]
    fn sum_survives_transient_i64_overflow() {
        let vals = [
            Value::Int(i64::MAX),
            Value::Int(i64::MAX),
            Value::Int(-i64::MAX),
        ];
        assert_eq!(run(AggFunc::Sum, &vals), Value::Int(i64::MAX));
    }

    #[test]
    fn count_vs_count_star() {
        let vals = [Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggFunc::Count, &vals), Value::Int(2));
        assert_eq!(run(AggFunc::CountStar, &vals), Value::Int(3));
        assert_eq!(run(AggFunc::Count, &[]), Value::Int(0));
    }

    #[test]
    fn avg_is_float() {
        let vals = [Value::Int(1), Value::Int(2)];
        assert_eq!(run(AggFunc::Avg, &vals), Value::Float(1.5));
        assert_eq!(run(AggFunc::Avg, &[Value::Null]), Value::Null);
    }

    #[test]
    fn min_max() {
        let vals = [Value::Int(3), Value::Null, Value::Int(1), Value::Int(2)];
        assert_eq!(run(AggFunc::Min, &vals), Value::Int(1));
        assert_eq!(run(AggFunc::Max, &vals), Value::Int(3));
        assert_eq!(run(AggFunc::Min, &[Value::Null]), Value::Null);
    }

    #[test]
    fn min_max_on_strings() {
        let vals = [Value::str("b"), Value::str("a")];
        assert_eq!(run(AggFunc::Min, &vals), Value::str("a"));
        assert_eq!(run(AggFunc::Max, &vals), Value::str("b"));
    }

    #[test]
    fn retraction_matches_fresh_state() {
        let mut acc = AggFunc::Sum.retract_accumulator().unwrap();
        for i in 1..=5i64 {
            acc.update(&Value::Int(i)).unwrap();
        }
        acc.retract(&Value::Int(1)).unwrap();
        acc.retract(&Value::Int(2)).unwrap();
        assert_eq!(acc.finish().unwrap(), Value::Int(12));
        // Retracting everything returns to the empty (NULL) state.
        for i in 3..=5i64 {
            acc.retract(&Value::Int(i)).unwrap();
        }
        assert_eq!(acc.finish().unwrap(), Value::Null);
    }

    #[test]
    fn sum_errors_on_final_i64_overflow() {
        let mut acc = AggFunc::Sum.accumulator();
        acc.update(&Value::Int(i64::MAX)).unwrap();
        acc.update(&Value::Int(1)).unwrap();
        let err = acc.finish().unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
        // Negative direction too.
        let mut acc = AggFunc::Sum.accumulator();
        acc.update(&Value::Int(i64::MIN)).unwrap();
        acc.update(&Value::Int(-1)).unwrap();
        assert!(acc.finish().is_err());
        // But AVG of the same inputs is float-typed and fine.
        let mut acc = AggFunc::Avg.accumulator();
        acc.update(&Value::Int(i64::MAX)).unwrap();
        acc.update(&Value::Int(1)).unwrap();
        assert!(matches!(acc.finish().unwrap(), Value::Float(_)));
    }

    #[test]
    fn compensated_retraction_has_no_cancellation_drift() {
        // Slide a width-2 window across [1e16, 1.0, -1e16, 1.0, ...].
        // Naive retraction leaves the rounding error of (1e16 + 1.0)
        // behind in every later window; compensation must not.
        let vals: Vec<f64> = (0..64)
            .map(|i| match i % 4 {
                0 => 1e16,
                1 => 1.0,
                2 => -1e16,
                _ => 1.0,
            })
            .collect();
        let mut acc = AggFunc::Sum.retract_accumulator().unwrap();
        acc.update(&Value::Float(vals[0])).unwrap();
        for k in 1..vals.len() {
            acc.update(&Value::Float(vals[k])).unwrap();
            if k >= 2 {
                acc.retract(&Value::Float(vals[k - 2])).unwrap();
            }
            // Fresh two-value recompute is the ground truth.
            let expect = vals[k - 1] + vals[k];
            match acc.finish().unwrap() {
                Value::Float(got) => assert_eq!(got, expect, "window ending at {k}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn retracting_all_floats_restores_exact_zero_state() {
        let mut acc = AggFunc::Sum.retract_accumulator().unwrap();
        acc.update(&Value::Float(0.1)).unwrap();
        acc.update(&Value::Float(0.2)).unwrap();
        acc.retract(&Value::Float(0.1)).unwrap();
        acc.retract(&Value::Float(0.2)).unwrap();
        // Int added after full float retraction must see a clean slate
        // (float-typed because floats were seen, but exactly 7.0).
        acc.update(&Value::Int(7)).unwrap();
        assert_eq!(acc.finish().unwrap(), Value::Float(7.0));
    }

    #[test]
    fn retract_null_is_noop_for_count() {
        let mut acc = AggFunc::Count.retract_accumulator().unwrap();
        acc.update(&Value::Int(1)).unwrap();
        acc.retract(&Value::Null).unwrap();
        assert_eq!(acc.finish().unwrap(), Value::Int(1));
    }

    #[test]
    fn min_max_cannot_retract() {
        assert!(AggFunc::Min.retract_accumulator().is_err());
        assert!(AggFunc::Max.retract_accumulator().is_err());
        assert!(!AggFunc::Min.is_retractable());
        assert!(AggFunc::Sum.is_retractable());
    }

    #[test]
    fn sum_rejects_strings() {
        let mut acc = AggFunc::Sum.accumulator();
        assert!(acc.update(&Value::str("x")).is_err());
    }

    #[test]
    fn from_name_parses() {
        assert_eq!(AggFunc::from_name("sum", false), Some(AggFunc::Sum));
        assert_eq!(AggFunc::from_name("COUNT", true), Some(AggFunc::CountStar));
        assert_eq!(AggFunc::from_name("sum", true), None);
        assert_eq!(AggFunc::from_name("median", false), None);
    }

    #[test]
    fn result_types() {
        assert_eq!(AggFunc::Sum.result_type(DataType::Int), DataType::Int);
        assert_eq!(AggFunc::Avg.result_type(DataType::Int), DataType::Float);
        assert_eq!(AggFunc::Count.result_type(DataType::Str), DataType::Int);
        assert_eq!(AggFunc::Min.result_type(DataType::Str), DataType::Str);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut acc = AggFunc::Sum.accumulator();
        acc.update(&Value::Int(5)).unwrap();
        acc.reset();
        assert_eq!(acc.finish().unwrap(), Value::Null);
    }

    /// Windows with non-decreasing ends over `len` elements, built from
    /// `steps` so that any shrunk step list still yields valid windows;
    /// empty windows included.
    fn windows_of(len: usize, steps: &[(u8, u8)]) -> Vec<(usize, usize)> {
        let (mut lo, mut hi) = (0, 0);
        (steps.iter())
            .map(|&(a, b)| {
                lo = (lo + a as usize % 3).min(len);
                hi = (hi + b as usize % 4).clamp(lo, len);
                (lo, hi)
            })
            .collect()
    }

    /// The kernel over `vals` (`None` is skipped), MAX when `max`; returns
    /// the picks and how often `better` was called.
    fn extrema(
        vals: &[Option<i64>],
        windows: &[(usize, usize)],
        max: bool,
    ) -> (Vec<Option<usize>>, usize) {
        let want = if max {
            Ordering::Greater
        } else {
            Ordering::Less
        };
        let (mut picks, mut calls) = (Vec::new(), 0);
        let Ok(()) = sliding_extremum::<std::convert::Infallible>(
            windows.iter().copied(),
            |i| vals[i].is_none(),
            |a, b| {
                calls += 1;
                Ok(vals[a].cmp(&vals[b]) == want)
            },
            |best| {
                picks.push(best);
                Ok(())
            },
        );
        (picks, calls)
    }

    #[test]
    fn sliding_extremum_matches_a_linear_scan() {
        rfv_testkit::check(
            "sliding_extremum_matches_a_linear_scan",
            |rng| {
                let len = rng.usize_in(0, 40);
                let vals: Vec<Option<i64>> = (0..len)
                    .map(|_| (!rng.chance(1, 5)).then(|| rng.i64_in(-3, 3)))
                    .collect();
                let steps: Vec<(u8, u8)> = (0..rng.usize_in(0, 50))
                    .map(|_| (rng.u64_below(256) as u8, rng.u64_below(256) as u8))
                    .collect();
                (vals, steps, rng.bool())
            },
            |(vals, steps, max)| {
                let windows = windows_of(vals.len(), steps);
                let (picks, calls) = extrema(vals, &windows, *max);
                for (&(lo, hi), pick) in windows.iter().zip(&picks) {
                    // The first strictly better non-NULL element wins.
                    let scan = (lo..hi).filter(|&i| vals[i].is_some()).reduce(|b, i| {
                        let better = if *max {
                            vals[i] > vals[b]
                        } else {
                            vals[i] < vals[b]
                        };
                        if better {
                            i
                        } else {
                            b
                        }
                    });
                    assert_eq!(*pick, scan, "window [{lo}, {hi}) of {vals:?}");
                }
                assert_eq!(picks.len(), windows.len());
                assert!(calls <= 2 * (vals.len() + windows.len()));
            },
        );
    }

    /// Every element enters and leaves the deque once, so `better` is
    /// called at most `2·(len + m)` times — also on the inputs that make
    /// every arrival pop (rising data under MAX) and none, so that the
    /// deque holds the whole window (falling data under MAX).
    #[test]
    fn sliding_extremum_compares_at_most_twice_per_element() {
        let len = 1000usize;
        let rising: Vec<Option<i64>> = (0..len as i64).map(Some).collect();
        let falling: Vec<Option<i64>> = rising.iter().rev().copied().collect();
        for w in [1, 2, 7, 100, len] {
            let windows: Vec<(usize, usize)> = (0..len)
                .map(|k| (k.saturating_sub(w - 1), (k + 1).min(len)))
                .collect();
            for (vals, up) in [(&rising, true), (&falling, false)] {
                for max in [false, true] {
                    let (picks, calls) = extrema(vals, &windows, max);
                    // The window's last element where the data moves the
                    // wanted way, its first otherwise.
                    let want = windows
                        .iter()
                        .map(|&(lo, hi)| Some(if up == max { hi - 1 } else { lo }));
                    assert!(picks.iter().copied().eq(want), "w={w} max={max} up={up}");
                    assert!(
                        calls <= 2 * (len + windows.len()),
                        "w={w} max={max}: {calls} comparisons"
                    );
                }
            }
        }
    }

    /// The tie and NaN rule pinned on `f64` data: unordered values compare
    /// equal, and an equal value never displaces the earlier pick.
    #[test]
    fn sliding_extremum_pins_signed_zeros_and_nan() {
        let picks = |vals: &[f64], max: bool| {
            let want = if max {
                Ordering::Greater
            } else {
                Ordering::Less
            };
            let mut picks = Vec::new();
            let windows = (0..vals.len()).map(|k| (k.saturating_sub(1), (k + 2).min(vals.len())));
            let Ok(()) = sliding_extremum::<std::convert::Infallible>(
                windows,
                |_| false,
                |a, b| Ok(vals[a].partial_cmp(&vals[b]) == Some(want)),
                |best| {
                    picks.push(best.unwrap());
                    Ok(())
                },
            );
            picks
        };
        // Both zeros are equal: the earlier one stays, for MIN and MAX.
        assert_eq!(picks(&[0.0, -0.0, 0.0], false), [0, 0, 1]);
        assert_eq!(picks(&[-0.0, 0.0, -0.0], true), [0, 0, 1]);
        // A NaN is equal to everything, so it is never displaced, and it
        // shields the candidate before it: MAX of {1, NaN, 2} is 1.
        assert_eq!(picks(&[f64::NAN, 1.0, 2.0, 3.0], true), [0, 0, 3, 3]);
        assert_eq!(picks(&[1.0, f64::NAN, 2.0], true), [0, 0, 1]);
        assert_eq!(picks(&[1.0, f64::NAN, 2.0, 0.5], false), [0, 0, 1, 3]);
    }
}
