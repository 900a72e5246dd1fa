//! Aggregate functions and accumulators.
//!
//! The paper (§2.1) fixes the window aggregate `F_A` to SUM, COUNT, AVG,
//! MIN, MAX, and leans on SUM because COUNT is trivial and AVG derives from
//! SUM/COUNT. We implement all five. SUM/COUNT/AVG additionally implement
//! [`RetractAccumulator`], which the pipelined sliding-window evaluator
//! (§2.2: `x̃_k = x̃_{k−1} + x_{k+h} − x_{k−l−1}`) needs; MIN/MAX are
//! *semi-algebraic* (the paper's term) and cannot retract.

use std::cmp::Ordering;
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
}
