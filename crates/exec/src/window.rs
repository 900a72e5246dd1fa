//! The reporting-function (window) operator.
//!
//! This operator implements the paper's `agg(expr) OVER (PARTITION BY …
//! ORDER BY … ROWS …)` semantics natively — the "support of reporting
//! functionality" configuration of Table 1. Two evaluation strategies are
//! provided:
//!
//! * [`WindowMode::Naive`] — the explicit form of §2.2: for every row, walk
//!   the whole frame and aggregate. `O(n·W)` per partition.
//! * [`WindowMode::Pipelined`] — the incremental form of §2.2
//!   (`x̃_k = x̃_{k−1} + x_{k+h} − x_{k−l−1}`): a retractable accumulator
//!   plus two monotone frame pointers, `O(n)` per partition regardless of
//!   window size. MIN/MAX cannot retract (they are *semi-algebraic* in the
//!   paper's terms), so sliding MIN/MAX uses a monotonic deque instead —
//!   also `O(n)` amortized.
//!
//! Rows are sorted by (partition keys, order keys); output preserves that
//! order and appends one column per window expression.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use rfv_expr::{AggFunc, Expr};
use rfv_types::{Gov, Result, RfvError, Row, Value};

use crate::filter::compare_keys;
use crate::mem::{row_bytes, values_bytes};
use crate::physical::SortKey;
use crate::sched::{self, ParStats};

/// Largest accepted `ROWS BETWEEN n PRECEDING/FOLLOWING` offset (2⁴⁰ rows).
/// Any frame wider than this behaves identically to UNBOUNDED on every
/// table the engine can hold, so larger literals are almost certainly typos
/// — and unconstrained `i64` offsets let `i + offset + 1` wrap in release
/// builds. Bind-time conversion and [`WindowFrame::new`] both reject
/// offsets beyond this bound; internal constructors saturate to it.
pub const MAX_FRAME_OFFSET: i64 = 1 << 40;

/// A frame bound in ROWS mode. `Offset(0)` is CURRENT ROW, negative offsets
/// are PRECEDING, positive are FOLLOWING.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameBound {
    UnboundedPreceding,
    Offset(i64),
    UnboundedFollowing,
}

impl fmt::Display for FrameBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameBound::UnboundedPreceding => write!(f, "UNBOUNDED PRECEDING"),
            FrameBound::Offset(0) => write!(f, "CURRENT ROW"),
            FrameBound::Offset(n) if *n < 0 => write!(f, "{} PRECEDING", -n),
            FrameBound::Offset(n) => write!(f, "{n} FOLLOWING"),
            FrameBound::UnboundedFollowing => write!(f, "UNBOUNDED FOLLOWING"),
        }
    }
}

/// `ROWS BETWEEN start AND end`. Construction validates that the frame is
/// well-formed (start does not lie after end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowFrame {
    start: FrameBound,
    end: FrameBound,
}

impl WindowFrame {
    pub fn new(start: FrameBound, end: FrameBound) -> Result<Self> {
        match (start, end) {
            (FrameBound::UnboundedFollowing, _) => {
                Err(RfvError::plan("frame start cannot be UNBOUNDED FOLLOWING"))
            }
            (_, FrameBound::UnboundedPreceding) => {
                Err(RfvError::plan("frame end cannot be UNBOUNDED PRECEDING"))
            }
            (FrameBound::Offset(s), FrameBound::Offset(e)) if s > e => Err(RfvError::plan(
                format!("frame start {s} lies after frame end {e}"),
            )),
            _ => {
                for bound in [start, end] {
                    if let FrameBound::Offset(n) = bound {
                        if n.unsigned_abs() > MAX_FRAME_OFFSET as u64 {
                            return Err(RfvError::plan(format!(
                                "frame offset {} exceeds the maximum of {MAX_FRAME_OFFSET} rows",
                                n.unsigned_abs()
                            )));
                        }
                    }
                }
                Ok(WindowFrame { start, end })
            }
        }
    }

    /// The paper's cumulative window: `ROWS UNBOUNDED PRECEDING`
    /// (`w_L(k) = start, w_H(k) = k`).
    pub fn cumulative() -> Self {
        WindowFrame {
            start: FrameBound::UnboundedPreceding,
            end: FrameBound::Offset(0),
        }
    }

    /// The paper's sliding window `(l, h)`:
    /// `ROWS BETWEEN l PRECEDING AND h FOLLOWING`.
    ///
    /// Saturates at [`MAX_FRAME_OFFSET`]: `-(l as i64)` wraps to a huge
    /// *positive* start for `l > i64::MAX` in release builds, so offsets
    /// are clamped instead of cast.
    pub fn sliding(l: u64, h: u64) -> Self {
        let clamp = |n: u64| i64::try_from(n).unwrap_or(i64::MAX).min(MAX_FRAME_OFFSET);
        WindowFrame {
            start: FrameBound::Offset(-clamp(l)),
            end: FrameBound::Offset(clamp(h)),
        }
    }

    /// The whole partition.
    pub fn unbounded() -> Self {
        WindowFrame {
            start: FrameBound::UnboundedPreceding,
            end: FrameBound::UnboundedFollowing,
        }
    }

    pub fn start(&self) -> FrameBound {
        self.start
    }

    pub fn end(&self) -> FrameBound {
        self.end
    }

    /// Clamped half-open index range `[lo, hi)` of this frame at row `i`
    /// in a partition of `len` rows. The `new` constructor rejects
    /// start = UNBOUNDED FOLLOWING and end = UNBOUNDED PRECEDING; were
    /// such a frame ever constructed anyway, the clamp still yields an
    /// empty frame rather than panicking mid-query.
    /// Widening to `i128` makes the bound arithmetic immune to wrap: with
    /// `i < len ≤ usize::MAX` and `|offset| ≤ i64::MAX`, every intermediate
    /// fits in `i128` with room to spare, and the clamp brings the result
    /// back into `[0, len]` before narrowing.
    fn indices(&self, i: usize, len: usize) -> (usize, usize) {
        let lo = match self.start {
            FrameBound::UnboundedPreceding => 0,
            FrameBound::Offset(s) => (i as i128 + s as i128).clamp(0, len as i128) as usize,
            FrameBound::UnboundedFollowing => len,
        };
        let hi = match self.end {
            FrameBound::UnboundedFollowing => len,
            FrameBound::Offset(e) => (i as i128 + e as i128 + 1).clamp(0, len as i128) as usize,
            FrameBound::UnboundedPreceding => 0,
        };
        (lo, hi.max(lo))
    }
}

impl fmt::Display for WindowFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ROWS BETWEEN {} AND {}", self.start, self.end)
    }
}

/// The function evaluated by a window expression: a framed aggregate
/// (the paper's reporting functions) or one of the SQL:1999 ranking
/// functions — the "simple ranking queries (TOP(n)-analyses)" application
/// the paper's abstract opens with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowFuncKind {
    Agg(AggFunc),
    /// 1-based position within the partition.
    RowNumber,
    /// Rank with gaps: peers (equal order keys) share a rank.
    Rank,
    /// Rank without gaps.
    DenseRank,
}

impl WindowFuncKind {
    /// Whether this is a ranking function (frame-less, needs ORDER BY).
    pub fn is_ranking(self) -> bool {
        !matches!(self, WindowFuncKind::Agg(_))
    }
}

impl fmt::Display for WindowFuncKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowFuncKind::Agg(a) => write!(f, "{a}"),
            WindowFuncKind::RowNumber => write!(f, "ROW_NUMBER"),
            WindowFuncKind::Rank => write!(f, "RANK"),
            WindowFuncKind::DenseRank => write!(f, "DENSE_RANK"),
        }
    }
}

/// One window expression: function, argument (`None` for `COUNT(*)` and
/// ranking functions), frame (ignored by ranking functions, which always
/// rank the whole partition).
#[derive(Debug, Clone)]
pub struct WindowExprSpec {
    pub func: WindowFuncKind,
    pub arg: Option<Expr>,
    pub frame: WindowFrame,
}

impl WindowExprSpec {
    /// Convenience constructor for framed aggregates.
    pub fn agg(func: AggFunc, arg: Option<Expr>, frame: WindowFrame) -> Self {
        WindowExprSpec {
            func: WindowFuncKind::Agg(func),
            arg,
            frame,
        }
    }
}

impl fmt::Display for WindowExprSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.func.is_ranking() {
            return write!(f, "{}()", self.func);
        }
        match &self.arg {
            Some(a) => write!(f, "{}({a}) {}", self.func, self.frame),
            None => write!(f, "{} {}", self.func, self.frame),
        }
    }
}

/// A sequence held outside the executor — a materialized reporting-function
/// view — that can supply one window expression's column at execution
/// time, so the kernel need not recompute it from the rows.
pub trait SequenceSource: Send + Sync + fmt::Debug {
    /// The expression's values for `part`, the rows of one window
    /// partition in (partition keys, order keys) order — or `None` when
    /// `part` is not exactly the sequence the source holds (a writer got
    /// between the scan and this call). The operator then runs its own
    /// kernel, so a source can only ever replace a column, never add,
    /// drop or reorder a row.
    fn column(&self, part: &[Row], gov: &Gov) -> Result<Option<Vec<Value>>>;

    /// `<view> via <strategy>`, appended to the expression in `EXPLAIN`.
    fn describe(&self) -> String;
}

/// One optional [`SequenceSource`] per window expression of a node; a
/// missing entry (or an empty list) means the native kernel.
pub type SequenceSources = Vec<Option<Arc<dyn SequenceSource>>>;

/// Evaluation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// Explicit form: re-aggregate the frame for every row.
    Naive,
    /// Incremental form (§2.2): retractable accumulators / monotonic deque.
    Pipelined,
}

/// Execute the window operator. See the module docs for semantics.
pub fn execute_window(
    rows: Vec<Row>,
    partition_by: &[Expr],
    order_by: &[SortKey],
    window_exprs: &[WindowExprSpec],
    mode: WindowMode,
) -> Result<Vec<Row>> {
    execute_window_par(
        rows,
        partition_by,
        order_by,
        window_exprs,
        &[],
        mode,
        &mut ParStats::default(),
        &Gov::none(),
    )
}

/// [`execute_window`] with parallelism accounting and per-expression
/// [`SequenceSource`]s (`sources[i]` answers `window_exprs[i]`). Partitions
/// are independent, so contiguous groups of partition ranges run on the
/// shared scheduler when the cost gate opens. Each group owns its span of
/// the sorted rows and stitches its own output rows; group outputs
/// concatenate in partition order, so the result is byte-identical to
/// serial evaluation at every thread count.
#[allow(clippy::too_many_arguments)]
pub fn execute_window_par(
    rows: Vec<Row>,
    partition_by: &[Expr],
    order_by: &[SortKey],
    window_exprs: &[WindowExprSpec],
    sources: &[Option<Arc<dyn SequenceSource>>],
    mode: WindowMode,
    par: &mut ParStats,
    gov: &Gov,
) -> Result<Vec<Row>> {
    // Sort by (partition keys ASC, order keys as specified).
    let mut keys: Vec<SortKey> = partition_by
        .iter()
        .map(|e| SortKey::asc(e.clone()))
        .collect();
    keys.extend(order_by.iter().cloned());
    let sorted = crate::filter::sort(rows, &keys, gov)?;

    // Partition boundaries: runs of equal partition-key vectors.
    let mut pending = 0u64;
    let mut part_keys: Vec<Vec<Value>> = Vec::with_capacity(sorted.len());
    for (i, r) in sorted.iter().enumerate() {
        if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
            gov.charge(&mut pending)?;
        }
        let pk = partition_by
            .iter()
            .map(|e| e.eval(r))
            .collect::<Result<Vec<Value>>>()?;
        pending += values_bytes(&pk);
        part_keys.push(pk);
    }
    gov.charge(&mut pending)?;
    let part_sort_keys: Vec<SortKey> = partition_by
        .iter()
        .map(|e| SortKey::asc(e.clone()))
        .collect();
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for i in 1..sorted.len() {
        if compare_keys(&part_keys[i - 1], &part_keys[i], &part_sort_keys)
            != std::cmp::Ordering::Equal
        {
            ranges.push((start, i));
            start = i;
        }
    }
    if !sorted.is_empty() {
        ranges.push((start, sorted.len()));
    }

    // Ranking functions compare order-key tuples; evaluate them once.
    let need_order_keys = window_exprs.iter().any(|s| s.func.is_ranking());
    let order_keys: Vec<Vec<Value>> = if need_order_keys {
        sorted
            .iter()
            .map(|r| {
                order_by
                    .iter()
                    .map(|k| k.expr.eval(r))
                    .collect::<Result<Vec<Value>>>()
            })
            .collect::<Result<_>>()?
    } else {
        Vec::new()
    };

    // Partitions are independent; hand contiguous groups of them to the
    // shared pool when the cost gate opens (threshold and thread count both
    // live in the scheduler, overridable for tests).
    if !sched::should_parallelize(sorted.len(), ranges.len()) {
        let per_range: Vec<Vec<Vec<Value>>> = ranges
            .iter()
            .map(|&range| {
                let part = &sorted[range.0..range.1];
                let keys = if need_order_keys {
                    &order_keys[range.0..range.1]
                } else {
                    &[][..]
                };
                window_exprs
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        eval_window_expr(part, keys, spec, source_of(sources, i), mode, gov)
                    })
                    .collect()
            })
            .collect::<Result<_>>()?;
        let mut out = Vec::with_capacity(sorted.len());
        let mut pending = 0u64;
        for (range, cols) in ranges.iter().zip(per_range) {
            for i in range.0..range.1 {
                gov.checkpoint(out.len())?;
                let mut values = sorted[i].values().to_vec();
                for col in &cols {
                    values.push(col[i - range.0].clone());
                }
                let row = Row::new(values);
                pending += row_bytes(&row);
                out.push(row);
            }
        }
        gov.charge(&mut pending)?;
        return Ok(out);
    }

    // Carve the sorted rows into owned spans at group boundaries,
    // back-to-front so split_off always leaves the prefix behind. Each
    // task owns its rows outright — no shared borrows across threads.
    let n_groups = sched::effective_threads()
        .saturating_mul(4)
        .min(ranges.len())
        .max(1);
    let per_group = ranges.len().div_ceil(n_groups);
    let groups: Vec<Vec<(usize, usize)>> = ranges.chunks(per_group).map(<[_]>::to_vec).collect();
    par.record(groups.len());

    // One task: (base offset, owned row span, owned order-key span, ranges).
    type GroupTask = (usize, Vec<Row>, Vec<Vec<Value>>, Vec<(usize, usize)>);
    let mut rows_rest = sorted;
    let mut keys_rest = order_keys;
    let mut tasks: Vec<GroupTask> = Vec::with_capacity(groups.len());
    for group in groups.into_iter().rev() {
        let Some(&(base, _)) = group.first() else {
            continue; // chunks() never yields an empty group
        };
        let span_rows = rows_rest.split_off(base);
        let span_keys = if need_order_keys {
            keys_rest.split_off(base)
        } else {
            Vec::new()
        };
        tasks.push((base, span_rows, span_keys, group));
    }
    tasks.reverse();

    let specs = window_exprs.to_vec();
    let sources = sources.to_vec();
    let task_gov = gov.clone();
    let outs = sched::run_ordered_gov(
        tasks,
        gov.clone(),
        move |_, (base, span_rows, span_keys, group)| {
            let mut out = Vec::with_capacity(span_rows.len());
            let mut pending = 0u64;
            for &(lo, hi) in &group {
                let (l, h) = (lo - base, hi - base);
                let part = &span_rows[l..h];
                let keys = if span_keys.is_empty() {
                    &[][..]
                } else {
                    &span_keys[l..h]
                };
                let cols = specs
                    .iter()
                    .enumerate()
                    .map(|(i, spec)| {
                        eval_window_expr(part, keys, spec, source_of(&sources, i), mode, &task_gov)
                    })
                    .collect::<Result<Vec<Vec<Value>>>>()?;
                for i in l..h {
                    let mut values = span_rows[i].values().to_vec();
                    for col in &cols {
                        values.push(col[i - l].clone());
                    }
                    let row = Row::new(values);
                    pending += row_bytes(&row);
                    out.push(row);
                }
                task_gov.charge(&mut pending)?;
            }
            Ok(out)
        },
    )?;
    let mut out = Vec::with_capacity(outs.iter().map(Vec::len).sum());
    for chunk in outs {
        out.extend(chunk);
    }
    Ok(out)
}

/// The source answering the `i`-th window expression, if it has one.
pub(crate) fn source_of(
    sources: &[Option<Arc<dyn SequenceSource>>],
    i: usize,
) -> Option<&dyn SequenceSource> {
    sources.get(i)?.as_deref()
}

/// Evaluate one window expression over one partition: the source's column
/// when there is a source and it recognizes the partition, the native
/// kernel otherwise.
fn eval_window_expr(
    part: &[Row],
    order_keys: &[Vec<Value>],
    spec: &WindowExprSpec,
    source: Option<&dyn SequenceSource>,
    mode: WindowMode,
    gov: &Gov,
) -> Result<Vec<Value>> {
    if let Some(source) = source {
        if let Some(col) = source.column(part, gov)? {
            if col.len() != part.len() {
                return Err(RfvError::internal(format!(
                    "sequence source `{}` answered {} values for a partition of {} rows",
                    source.describe(),
                    col.len(),
                    part.len()
                )));
            }
            gov.reserve(values_bytes(&col))?;
            return Ok(col);
        }
    }
    let func = match spec.func {
        WindowFuncKind::Agg(f) => f,
        ranking => return eval_ranking(part.len(), order_keys, ranking),
    };
    // Pre-evaluate the argument once per row. The argument span is the
    // window's materialized state; charge it before the frame walk.
    let args: Vec<Value> = match &spec.arg {
        Some(e) => part.iter().map(|r| e.eval(r)).collect::<Result<_>>()?,
        // COUNT(*) counts rows; feed a non-null dummy.
        None => vec![Value::Int(1); part.len()],
    };
    gov.reserve(values_bytes(&args))?;
    match mode {
        WindowMode::Naive => eval_naive(&args, func, spec, gov),
        WindowMode::Pipelined => {
            if func.is_retractable() {
                eval_pipelined(&args, func, spec, gov)
            } else {
                eval_minmax_deque(&args, func, spec, gov)
            }
        }
    }
}

/// ROW_NUMBER / RANK / DENSE_RANK over one partition. `order_keys` holds
/// the evaluated ORDER BY tuple per row (already sorted); peers are rows
/// with equal tuples.
fn eval_ranking(len: usize, order_keys: &[Vec<Value>], func: WindowFuncKind) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(len);
    let mut rank = 0i64;
    let mut dense = 0i64;
    for i in 0..len {
        let new_key = i == 0 || order_keys[i] != order_keys[i - 1];
        if new_key {
            rank = i as i64 + 1;
            dense += 1;
        }
        out.push(Value::Int(match func {
            WindowFuncKind::RowNumber => i as i64 + 1,
            WindowFuncKind::Rank => rank,
            WindowFuncKind::DenseRank => dense,
            WindowFuncKind::Agg(_) => {
                return Err(RfvError::internal("aggregate in ranking evaluator"))
            }
        }));
    }
    Ok(out)
}

fn eval_naive(
    args: &[Value],
    func: AggFunc,
    spec: &WindowExprSpec,
    gov: &Gov,
) -> Result<Vec<Value>> {
    let len = args.len();
    let mut out = Vec::with_capacity(len);
    let mut acc = func.accumulator();
    for i in 0..len {
        // O(n·W): a wide frame makes this the longest uninterruptible
        // stretch in the engine, so poll every row, not every stride.
        gov.check()?;
        acc.reset();
        let (lo, hi) = spec.frame.indices(i, len);
        for arg in &args[lo..hi] {
            acc.update(arg)?;
        }
        out.push(acc.finish()?);
    }
    Ok(out)
}

/// Incremental evaluation with a retractable accumulator: both frame ends
/// move monotonically with the row index, so each value is added and
/// retracted at most once (the paper's three-operations-per-position claim).
fn eval_pipelined(
    args: &[Value],
    func: AggFunc,
    spec: &WindowExprSpec,
    gov: &Gov,
) -> Result<Vec<Value>> {
    let len = args.len();
    let mut out = Vec::with_capacity(len);
    let mut acc = func.retract_accumulator()?;
    let (mut cur_lo, mut cur_hi) = (0usize, 0usize);
    for i in 0..len {
        gov.checkpoint(i)?;
        let (lo, hi) = spec.frame.indices(i, len);
        while cur_hi < hi {
            acc.update(&args[cur_hi])?;
            cur_hi += 1;
        }
        while cur_lo < lo {
            acc.retract(&args[cur_lo])?;
            cur_lo += 1;
        }
        // An empty frame (lo == hi) leaves the accumulator drained.
        out.push(acc.finish()?);
    }
    Ok(out)
}

/// Sliding MIN/MAX via a monotonic deque of candidate indices. NULLs are
/// skipped on entry (SQL aggregates ignore NULL).
fn eval_minmax_deque(
    args: &[Value],
    func: AggFunc,
    spec: &WindowExprSpec,
    gov: &Gov,
) -> Result<Vec<Value>> {
    let want = match func {
        AggFunc::Min => std::cmp::Ordering::Less,
        AggFunc::Max => std::cmp::Ordering::Greater,
        other => {
            return Err(RfvError::internal(format!(
                "deque evaluator called for retractable {other}"
            )))
        }
    };
    let len = args.len();
    let mut out = Vec::with_capacity(len);
    let mut deque: VecDeque<usize> = VecDeque::new();
    let mut cur_hi = 0usize;
    for i in 0..len {
        gov.checkpoint(i)?;
        let (lo, hi) = spec.frame.indices(i, len);
        while cur_hi < hi {
            let v = &args[cur_hi];
            if !v.is_null() {
                while let Some(&back) = deque.back() {
                    // Keep the deque monotone: drop candidates dominated by v.
                    let dominated = match args[back].sql_cmp(v)? {
                        Some(o) => o != want && o != std::cmp::Ordering::Equal,
                        None => false,
                    };
                    if dominated {
                        deque.pop_back();
                    } else {
                        break;
                    }
                }
                deque.push_back(cur_hi);
            }
            cur_hi += 1;
        }
        while deque.front().is_some_and(|&f| f < lo) {
            deque.pop_front();
        }
        out.push(match deque.front() {
            Some(&f) => args[f].clone(),
            None => Value::Null,
        });
    }
    Ok(out)
}

impl WindowFuncKind {
    /// Static result type, given the (aggregate) input type. Ranking
    /// functions are always BIGINT.
    pub fn result_type(self, input: rfv_types::DataType) -> rfv_types::DataType {
        match self {
            WindowFuncKind::Agg(a) => a.result_type(input),
            _ => rfv_types::DataType::Int,
        }
    }

    /// Parse a window-function name that is not a plain aggregate.
    pub fn ranking_from_name(name: &str) -> Option<WindowFuncKind> {
        match name.to_ascii_uppercase().as_str() {
            "ROW_NUMBER" => Some(WindowFuncKind::RowNumber),
            "RANK" => Some(WindowFuncKind::Rank),
            "DENSE_RANK" => Some(WindowFuncKind::DenseRank),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_types::row;

    fn seq_rows(vals: &[i64]) -> Vec<Row> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| row![(i + 1) as i64, v])
            .collect()
    }

    #[test]
    fn sliding_saturates_instead_of_wrapping() {
        // `-(u64::MAX as i64)` used to wrap to +1; construction must clamp.
        let f = WindowFrame::sliding(u64::MAX, u64::MAX);
        assert_eq!(f.start(), FrameBound::Offset(-MAX_FRAME_OFFSET));
        assert_eq!(f.end(), FrameBound::Offset(MAX_FRAME_OFFSET));
        // A maximally wide frame covers the whole partition at every row.
        assert_eq!(f.indices(0, 5), (0, 5));
        assert_eq!(f.indices(4, 5), (0, 5));
    }

    #[test]
    fn indices_are_wrap_free_at_extreme_offsets() {
        // Offsets at the i64 boundary must clamp, not wrap, even though
        // `new` rejects them — internal construction bypasses validation.
        let f = WindowFrame {
            start: FrameBound::Offset(i64::MIN),
            end: FrameBound::Offset(i64::MAX),
        };
        for i in [0usize, 1, 999] {
            assert_eq!(f.indices(i, 1000), (0, 1000));
        }
        let empty = WindowFrame {
            start: FrameBound::Offset(i64::MAX),
            end: FrameBound::Offset(i64::MAX),
        };
        // Frame lies entirely past the partition: clamps to empty, no wrap.
        assert_eq!(empty.indices(0, 1000), (1000, 1000));
    }

    #[test]
    fn new_rejects_offsets_beyond_max() {
        assert!(WindowFrame::new(
            FrameBound::Offset(-(MAX_FRAME_OFFSET + 1)),
            FrameBound::Offset(0)
        )
        .is_err());
        assert!(WindowFrame::new(
            FrameBound::Offset(0),
            FrameBound::Offset(MAX_FRAME_OFFSET + 1)
        )
        .is_err());
        assert!(WindowFrame::new(
            FrameBound::Offset(-MAX_FRAME_OFFSET),
            FrameBound::Offset(MAX_FRAME_OFFSET)
        )
        .is_ok());
    }

    fn run(
        rows: Vec<Row>,
        partition: &[Expr],
        spec: WindowExprSpec,
        mode: WindowMode,
    ) -> Vec<Value> {
        execute_window(
            rows,
            partition,
            &[SortKey::asc(Expr::col(0))],
            &[spec],
            mode,
        )
        .unwrap()
        .into_iter()
        .map(|r| r.get(r.len() - 1).clone())
        .collect()
    }

    #[test]
    fn cumulative_sum_matches_paper_semantics() {
        let spec = WindowExprSpec {
            func: WindowFuncKind::Agg(AggFunc::Sum),
            arg: Some(Expr::col(1)),
            frame: WindowFrame::cumulative(),
        };
        for mode in [WindowMode::Naive, WindowMode::Pipelined] {
            let vals = run(seq_rows(&[1, 2, 3, 4]), &[], spec.clone(), mode);
            assert_eq!(
                vals,
                vec![Value::Int(1), Value::Int(3), Value::Int(6), Value::Int(10)],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn centered_sliding_window() {
        // (l, h) = (1, 1): the Fig. 2 example.
        let spec = WindowExprSpec {
            func: WindowFuncKind::Agg(AggFunc::Sum),
            arg: Some(Expr::col(1)),
            frame: WindowFrame::sliding(1, 1),
        };
        for mode in [WindowMode::Naive, WindowMode::Pipelined] {
            let vals = run(seq_rows(&[1, 2, 3, 4, 5]), &[], spec.clone(), mode);
            assert_eq!(
                vals,
                vec![
                    Value::Int(3),
                    Value::Int(6),
                    Value::Int(9),
                    Value::Int(12),
                    Value::Int(9)
                ],
                "{mode:?}"
            );
        }
    }

    #[test]
    fn prospective_window_from_current_row() {
        // ROWS BETWEEN CURRENT ROW AND 2 FOLLOWING.
        let frame = WindowFrame::new(FrameBound::Offset(0), FrameBound::Offset(2)).unwrap();
        let spec = WindowExprSpec {
            func: WindowFuncKind::Agg(AggFunc::Sum),
            arg: Some(Expr::col(1)),
            frame,
        };
        let vals = run(seq_rows(&[1, 2, 3, 4]), &[], spec, WindowMode::Pipelined);
        assert_eq!(
            vals,
            vec![Value::Int(6), Value::Int(9), Value::Int(7), Value::Int(4)]
        );
    }

    #[test]
    fn empty_frames_yield_null_or_zero() {
        // Frame entirely in the future: empty at the last rows.
        let frame = WindowFrame::new(FrameBound::Offset(2), FrameBound::Offset(3)).unwrap();
        for (func, empty) in [
            (AggFunc::Sum, Value::Null),
            (AggFunc::CountStar, Value::Int(0)),
        ] {
            for mode in [WindowMode::Naive, WindowMode::Pipelined] {
                let spec = WindowExprSpec {
                    func: WindowFuncKind::Agg(func),
                    arg: (func == AggFunc::Sum).then(|| Expr::col(1)),
                    frame,
                };
                let vals = run(seq_rows(&[1, 2, 3]), &[], spec, mode);
                assert_eq!(vals[2], empty, "{func} {mode:?}");
                // At row 0 only offset +2 (the third value) is in range.
                assert_eq!(
                    vals[0],
                    match func {
                        AggFunc::Sum => Value::Int(3),
                        _ => Value::Int(1),
                    }
                );
            }
        }
    }

    #[test]
    fn partitions_reset_the_window() {
        // partition = pos % 2; within each partition cumulative sums restart.
        let rows = seq_rows(&[1, 2, 3, 4, 5, 6]);
        let spec = WindowExprSpec {
            func: WindowFuncKind::Agg(AggFunc::Sum),
            arg: Some(Expr::col(1)),
            frame: WindowFrame::cumulative(),
        };
        let vals = run(
            rows,
            &[Expr::col(0).modulo(Expr::lit(2i64))],
            spec,
            WindowMode::Pipelined,
        );
        // Sorted by (parity, pos): evens 2,4,6 then odds 1,3,5.
        assert_eq!(
            vals,
            vec![
                Value::Int(2),
                Value::Int(6),
                Value::Int(12),
                Value::Int(1),
                Value::Int(4),
                Value::Int(9)
            ]
        );
    }

    /// Answers `k²` for partitions of exactly `rows` rows.
    #[derive(Debug)]
    struct Squares {
        rows: usize,
    }

    impl SequenceSource for Squares {
        fn column(&self, part: &[Row], _gov: &Gov) -> Result<Option<Vec<Value>>> {
            let squares = (1..=self.rows as i64).map(|k| Value::Int(k * k));
            Ok((part.len() == self.rows).then(|| squares.collect()))
        }

        fn describe(&self) -> String {
            "squares".into()
        }
    }

    #[test]
    fn a_source_replaces_the_kernel_only_where_it_recognizes_the_partition() {
        let spec = WindowExprSpec {
            func: WindowFuncKind::Agg(AggFunc::Sum),
            arg: Some(Expr::col(1)),
            frame: WindowFrame::cumulative(),
        };
        let sources: SequenceSources = vec![Some(Arc::new(Squares { rows: 3 }))];
        // Sorted by (parity, pos): evens 2,4 — two rows, the kernel's
        // running sum — then odds 1,3,5 — three rows, the source's column.
        let out = execute_window_par(
            seq_rows(&[1, 2, 3, 4, 5]),
            &[Expr::col(0).modulo(Expr::lit(2i64))],
            &[SortKey::asc(Expr::col(0))],
            &[spec],
            &sources,
            WindowMode::Pipelined,
            &mut ParStats::default(),
            &Gov::none(),
        )
        .unwrap();
        let last: Vec<Value> = out.iter().map(|r| r.get(2).clone()).collect();
        assert_eq!(last, [2, 6, 1, 4, 9].map(Value::Int));
    }

    #[test]
    fn sliding_min_max_deque_matches_naive() {
        let mut rng = rfv_testkit::Rng::new(42);
        let vals: Vec<i64> = (0..200).map(|_| rng.i64_in(-50, 49)).collect();
        for func in [AggFunc::Min, AggFunc::Max] {
            for (l, h) in [(0u64, 3u64), (2, 0), (3, 3), (7, 1)] {
                let spec = WindowExprSpec {
                    func: WindowFuncKind::Agg(func),
                    arg: Some(Expr::col(1)),
                    frame: WindowFrame::sliding(l, h),
                };
                let naive = run(seq_rows(&vals), &[], spec.clone(), WindowMode::Naive);
                let fast = run(seq_rows(&vals), &[], spec, WindowMode::Pipelined);
                assert_eq!(naive, fast, "{func} ({l},{h})");
            }
        }
    }

    #[test]
    fn nulls_are_ignored_by_window_aggregates() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Int(5)]),
            Row::new(vec![Value::Int(2), Value::Null]),
            Row::new(vec![Value::Int(3), Value::Int(7)]),
        ];
        for func in [AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Count] {
            let spec = WindowExprSpec {
                func: WindowFuncKind::Agg(func),
                arg: Some(Expr::col(1)),
                frame: WindowFrame::sliding(1, 1),
            };
            for mode in [WindowMode::Naive, WindowMode::Pipelined] {
                let vals = run(rows.clone(), &[], spec.clone(), mode);
                match func {
                    AggFunc::Sum => assert_eq!(
                        vals,
                        vec![Value::Int(5), Value::Int(12), Value::Int(7)],
                        "{mode:?}"
                    ),
                    AggFunc::Count => assert_eq!(
                        vals,
                        vec![Value::Int(1), Value::Int(2), Value::Int(1)],
                        "{mode:?}"
                    ),
                    AggFunc::Min => assert_eq!(
                        vals,
                        vec![Value::Int(5), Value::Int(5), Value::Int(7)],
                        "{mode:?}"
                    ),
                    AggFunc::Max => assert_eq!(
                        vals,
                        vec![Value::Int(5), Value::Int(7), Value::Int(7)],
                        "{mode:?}"
                    ),
                    _ => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn invalid_frames_rejected() {
        assert!(WindowFrame::new(FrameBound::Offset(2), FrameBound::Offset(1)).is_err());
        assert!(WindowFrame::new(FrameBound::UnboundedFollowing, FrameBound::Offset(0)).is_err());
        assert!(WindowFrame::new(FrameBound::Offset(0), FrameBound::UnboundedPreceding).is_err());
    }

    #[test]
    fn avg_window_is_float() {
        let spec = WindowExprSpec {
            func: WindowFuncKind::Agg(AggFunc::Avg),
            arg: Some(Expr::col(1)),
            frame: WindowFrame::sliding(1, 1),
        };
        let vals = run(seq_rows(&[1, 2, 4]), &[], spec, WindowMode::Pipelined);
        assert_eq!(vals[1], Value::Float(7.0 / 3.0));
    }

    #[test]
    fn whole_partition_frame() {
        let spec = WindowExprSpec {
            func: WindowFuncKind::Agg(AggFunc::Sum),
            arg: Some(Expr::col(1)),
            frame: WindowFrame::unbounded(),
        };
        let vals = run(seq_rows(&[1, 2, 3]), &[], spec, WindowMode::Pipelined);
        assert_eq!(vals, vec![Value::Int(6); 3]);
    }

    #[test]
    fn naive_and_pipelined_agree_on_random_data() {
        let mut rng = rfv_testkit::Rng::new(7);
        let vals: Vec<i64> = (0..300).map(|_| rng.i64_in(-100, 99)).collect();
        for frame in [
            WindowFrame::cumulative(),
            WindowFrame::sliding(5, 0),
            WindowFrame::sliding(0, 5),
            WindowFrame::sliding(3, 4),
            WindowFrame::new(FrameBound::Offset(-10), FrameBound::Offset(-2)).unwrap(),
            WindowFrame::new(FrameBound::Offset(2), FrameBound::Offset(10)).unwrap(),
            WindowFrame::new(FrameBound::Offset(-3), FrameBound::UnboundedFollowing).unwrap(),
        ] {
            for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Count] {
                let spec = WindowExprSpec {
                    func: WindowFuncKind::Agg(func),
                    arg: Some(Expr::col(1)),
                    frame,
                };
                let a = run(seq_rows(&vals), &[], spec.clone(), WindowMode::Naive);
                let b = run(seq_rows(&vals), &[], spec, WindowMode::Pipelined);
                assert_eq!(a, b, "{func} {frame}");
            }
        }
    }
}
