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

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use rfv_expr::agg::sliding_extremum;
use rfv_expr::{AggFunc, AvgAcc, CountAcc, Expr, SumAcc, TypedRetract};
use rfv_types::{Gov, Result, RfvError, Row, Value};

use crate::filter::{Column, KeyOrder};
use crate::mem::values_bytes;
use crate::physical::SortKey;
use crate::sched::ParStats;

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
    /// `i < len ≤ isize::MAX`, so both fit an `i64`; saturating adds make
    /// the bound arithmetic immune to wrap at any offset, and the clamp
    /// brings the result back into `[0, len]` before narrowing.
    #[inline]
    fn indices(&self, i: usize, len: usize) -> (usize, usize) {
        let at = |offset: i64| (i as i64).saturating_add(offset).clamp(0, len as i64) as usize;
        let lo = match self.start {
            FrameBound::UnboundedPreceding => 0,
            FrameBound::Offset(s) => at(s),
            FrameBound::UnboundedFollowing => len,
        };
        let hi = match self.end {
            FrameBound::UnboundedFollowing => len,
            FrameBound::Offset(e) => at(e.saturating_add(1)),
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

/// Execute the window operator (see the module docs for semantics);
/// `sources[i]`, where present, answers `window_exprs[i]`. One pass over the
/// input extracts the key columns and each distinct argument column (none
/// for an expression a source answers); [`KeyOrder::of`] puts rows and
/// columns in (partition keys, order keys) order — sorting only what the
/// input's own order leaves to sort, and saying what that was in
/// `par.order` — and partitions and peer groups are read off the key
/// columns by adjacent comparison. The kernels then walk the partitions in
/// one pass per expression, on the calling thread at every thread count:
/// the recurrence of §2.2 is three operations a position, less than
/// handing a partition group to another thread costs.
#[allow(clippy::too_many_arguments)]
pub fn execute_window(
    rows: Vec<Row>,
    partition_by: &[Expr],
    order_by: &[SortKey],
    window_exprs: &[WindowExprSpec],
    sources: &[Option<Arc<dyn SequenceSource>>],
    mode: WindowMode,
    par: &mut ParStats,
    gov: &Gov,
) -> Result<Vec<Row>> {
    // Order by (partition keys ASC, order keys as specified).
    let mut keys: Vec<SortKey> = partition_by
        .iter()
        .map(|e| SortKey::asc(e.clone()))
        .collect();
    keys.extend(order_by.iter().cloned());
    let mut exprs: Vec<&Expr> = keys.iter().map(|k| &k.expr).collect();
    let arg_of: Vec<Option<usize>> = (window_exprs.iter().enumerate())
        .map(|(i, spec)| {
            let arg = spec
                .arg
                .as_ref()
                .filter(|_| source_of(sources, i).is_none())?;
            let at = (exprs[keys.len()..].iter()).position(|e| *e == arg);
            Some(at.unwrap_or_else(|| {
                exprs.push(arg);
                exprs.len() - keys.len() - 1
            }))
        })
        .collect();
    let n = rows.len();
    let mut cols = Column::eval(&rows, &exprs, gov)?;
    let args = cols.split_off(keys.len());
    let ord = KeyOrder::of(cols, n, &keys, gov)?;
    par.order = Some(ord.found);
    let args: Vec<Column> = args.into_iter().map(|col| ord.apply_to(col)).collect();

    // Partitions are runs of equal partition keys; within one, a row opens a
    // new peer group when its order keys differ from the row before (only
    // the ranking functions ask).
    let ranked = window_exprs.iter().any(|s| s.func.is_ranking());
    let mut peers: Vec<bool> = Vec::with_capacity(if ranked { n } else { 0 });
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    for i in 0..n {
        gov.checkpoint(i)?;
        let opens = i > 0 && ord.differs(i, 0..partition_by.len());
        if opens {
            ranges.push((start, i));
            start = i;
        }
        if ranked {
            peers.push(i == 0 || opens || ord.differs(i, partition_by.len()..keys.len()));
        }
    }
    if n > 0 {
        ranges.push((start, n));
    }
    gov.reserve(peers.len() as u64)?;
    let sorted = ord.apply(rows);
    drop(ord);

    let node = Node {
        specs: window_exprs,
        sources,
        args: &args,
        arg_of: &arg_of,
        peers: &peers,
        mode,
        gov,
    };
    node.eval(sorted, &ranges)
}

/// The source answering the `i`-th window expression, if it has one.
pub(crate) fn source_of(
    sources: &[Option<Arc<dyn SequenceSource>>],
    i: usize,
) -> Option<&dyn SequenceSource> {
    sources.get(i)?.as_deref()
}

/// One window node over its ordered input, which `args` and `peers` cover;
/// `peers` is empty when nothing ranks.
struct Node<'a> {
    specs: &'a [WindowExprSpec],
    sources: &'a [Option<Arc<dyn SequenceSource>>],
    /// The distinct argument columns extracted up front.
    args: &'a [Column],
    /// `args[arg_of[i]]` is `specs[i]`'s argument, if it was extracted.
    arg_of: &'a [Option<usize>],
    peers: &'a [bool],
    mode: WindowMode,
    gov: &'a Gov,
}

impl Node<'_> {
    /// Evaluate every window expression over `rows` — the node's ordered
    /// input, whose partitions are `ranges`, ascending — and append the
    /// results to the rows, which are moved, not copied, into the output.
    /// The result columns are the materialized state, charged here.
    fn eval(&self, mut rows: Vec<Row>, ranges: &[(usize, usize)]) -> Result<Vec<Row>> {
        let mut cols = Vec::with_capacity(self.specs.len());
        for i in 0..self.specs.len() {
            let col = self.column(i, &rows, ranges)?;
            self.gov.reserve(values_bytes(&col))?;
            cols.push(col.into_iter());
        }
        for (i, row) in rows.iter_mut().enumerate() {
            self.gov.checkpoint(i)?;
            let mut values = std::mem::replace(row, Row::empty()).into_values();
            // Amortized growth: the next window node of a chain pushes into
            // the capacity this reallocation bought.
            values.reserve(cols.len());
            values.extend(cols.iter_mut().filter_map(Iterator::next));
            *row = Row::new(values);
        }
        Ok(rows)
    }

    /// The `i`-th expression's column: a partition's values come from the
    /// expression's source where there is one and it recognizes the
    /// partition, from the native kernel otherwise.
    fn column(&self, i: usize, rows: &[Row], ranges: &[(usize, usize)]) -> Result<Vec<Value>> {
        let (spec, gov) = (&self.specs[i], self.gov);
        let mut col: Vec<Value> = Vec::with_capacity(rows.len());
        // An argument that was not extracted up front — the expression has a
        // source — is evaluated on the first partition the source declines.
        let mut own: Option<Column> = None;
        let mut kernel = |ranges: &[(usize, usize)], col: &mut Vec<Value>| {
            let func = match spec.func {
                WindowFuncKind::Agg(f) => f,
                ranking => return eval_ranking(self.peers, ranking, ranges, col),
            };
            let args = match (self.arg_of[i], &mut own) {
                (Some(at), _) => &self.args[at],
                (None, Some(own)) => &*own,
                (None, own) => {
                    let args = match &spec.arg {
                        Some(e) => Column::eval(rows, &[e], gov)?.remove(0),
                        // COUNT(*) counts rows; feed a non-null dummy.
                        None => Column::Int(vec![1; rows.len()]),
                    };
                    &*own.insert(args)
                }
            };
            self.run_kernel(func, &spec.frame, args, ranges, col)
        };
        let Some(source) = source_of(self.sources, i) else {
            kernel(ranges, &mut col)?;
            return Ok(col);
        };
        for &(lo, hi) in ranges {
            match source.column(&rows[lo..hi], gov)? {
                Some(part) => col.extend(part),
                None => kernel(&[(lo, hi)], &mut col)?,
            }
            if col.len() != hi {
                return Err(RfvError::internal(format!(
                    "`{spec}` (source `{}`) answered {} values for the first {hi} rows",
                    source.describe(),
                    col.len()
                )));
            }
        }
        Ok(col)
    }

    /// Append `func`'s values over the partitions `ranges` of the column
    /// `args`, in whichever lane it is in.
    fn run_kernel(
        &self,
        func: AggFunc,
        frame: &WindowFrame,
        args: &Column,
        ranges: &[(usize, usize)],
        out: &mut Vec<Value>,
    ) -> Result<()> {
        macro_rules! on_lane {
            ($kernel:expr) => {
                match args {
                    Column::Float(lane) => $kernel(lane, frame, ranges, out, self.gov),
                    Column::Int(lane) => $kernel(lane, frame, ranges, out, self.gov),
                    Column::Values(lane) => $kernel(lane, frame, ranges, out, self.gov),
                }
            };
        }
        match (self.mode, func) {
            (WindowMode::Naive, _) => on_lane!(|a, f, r, o, g| eval_naive(a, func, f, r, o, g)),
            (_, AggFunc::Sum) => on_lane!(eval_pipelined::<_, SumAcc>),
            (_, AggFunc::Avg) => on_lane!(eval_pipelined::<_, AvgAcc>),
            (_, AggFunc::Count | AggFunc::CountStar) => on_lane!(eval_pipelined::<_, CountAcc>),
            (_, AggFunc::Min | AggFunc::Max) => {
                on_lane!(|a, f, r, o, g| eval_minmax_deque(a, func, f, r, o, g))
            }
        }
    }
}

/// One element of a kernel's input column. A column observed to be all
/// `Float` or all `Int`, hence without NULLs, is walked as a plain `&[f64]`
/// / `&[i64]` (the slice lanes); anything else — NULLs, mixed numerics,
/// strings under MIN/MAX — as `&[Value]`. The recurrences below are written
/// once over this trait, and every lane enters the accumulators through the
/// same arithmetic ([`TypedRetract`]), so which lane ran cannot be told
/// from the result, float bits included.
trait Lane {
    fn is_null(&self) -> bool;
    fn add(&self, acc: &mut impl TypedRetract) -> Result<()>;
    fn retract(&self, acc: &mut impl TypedRetract) -> Result<()>;
    /// [`Value::sql_cmp`] of the lane's values.
    fn sql_cmp(&self, other: &Self) -> Result<Option<Ordering>>;
    fn value(&self) -> Value;
}

impl Lane for f64 {
    fn is_null(&self) -> bool {
        false
    }
    fn add(&self, acc: &mut impl TypedRetract) -> Result<()> {
        acc.add_float(*self);
        Ok(())
    }
    fn retract(&self, acc: &mut impl TypedRetract) -> Result<()> {
        acc.retract_float(*self);
        Ok(())
    }
    fn sql_cmp(&self, other: &Self) -> Result<Option<Ordering>> {
        Ok(Some(self.partial_cmp(other).unwrap_or(Ordering::Equal)))
    }
    fn value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Lane for i64 {
    fn is_null(&self) -> bool {
        false
    }
    fn add(&self, acc: &mut impl TypedRetract) -> Result<()> {
        acc.add_int(*self);
        Ok(())
    }
    fn retract(&self, acc: &mut impl TypedRetract) -> Result<()> {
        acc.retract_int(*self);
        Ok(())
    }
    fn sql_cmp(&self, other: &Self) -> Result<Option<Ordering>> {
        Ok(Some(self.cmp(other)))
    }
    fn value(&self) -> Value {
        Value::Int(*self)
    }
}

impl Lane for Value {
    fn is_null(&self) -> bool {
        Value::is_null(self)
    }
    fn add(&self, acc: &mut impl TypedRetract) -> Result<()> {
        acc.update(self)
    }
    fn retract(&self, acc: &mut impl TypedRetract) -> Result<()> {
        acc.retract(self)
    }
    fn sql_cmp(&self, other: &Self) -> Result<Option<Ordering>> {
        Value::sql_cmp(self, other)
    }
    fn value(&self) -> Value {
        self.clone()
    }
}

/// ROW_NUMBER / RANK / DENSE_RANK. `peers[i]` says whether row `i` opens a
/// new peer group (its ORDER BY tuple differs from the row before).
fn eval_ranking(
    peers: &[bool],
    func: WindowFuncKind,
    ranges: &[(usize, usize)],
    out: &mut Vec<Value>,
) -> Result<()> {
    for &(lo, hi) in ranges {
        let (mut rank, mut dense) = (0i64, 0i64);
        for (number, opens) in (1i64..).zip(&peers[lo..hi]) {
            if number == 1 || *opens {
                rank = number;
                dense += 1;
            }
            out.push(Value::Int(match func {
                WindowFuncKind::RowNumber => number,
                WindowFuncKind::Rank => rank,
                WindowFuncKind::DenseRank => dense,
                WindowFuncKind::Agg(_) => {
                    return Err(RfvError::internal("aggregate in ranking evaluator"))
                }
            }));
        }
    }
    Ok(())
}

/// The explicit form of §2.2 — re-aggregate the whole frame for every row —
/// kept as [`WindowMode::Naive`]: the paper's baseline and the tests' oracle.
fn eval_naive<T: Lane>(
    args: &[T],
    func: AggFunc,
    frame: &WindowFrame,
    ranges: &[(usize, usize)],
    out: &mut Vec<Value>,
    gov: &Gov,
) -> Result<()> {
    let mut acc = func.accumulator();
    for &(plo, phi) in ranges {
        for i in plo..phi {
            // O(n·W): a wide frame makes this the longest uninterruptible
            // stretch in the engine, so poll every row, not every stride.
            gov.check()?;
            acc.reset();
            let (lo, hi) = frame.indices(i - plo, phi - plo);
            for arg in &args[plo + lo..plo + hi] {
                acc.update(&arg.value())?;
            }
            out.push(acc.finish()?);
        }
    }
    Ok(())
}

/// Incremental evaluation with a retractable accumulator: both frame ends
/// move monotonically with the row index, so each value is added and
/// retracted at most once (the paper's three-operations-per-position claim).
fn eval_pipelined<T: Lane, A: TypedRetract>(
    args: &[T],
    frame: &WindowFrame,
    ranges: &[(usize, usize)],
    out: &mut Vec<Value>,
    gov: &Gov,
) -> Result<()> {
    let mut acc = A::default();
    for &(plo, phi) in ranges {
        acc.reset();
        let (mut cur_lo, mut cur_hi) = (plo, plo);
        for i in plo..phi {
            gov.checkpoint(i)?;
            let (lo, hi) = frame.indices(i - plo, phi - plo);
            while cur_hi < plo + hi {
                args[cur_hi].add(&mut acc)?;
                cur_hi += 1;
            }
            while cur_lo < plo + lo {
                args[cur_lo].retract(&mut acc)?;
                cur_lo += 1;
            }
            // An empty frame (lo == hi) leaves the accumulator drained.
            out.push(acc.finish()?);
        }
    }
    Ok(())
}

/// Sliding MIN/MAX: every partition's frames, in order, through the one
/// sliding-extremum kernel. NULLs are skipped (SQL aggregates ignore NULL).
fn eval_minmax_deque<T: Lane>(
    args: &[T],
    func: AggFunc,
    frame: &WindowFrame,
    ranges: &[(usize, usize)],
    out: &mut Vec<Value>,
    gov: &Gov,
) -> Result<()> {
    let want = match func {
        AggFunc::Min => Ordering::Less,
        AggFunc::Max => Ordering::Greater,
        other => {
            return Err(RfvError::internal(format!(
                "deque evaluator called for retractable {other}"
            )))
        }
    };
    // Partitions are ascending, so their frames' ends never decrease either.
    let windows = ranges.iter().flat_map(|&(plo, phi)| {
        (plo..phi).map(move |i| {
            let (lo, hi) = frame.indices(i - plo, phi - plo);
            (plo + lo, plo + hi)
        })
    });
    let mut rows = ranges.iter().flat_map(|&(plo, phi)| plo..phi);
    sliding_extremum(
        windows,
        |i| args[i].is_null(),
        |a, b| Ok(args[a].sql_cmp(&args[b])? == Some(want)),
        |best| {
            gov.checkpoint(rows.next().unwrap_or_default())?;
            out.push(best.map_or(Value::Null, |f| args[f].value()));
            Ok(())
        },
    )
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
            &[],
            mode,
            &mut ParStats::default(),
            &Gov::none(),
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
        let out = execute_window(
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
    /// Variant and bits of every value: `0.0` and `-0.0`, `Int(3)` and
    /// `Float(3.0)` are different answers here.
    fn bits(vals: &[Value]) -> Vec<String> {
        vals.iter()
            .map(|v| match v {
                Value::Float(f) => format!("f{:016x}", f.to_bits()),
                other => format!("{other:?}"),
            })
            .collect()
    }

    /// `func` over `ranges` of a column forced into a lane by how `col`
    /// was built — the operator's own dispatch, minus the observation.
    fn kernel(
        mode: WindowMode,
        func: AggFunc,
        frame: &WindowFrame,
        col: &Column,
        ranges: &[(usize, usize)],
    ) -> Vec<Value> {
        let node = Node {
            specs: &[],
            sources: &[],
            args: &[],
            arg_of: &[],
            peers: &[],
            mode,
            gov: &Gov::none(),
        };
        let mut out = Vec::new();
        node.run_kernel(func, frame, col, ranges, &mut out).unwrap();
        out
    }

    #[test]
    fn slice_lanes_are_bit_identical_to_the_value_lane_and_to_naive_where_it_is_exact() {
        const FLOATS: [f64; 8] = [-0.0, 0.0, 1.5, -2.25, 1e16, -1e16, 0.1, 3.0];
        let frames = [
            WindowFrame::cumulative(),
            WindowFrame::sliding(2, 1),
            WindowFrame::sliding(0, 3),
            WindowFrame::new(FrameBound::Offset(2), FrameBound::Offset(3)).unwrap(),
            WindowFrame::new(FrameBound::Offset(-3), FrameBound::Offset(-1)).unwrap(),
            WindowFrame::sliding(1000, 1000),
            WindowFrame::unbounded(),
        ];
        rfv_testkit::check_config(
            400,
            "slice lane ≡ Value lane (bits); both ≡ naive where naive is exact",
            |rng| {
                // Per row: (value code, whether it opens a partition).
                let code = |rng: &mut rfv_testkit::Rng| (rng.u64_below(8) as u8, rng.chance(1, 3));
                let rows = rfv_testkit::gen::vec_of(code, 0, 40)(rng);
                (rows, rng.u64_below(4) as u8, rng.u64_below(7) as u8)
            },
            |(rows, kind, frame)| {
                let frame = &frames[usize::from(*frame)];
                let vals: Vec<Value> = (rows.iter().enumerate())
                    .map(|(i, &(code, _))| match kind {
                        0 => Value::Float(FLOATS[usize::from(code)]),
                        1 => Value::Int(i64::from(code) - 3),
                        2 if code == 7 => Value::Null,
                        2 => Value::Float(FLOATS[usize::from(code)]),
                        // Written before the column had one type.
                        _ if i % 2 == 0 => Value::Int(i64::from(code) - 3),
                        _ => Value::Float(FLOATS[usize::from(code)]),
                    })
                    .collect();
                let mut ranges: Vec<(usize, usize)> = Vec::new();
                for (i, &(_, opens)) in rows.iter().enumerate() {
                    match ranges.last_mut() {
                        Some(last) if !opens => last.1 = i + 1,
                        _ => ranges.push((i, i + 1)),
                    }
                }
                let floats = vals.iter().map(|v| match v {
                    Value::Float(f) => Some(*f),
                    _ => None,
                });
                let ints = vals.iter().map(|v| match v {
                    Value::Int(i) => Some(*i),
                    _ => None,
                });
                let slices: Option<Column> = match kind {
                    0 => floats.collect::<Option<_>>().map(Column::Float),
                    1 => ints.collect::<Option<_>>().map(Column::Int),
                    _ => None,
                };
                for func in [
                    AggFunc::Sum,
                    AggFunc::Avg,
                    AggFunc::Count,
                    AggFunc::CountStar,
                    AggFunc::Min,
                    AggFunc::Max,
                ] {
                    // COUNT(*) is fed one non-null dummy per row.
                    let ones = func == AggFunc::CountStar;
                    let boxed = match ones {
                        true => Column::Values(vec![Value::Int(1); vals.len()]),
                        false => Column::Values(vals.clone()),
                    };
                    let by_value = kernel(WindowMode::Pipelined, func, frame, &boxed, &ranges);
                    assert_eq!(by_value.len(), vals.len());
                    let ones = ones.then(|| Column::Int(vec![1; vals.len()]));
                    if let Some(slices) = ones.as_ref().or(slices.as_ref()) {
                        let by_slice = kernel(WindowMode::Pipelined, func, frame, slices, &ranges);
                        assert_eq!(bits(&by_slice), bits(&by_value), "{func} {frame}");
                    }
                    // A fresh sum per frame rounds differently from a
                    // running one; everything else must agree with it.
                    let float_sum = *kind != 1 && matches!(func, AggFunc::Sum | AggFunc::Avg);
                    if !float_sum {
                        let naive = kernel(WindowMode::Naive, func, frame, &boxed, &ranges);
                        assert_eq!(bits(&naive), bits(&by_value), "{func} {frame}");
                    }
                }
            },
        );
    }

    /// What the operator observes is what the test above forces: a column
    /// of one numeric variant takes a slice lane, anything else the boxed one.
    #[test]
    fn the_lane_is_chosen_from_the_values_observed() {
        let lane = |vals: Vec<Value>| {
            let rows: Vec<Row> = vals.into_iter().map(|v| Row::new(vec![v])).collect();
            match Column::eval(&rows, &[&Expr::col(0)], &Gov::none())
                .unwrap()
                .remove(0)
            {
                Column::Float(_) => "f64",
                Column::Int(_) => "i64",
                Column::Values(_) => "Value",
            }
        };
        assert_eq!(lane(vec![Value::Float(1.0), Value::Float(-0.0)]), "f64");
        assert_eq!(lane(vec![Value::Int(1), Value::Int(2)]), "i64");
        assert_eq!(lane(vec![Value::Float(1.0), Value::Null]), "Value");
        assert_eq!(lane(vec![Value::Null, Value::Float(1.0)]), "Value");
        assert_eq!(lane(vec![Value::Int(1), Value::Float(1.0)]), "Value");
        assert_eq!(lane(vec![Value::str("a"), Value::str("b")]), "Value");
        assert_eq!(lane(vec![]), "Value");
    }
}
