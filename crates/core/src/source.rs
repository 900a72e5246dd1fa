//! Execution-time sequence sources: how a rewritten plan reads a view.
//!
//! The rewriter ([`crate::rewrite`]) decides *which* view answers a window
//! expression and by *which* strategy; it computes nothing. It hangs a
//! [`ViewSource`] on the statement's own `Window` node instead, and the
//! window operator asks that source for the expression's column once per
//! partition, when the statement runs. The source looks the live view up
//! (an `Arc` clone under the registry's read lock, no table lock held),
//! checks that the partition it was handed is exactly the sequence the
//! view holds — the scan and the view are read at different instants — and
//! derives the column with the one-pass forms of [`crate::derive`]. When
//! the check fails it answers `None` and the operator's native kernel runs,
//! so a derivation can replace a column but never add, drop or reorder a
//! row. It also answers `None` rather than deliver an integer result that
//! `f64` arithmetic may not have carried exactly: the native kernel sums
//! integers in `i128`.

use std::fmt;

use rfv_exec::SequenceSource;
use rfv_expr::AggFunc;
use rfv_types::{DataType, Gov, Result, Row, Value};

use crate::derive::{self, cumulative, linear, maxoa, window_cardinality};
use crate::rewrite::RewriteStrategy;
use crate::sequence::{CompleteSequence, WindowSpec};
use crate::view::{SequenceView, ViewData, ViewRegistry};

/// Integers below this magnitude are `f64`s, and add and subtract exactly
/// as long as the result stays below it too.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2⁵³

/// `Σ|x̃|` over everything `seq` stores.
fn abs_sum(seq: &CompleteSequence) -> f64 {
    seq.entries().map(|(_, v)| v.abs()).sum()
}

/// Where the sequence's key sits in the window node's input rows.
pub(crate) struct KeyColumns {
    /// The window's PARTITION BY columns: the kept prefix of the view's
    /// partitioning scheme (empty for a simple sequence).
    pub partition: Vec<usize>,
    /// The rest of the scheme, which the query orders by instead of
    /// partitioning by (§6.2), in scheme order.
    pub reduced: Vec<usize>,
    /// The position column, last in the window's ORDER BY.
    pub pos: usize,
}

/// One window expression answered from one registered view.
pub(crate) struct ViewSource {
    pub registry: ViewRegistry,
    pub view: String,
    pub strategy: RewriteStrategy,
    /// The query's aggregate and window.
    pub agg: AggFunc,
    pub target: WindowSpec,
    /// The expression's declared result type; values are delivered in it.
    pub result_type: DataType,
    pub keys: KeyColumns,
}

impl fmt::Debug for ViewSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ViewSource({})", self.describe())
    }
}

impl SequenceSource for ViewSource {
    fn column(&self, part: &[Row], gov: &Gov) -> Result<Option<Vec<Value>>> {
        gov.check()?;
        let column = match self.registry.get(&self.view) {
            Some(view) => self.derive(&view, part, gov)?,
            None => None,
        };
        if column.is_none() {
            self.registry.native_fallbacks().incr();
        }
        Ok(column)
    }

    fn describe(&self) -> String {
        format!("{} via {}", self.view, self.strategy.label())
    }
}

impl ViewSource {
    /// The expression's column over `part`, or `None` when `part` is not
    /// the sequence `view` holds now (or `view` is no longer the view the
    /// strategy was chosen for).
    fn derive(&self, view: &SequenceView, part: &[Row], gov: &Gov) -> Result<Option<Vec<Value>>> {
        let Some(first) = part.first() else {
            return Ok(Some(Vec::new()));
        };
        let key: Vec<Value> = (self.keys.partition.iter())
            .map(|&c| first.get(c).clone())
            .collect();
        match (&self.strategy, &view.data, self.target) {
            // §6.1: the partition's own complete sequence.
            (
                RewriteStrategy::PartitionedMinOA { .. },
                ViewData::PartitionedSum(parts),
                WindowSpec::Sliding { l, h },
            ) => {
                let Some(seq) = parts.get(&key) else {
                    return Ok(None);
                };
                if !self.exact(|| abs_sum(seq)) || !self.aligned(part, [(&[][..], seq.n())], gov)? {
                    return Ok(None);
                }
                self.typed(derive::derive_sum(seq, l, h)?.into_iter().map(Some), gov)
            }
            // §6.2: the partitions under this kept prefix, merged in key
            // order (the map's order; `aligned` checks it is the scan's).
            (
                RewriteStrategy::PartitionReduction { .. },
                ViewData::PartitionedSum(parts),
                WindowSpec::Sliding { l, h },
            ) => {
                let members: Vec<_> = (parts.range(key.clone()..))
                    .take_while(|(k, _)| k.starts_with(&key))
                    .collect();
                let layout = members.iter().map(|(k, seq)| (&k[key.len()..], seq.n()));
                if !self.exact(|| members.iter().map(|(_, seq)| abs_sum(seq)).sum())
                    || !self.aligned(part, layout, gov)?
                {
                    return Ok(None);
                }
                let sums = linear::reduce_partitions(members.iter().map(|(_, seq)| *seq), l, h)?;
                self.typed(sums.into_iter().map(Some), gov)
            }
            (_, data, _) => {
                // Two-point differences of a cumulative view reach twice its
                // largest value; COUNT and MIN/MAX add nothing up.
                let stored = || match (&self.strategy, data) {
                    (RewriteStrategy::ClosedFormCount, _) => 0.0,
                    (_, ViewData::Sum(seq)) => abs_sum(seq),
                    (_, ViewData::CumulativeSum(c)) => {
                        c.body().iter().fold(0.0f64, |m, v| m.max(v.abs()))
                    }
                    _ => 0.0,
                };
                if !self.exact(stored) || !self.aligned(part, [(&[][..], view.n())], gov)? {
                    return Ok(None);
                }
                self.simple(view, gov)
            }
        }
    }

    /// Whether a derivation from stored values whose magnitudes sum to
    /// `stored()` is exact in `f64` — asked for integer results only, where
    /// the native kernel is exact (`i128`). Every intermediate of the
    /// one-pass forms is a running total of stored values a stride apart, or
    /// a difference of two: at most twice that sum in magnitude, and
    /// integers below 2⁵³ add and subtract exactly.
    fn exact(&self, stored: impl FnOnce() -> f64) -> bool {
        self.result_type != DataType::Int || 4.0 * stored() < EXACT_INT_LIMIT
    }

    /// Whether `part` is, member after member, exactly the positions
    /// `1..=n` under the member's values of the reduced columns.
    fn aligned<'a>(
        &self,
        part: &[Row],
        members: impl IntoIterator<Item = (&'a [Value], i64)>,
        gov: &Gov,
    ) -> Result<bool> {
        let mut rows = part.iter();
        let mut seen = 0usize;
        for (reduced, n) in members {
            for k in 1..=n {
                gov.checkpoint(seen)?;
                seen += 1;
                let Some(row) = rows.next() else {
                    return Ok(false);
                };
                let at_k = matches!(row.get(self.keys.pos), Value::Int(p) if *p == k);
                let in_member =
                    (self.keys.reduced.iter().zip(reduced)).all(|(&c, v)| row.get(c) == v);
                if !(at_k && in_member) {
                    return Ok(false);
                }
            }
        }
        Ok(rows.next().is_none())
    }

    /// The column over a simple (unpartitioned) sequence, already aligned.
    fn simple(&self, view: &SequenceView, gov: &Gov) -> Result<Option<Vec<Value>>> {
        let n = view.n();
        let cardinality = |k: i64| window_cardinality(self.target, n, k) as f64;
        match (&self.strategy, &view.data, self.target) {
            (RewriteStrategy::ClosedFormCount, ..) => {
                self.typed((1..=n).map(|k| Some(cardinality(k))), gov)
            }
            // `n` is the body length of the view that supplied the SUM.
            (RewriteStrategy::AvgFromSum { sum }, ..) => {
                let Some(sums) = self.sums(sum, view)? else {
                    return Ok(None);
                };
                let avgs = sums.into_iter().zip(1..).map(|(s, k)| s / cardinality(k));
                self.typed(avgs.map(Some), gov)
            }
            (RewriteStrategy::ExactMatch, ViewData::MinMax(seq), _)
                if view.window == self.target && seq.is_max() == (self.agg == AggFunc::Max) =>
            {
                self.typed(seq.body().into_iter(), gov)
            }
            (
                RewriteStrategy::MaxOA { .. },
                ViewData::MinMax(seq),
                WindowSpec::Sliding { l, h },
            ) if seq.is_max() == (self.agg == AggFunc::Max) => {
                // A failed precondition means the view was redefined.
                match maxoa::derive_minmax(seq, l, h) {
                    Ok(cells) => self.typed(cells.into_iter(), gov),
                    Err(_) => Ok(None),
                }
            }
            (strategy, ..) => {
                let Some(sums) = self.sums(strategy, view)? else {
                    return Ok(None);
                };
                self.typed(sums.into_iter().map(Some), gov)
            }
        }
    }

    /// The target SUM sequence by `strategy`; `None` when `view` no longer
    /// has the shape the strategy was chosen for.
    fn sums(&self, strategy: &RewriteStrategy, view: &SequenceView) -> Result<Option<Vec<f64>>> {
        Ok(match (strategy, &view.data, self.target) {
            (RewriteStrategy::ExactMatch, ViewData::Sum(seq), _) if view.window == self.target => {
                Some(seq.body())
            }
            (RewriteStrategy::ExactMatch, ViewData::CumulativeSum(c), WindowSpec::Cumulative) => {
                Some(c.body().to_vec())
            }
            (
                RewriteStrategy::CumulativeDifference,
                ViewData::CumulativeSum(c),
                WindowSpec::Sliding { l, h },
            ) => Some(cumulative::sliding_from_cumulative(c, l, h)?),
            (
                RewriteStrategy::CumulativeFromSliding,
                ViewData::Sum(seq),
                WindowSpec::Cumulative,
            ) => Some(linear::cumulative_from_sliding(seq)),
            (RewriteStrategy::MinOA { .. }, ViewData::Sum(seq), WindowSpec::Sliding { l, h }) => {
                Some(linear::sliding_from_sliding(seq, l, h)?)
            }
            _ => None,
        })
    }

    /// `cells` as values of the declared result type (`None` cells are
    /// NULL). An integer column's result that is not an integer below 2⁵³
    /// is not delivered at all: `None`, and the native kernel answers.
    fn typed(
        &self,
        cells: impl Iterator<Item = Option<f64>>,
        gov: &Gov,
    ) -> Result<Option<Vec<Value>>> {
        let mut out = Vec::with_capacity(cells.size_hint().0);
        for (i, cell) in cells.enumerate() {
            gov.checkpoint(i)?;
            out.push(match (cell, self.result_type) {
                (None, _) => Value::Null,
                (Some(v), DataType::Int) => {
                    if v.fract() != 0.0 || v.abs() >= EXACT_INT_LIMIT {
                        return Ok(None);
                    }
                    Value::Int(v as i64)
                }
                (Some(v), _) => Value::Float(v),
            });
        }
        Ok(Some(out))
    }
}
