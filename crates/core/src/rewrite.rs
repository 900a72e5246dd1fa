//! View-aware query rewriting.
//!
//! The paper's framing (§1, §3): a warehouse holds materialized reporting
//! function views; incoming reporting-function queries should be answered
//! *from the views* "directly after parsing the query". This module
//! implements that hook for the `rfv` engine: given the bound logical plan
//! of a query, it recognizes the reporting-function shape
//!
//! ```text
//! Project( [Sort(] Window( Scan(base) ) [)] )
//!   with PARTITION BY ∅, ORDER BY pos ASC, frame ROWS …
//! ```
//!
//! and, when a registered [`SequenceView`] over the same base/columns can
//! derive each window expression, emits the statement's own `Window` node
//! with one sequence source (`crate::source`) per expression. The
//! rewriter only *selects* — view and strategy, in a fixed order of
//! preference — and checks preconditions; the source derives the column
//! from the live view when the statement executes:
//!
//! * SUM: exact window match (the view body) > cumulative view (two-point
//!   difference, §3.1) > widest sliding view (**MinOA**, §5, as two lookups
//!   into one strided prefix sum; a cumulative target is that prefix sum);
//! * MIN/MAX: exact match > **MaxOA coverage** (§4.2), under its
//!   precondition `0 ≤ Δl, Δh ≤ w_x`;
//! * COUNT over a NOT NULL column: the closed-form window cardinality
//!   `min(pos+h, n) − max(pos−l, 1) + 1`; AVG: derived SUM over it;
//! * §6: per-partition derivation under the same partitioning scheme,
//!   partitioning reduction when the query orders by a suffix of it.
//!
//! Anything else falls back to the native window operator. Every planning
//! pass also produces a [`RewriteReport`]: per window expression, which
//! view matched, which strategy fired and which candidates were passed
//! over — or the precise reason the rewriter stepped aside.
//! `Database::explain` prints it and `Database::last_rewrite_report`
//! returns it programmatically, so a fallback is a diagnosable decision
//! rather than a silent `None`.
//!
//! The relational operator patterns of Figs. 10/13 ([`crate::patterns`])
//! reproduce the paper's Table 2; no query runs them.

use std::fmt;
use std::sync::Arc;

use rfv_exec::{
    FrameBound, PhysicalPlan, SequenceSources, SortKey, WindowExprSpec, WindowFuncKind, WindowMode,
};
use rfv_expr::{AggFunc, Expr};
use rfv_plan::LogicalPlan;
use rfv_storage::Catalog;
use rfv_types::{DataType, Field, Result, RfvError, SchemaRef, Value};

use crate::derive;
use crate::patterns::PatternVariant;
use crate::sequence::WindowSpec;
use crate::source::{KeyColumns, ViewSource};
use crate::view::{SequenceView, ViewData, ViewRegistry};

/// The derivation strategy that answered one window expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteStrategy {
    /// The view's window equals the query's window: read the view body.
    ExactMatch,
    /// Cumulative view, sliding target: two-point difference (§3.1).
    CumulativeDifference,
    /// Sliding view, cumulative target: prefix tiling of view windows.
    CumulativeFromSliding,
    /// Sliding → sliding via MinOA (§5). `terms` is the number of view
    /// values the paper's explicit form combines at the last position, its
    /// per-position maximum ([`derive::minoa::terms_at`]); the one-pass
    /// form that runs does two lookups per position whatever `terms` is.
    MinOA { terms: i64 },
    /// MIN/MAX via §4.2 MaxOA coverage with widening deltas `(Δl, Δh)`.
    MaxOA { delta_l: i64, delta_h: i64 },
    /// COUNT from pure position arithmetic over a certified-dense sequence.
    ClosedFormCount,
    /// AVG = derived SUM / closed-form cardinality; `sum` names the
    /// strategy that produced the SUM.
    AvgFromSum { sum: Box<RewriteStrategy> },
    /// §6.1 same-partitioning derivation: MinOA within each partition.
    PartitionedMinOA { partitions: usize },
    /// §6.2 partitioning reduction: partitions merged into `groups`
    /// sequences before the target window runs.
    PartitionReduction { groups: usize },
}

impl RewriteStrategy {
    /// Stable snake_case labels used as the metrics-counter suffix
    /// (`rewrite.strategy.<label>`), indexed by [`Self::index`].
    pub const LABELS: [&'static str; 9] = [
        "exact_match",
        "cumulative_difference",
        "cumulative_from_sliding",
        "minoa",
        "maxoa",
        "closed_form_count",
        "avg_from_sum",
        "partitioned_minoa",
        "partition_reduction",
    ];

    /// Position of this strategy in [`Self::LABELS`] (and in the
    /// engine's pre-resolved per-strategy counters).
    pub fn index(&self) -> usize {
        match self {
            RewriteStrategy::ExactMatch => 0,
            RewriteStrategy::CumulativeDifference => 1,
            RewriteStrategy::CumulativeFromSliding => 2,
            RewriteStrategy::MinOA { .. } => 3,
            RewriteStrategy::MaxOA { .. } => 4,
            RewriteStrategy::ClosedFormCount => 5,
            RewriteStrategy::AvgFromSum { .. } => 6,
            RewriteStrategy::PartitionedMinOA { .. } => 7,
            RewriteStrategy::PartitionReduction { .. } => 8,
        }
    }

    /// The strategy's stable label. `AvgFromSum` reports itself, not
    /// its inner SUM strategy, so the per-strategy counters sum to the
    /// number of rewritten expressions.
    pub fn label(&self) -> &'static str {
        Self::LABELS[self.index()]
    }
}

impl fmt::Display for RewriteStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteStrategy::ExactMatch => write!(f, "exact window match (view body)"),
            RewriteStrategy::CumulativeDifference => {
                write!(f, "cumulative two-point difference (§3.1)")
            }
            RewriteStrategy::CumulativeFromSliding => {
                write!(
                    f,
                    "cumulative target as the sliding view's strided prefix sum"
                )
            }
            RewriteStrategy::MinOA { terms } => {
                write!(
                    f,
                    "MinOA as two strided prefix-sum lookups (§5; explicit form: \
                     ≤{terms} view terms per position)"
                )
            }
            RewriteStrategy::MaxOA { delta_l, delta_h } => {
                write!(f, "MaxOA coverage (§4.2, Δl={delta_l}, Δh={delta_h})")
            }
            RewriteStrategy::ClosedFormCount => {
                write!(f, "closed-form COUNT (position arithmetic)")
            }
            RewriteStrategy::AvgFromSum { sum } => {
                write!(f, "AVG = SUM / closed-form cardinality; SUM via {sum}")
            }
            RewriteStrategy::PartitionedMinOA { partitions } => {
                write!(f, "per-partition MinOA over {partitions} partitions (§6.1)")
            }
            RewriteStrategy::PartitionReduction { groups } => {
                write!(
                    f,
                    "partitioning reduction into {groups} merged sequences (§6.2)"
                )
            }
        }
    }
}

/// How one window expression was (or was not) answered from views.
#[derive(Debug, Clone)]
pub enum RewriteOutcome {
    /// Answered from `view` by `strategy`.
    FromView {
        view: String,
        strategy: RewriteStrategy,
    },
    /// Not derivable; `reason` says why.
    Fallback { reason: String },
}

/// Trace record for one window expression of a planning pass.
#[derive(Debug, Clone)]
pub struct RewriteDecision {
    /// Human-readable form of the window expression, with column names.
    pub expr: String,
    pub outcome: RewriteOutcome,
    /// Candidate views that could not or did not answer the expression,
    /// each as `` `view`: why ``. Selection is by a fixed order of
    /// preference, not by cost: every derivation is one pass over data
    /// already in memory.
    pub passed_over: Vec<String>,
}

/// The rewriter's full account of one planning pass.
#[derive(Debug, Clone, Default)]
pub struct RewriteReport {
    /// Base table of the window query, when one was identified.
    pub base_table: Option<String>,
    /// One decision per window expression examined, in SELECT order.
    pub decisions: Vec<RewriteDecision>,
    /// Whether the whole query was answered from views.
    pub rewritten: bool,
    /// Query-level reason when `rewritten` is false.
    pub fallback: Option<String>,
}

impl RewriteReport {
    /// The report stored when view rewriting is switched off entirely.
    pub fn disabled() -> Self {
        RewriteReport {
            fallback: Some("view rewrite disabled (Database::set_view_rewrite(false))".into()),
            ..RewriteReport::default()
        }
    }

    fn record_hit(&mut self, expr: String, choice: Choice) {
        self.decisions.push(RewriteDecision {
            expr,
            outcome: RewriteOutcome::FromView {
                view: choice.view,
                strategy: choice.strategy,
            },
            passed_over: choice.passed_over,
        });
    }
}

impl fmt::Display for RewriteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rewritten {
            writeln!(f, "answered from materialized views")?;
        } else {
            writeln!(
                f,
                "fallback to native window operator: {}",
                self.fallback.as_deref().unwrap_or("no reason recorded")
            )?;
        }
        for d in &self.decisions {
            match &d.outcome {
                RewriteOutcome::FromView { view, strategy } => {
                    writeln!(f, "  {} <- view `{}` via {}", d.expr, view, strategy)?
                }
                RewriteOutcome::Fallback { reason } => {
                    writeln!(f, "  {} <- no derivation: {}", d.expr, reason)?
                }
            }
            for candidate in &d.passed_over {
                writeln!(f, "      passed over {candidate}")?;
            }
        }
        Ok(())
    }
}

/// The view and strategy chosen for one window expression, and the
/// candidates that lost to it.
struct Choice {
    view: String,
    strategy: RewriteStrategy,
    passed_over: Vec<String>,
}

/// A selection attempt: a choice, or the reason there is none.
type Attempt = std::result::Result<Choice, String>;

/// Record a query-shape fallback reason and decline the rewrite.
fn fall_back(
    report: &mut RewriteReport,
    reason: impl Into<String>,
) -> Result<Option<PhysicalPlan>> {
    report.fallback = Some(reason.into());
    Ok(None)
}

/// Record a per-expression miss (decision + query-level reason) and
/// decline the rewrite.
fn miss(
    report: &mut RewriteReport,
    expr: String,
    reason: impl Into<String>,
) -> Result<Option<PhysicalPlan>> {
    let reason = reason.into();
    report.fallback = Some(format!("`{expr}` not derivable: {reason}"));
    report.decisions.push(RewriteDecision {
        expr,
        outcome: RewriteOutcome::Fallback { reason },
        passed_over: Vec::new(),
    });
    Ok(None)
}

/// Rewrites reporting-function queries against materialized sequence views.
pub struct Rewriter<'a> {
    catalog: &'a Catalog,
    registry: &'a ViewRegistry,
}

impl<'a> Rewriter<'a> {
    pub fn new(catalog: &'a Catalog, registry: &'a ViewRegistry) -> Self {
        Rewriter { catalog, registry }
    }

    /// Does nothing: no join pattern is on the query path, so there is no
    /// variant to choose. Kept because the frozen benchmark (`rfvbench`)
    /// calls it; goes in the next benchmark-only change.
    pub fn with_variant(self, _variant: PatternVariant) -> Self {
        self
    }

    /// Try to plan `logical` using materialized views. `Ok(None)` means
    /// "no rewrite applies — plan normally".
    pub fn plan_with_views(&self, logical: &LogicalPlan) -> Result<Option<PhysicalPlan>> {
        Ok(self.plan_with_views_traced(logical)?.0)
    }

    /// Like [`plan_with_views`](Self::plan_with_views), but also returns
    /// the [`RewriteReport`] describing every decision taken.
    pub fn plan_with_views_traced(
        &self,
        logical: &LogicalPlan,
    ) -> Result<(Option<PhysicalPlan>, RewriteReport)> {
        let mut report = RewriteReport::default();
        let plan = self.plan_rec(logical, &mut report)?;
        report.rewritten = plan.is_some();
        if plan.is_none() && report.fallback.is_none() {
            report.fallback =
                Some("query is not a reporting-function query over a single base table".into());
        }
        Ok((plan, report))
    }

    fn plan_rec(
        &self,
        logical: &LogicalPlan,
        report: &mut RewriteReport,
    ) -> Result<Option<PhysicalPlan>> {
        match logical {
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => Ok(self
                .plan_rec(input, report)?
                .map(|inner| PhysicalPlan::Project {
                    input: Box::new(inner),
                    exprs: exprs.clone(),
                    schema: schema.clone(),
                })),
            LogicalPlan::Sort { input, keys } => {
                Ok(self
                    .plan_rec(input, report)?
                    .map(|inner| PhysicalPlan::Sort {
                        input: Box::new(inner),
                        keys: keys.clone(),
                    }))
            }
            LogicalPlan::Limit { input, n } => {
                Ok(self
                    .plan_rec(input, report)?
                    .map(|inner| PhysicalPlan::Limit {
                        input: Box::new(inner),
                        n: *n,
                    }))
            }
            LogicalPlan::Window {
                input,
                partition_by,
                order_by,
                window_exprs,
                mode,
                schema,
            } => self.rewrite_window(
                input,
                partition_by,
                order_by,
                window_exprs,
                *mode,
                schema,
                report,
            ),
            _ => Ok(None),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rewrite_window(
        &self,
        input: &LogicalPlan,
        partition_by: &[Expr],
        order_by: &[SortKey],
        window_exprs: &[WindowExprSpec],
        mode: WindowMode,
        out_schema: &SchemaRef,
        report: &mut RewriteReport,
    ) -> Result<Option<PhysicalPlan>> {
        let LogicalPlan::Scan {
            table: base,
            schema: base_schema,
        } = input
        else {
            return fall_back(report, "window input is not a plain table scan");
        };
        report.base_table = Some(base.clone());
        let views = self.registry.views_for(base);
        if views.is_empty() {
            return fall_back(
                report,
                format!("no materialized sequence views registered over `{base}`"),
            );
        }
        // Checked positional access — binder-produced indices are expected
        // to be valid, but the query path must degrade to an error, never
        // a panic.
        let field_at = |i: usize| -> Result<&Field> {
            base_schema.fields().get(i).ok_or_else(|| {
                RfvError::internal(format!("column #{i} out of range for `{base}` schema"))
            })
        };

        // Classify the query's partitioning/ordering shape. All of the
        // paper's derivable shapes are captured by one pattern: the query
        // partitions by plain columns `q_parts` and orders ascending by
        // plain columns whose last element is the position column. The
        // columns ordered *before* the position are partition columns of
        // the view that the query has *reduced away* (§6.2); `q_parts`
        // must be a prefix of the view's partitioning scheme.
        //
        //   simple        — PARTITION BY ∅,        ORDER BY pos
        //   partitioned   — PARTITION BY p1…pm,    ORDER BY pos        (§6)
        //   reduction     — PARTITION BY p1…pk,    ORDER BY p(k+1)…pm, pos
        let mut q_parts: Vec<usize> = Vec::new();
        for p in partition_by {
            let Expr::Column(i) = p else {
                return fall_back(report, "PARTITION BY uses a computed expression");
            };
            q_parts.push(*i);
        }
        let mut order_idxs: Vec<usize> = Vec::new();
        for k in order_by {
            if k.desc {
                return fall_back(report, "window ORDER BY is descending");
            }
            let Expr::Column(i) = &k.expr else {
                return fall_back(report, "window ORDER BY uses a computed expression");
            };
            order_idxs.push(*i);
        }
        let Some((&pos_idx, dropped_parts)) = order_idxs.split_last() else {
            return fall_back(report, "window has no ORDER BY position column");
        };
        let is_simple = q_parts.is_empty() && dropped_parts.is_empty();
        let mut sources: SequenceSources = Vec::with_capacity(window_exprs.len());
        for spec in window_exprs {
            let expr_str = display_spec(spec, base_schema);
            let WindowFuncKind::Agg(agg) = spec.func else {
                return miss(
                    report,
                    expr_str,
                    format!(
                        "{} is a ranking function — not derivable from reporting-function views",
                        spec.func
                    ),
                );
            };
            let Some(target) = frame_to_window(spec) else {
                return miss(
                    report,
                    expr_str,
                    format!(
                        "frame `{}` is outside the paper's window model \
                         (cumulative or l PRECEDING / h FOLLOWING)",
                        spec.frame
                    ),
                );
            };
            // COUNT over the dense position structure needs no value
            // column: its result is the closed-form window cardinality,
            // provided a registered view vouches for the density invariant.
            let count_like = matches!(agg, AggFunc::CountStar | AggFunc::Count);
            let val_field = match spec.arg.as_ref() {
                Some(Expr::Column(i)) => Some(field_at(*i)?),
                None if count_like => None,
                _ => {
                    return miss(report, expr_str, "aggregate argument is not a plain column");
                }
            };
            // COUNT(expr) over a nullable column counts non-nulls — the
            // closed form only holds for NOT NULL columns.
            if let (AggFunc::Count, Some(f)) = (agg, val_field) {
                if f.nullable {
                    return miss(
                        report,
                        expr_str,
                        format!(
                            "COUNT over nullable column `{}` counts non-nulls; \
                             the closed form needs NOT NULL",
                            f.name
                        ),
                    );
                }
            }
            let pos_name = &field_at(pos_idx)?.name;
            let candidates: Vec<&SequenceView> = views
                .iter()
                .map(|v| &**v)
                .filter(|v| {
                    v.pos_column.eq_ignore_ascii_case(pos_name)
                        && (count_like
                            || val_field
                                .is_some_and(|f| v.val_column.eq_ignore_ascii_case(&f.name)))
                })
                .collect();
            let attempt: Attempt = if is_simple {
                match agg {
                    AggFunc::Sum => select_sum(&candidates, target),
                    AggFunc::Count | AggFunc::CountStar => select_count(&candidates),
                    AggFunc::Avg => match val_field {
                        Some(f) if f.nullable => Err(format!(
                            "AVG over nullable column `{}` — the closed-form window \
                             cardinality assumes a dense, non-null value column",
                            f.name
                        )),
                        _ => select_avg(&candidates, target),
                    },
                    AggFunc::Min | AggFunc::Max => select_minmax(&candidates, target, agg),
                }
            } else if agg == AggFunc::Sum {
                // §6: the view's partitioning scheme must be exactly the
                // query's kept partition columns followed by the reduced
                // (now ordering) columns.
                let mut scheme: Vec<&str> = Vec::new();
                for &i in q_parts.iter().chain(dropped_parts.iter()) {
                    scheme.push(field_at(i)?.name.as_str());
                }
                select_partitioned(&candidates, &scheme, q_parts.len(), target)
            } else {
                Err(format!(
                    "partitioned queries derive SUM only (got {})",
                    spec.func
                ))
            };
            let choice = match attempt {
                Ok(choice) => choice,
                Err(reason) => return miss(report, expr_str, reason),
            };
            // COUNT(*) has no argument, and COUNT's type depends on none.
            let input_type = val_field.map_or(DataType::Int, |f| f.data_type);
            sources.push(Some(Arc::new(ViewSource {
                registry: self.registry.clone(),
                view: choice.view.clone(),
                strategy: choice.strategy.clone(),
                agg,
                target,
                result_type: spec.func.result_type(input_type),
                keys: KeyColumns {
                    partition: q_parts.clone(),
                    reduced: dropped_parts.to_vec(),
                    pos: pos_idx,
                },
            })));
            report.record_hit(expr_str, choice);
        }

        // The statement's own window node over the base scan: same rows,
        // same order, each column supplied by its source.
        Ok(Some(PhysicalPlan::Window {
            input: Box::new(PhysicalPlan::TableScan {
                table: self.catalog.table(base)?,
                schema: base_schema.clone(),
            }),
            partition_by: partition_by.to_vec(),
            order_by: order_by.to_vec(),
            window_exprs: window_exprs.to_vec(),
            mode,
            schema: out_schema.clone(),
            sources,
        }))
    }
}

/// The view answering a SUM target: exact window match, else a cumulative
/// view, else the widest sliding view.
fn select_sum(candidates: &[&SequenceView], target: WindowSpec) -> Attempt {
    let sum_views: Vec<&SequenceView> = candidates
        .iter()
        .copied()
        .filter(|v| v.func == AggFunc::Sum && !v.is_partitioned())
        .collect();
    if sum_views.is_empty() {
        return Err("no unpartitioned SUM view over this (pos, val) pair".into());
    }
    // `why` reads after the loser's own window: "sliding(2,1); <why>".
    let chose = |v: &SequenceView, strategy: RewriteStrategy, why: &str| {
        Ok(Choice {
            view: v.name.clone(),
            strategy,
            passed_over: sum_views
                .iter()
                .filter(|o| o.name != v.name)
                .map(|o| format!("`{}`: {}; {why}", o.name, o.window))
                .collect(),
        })
    };
    // 1. Exact match.
    if let Some(v) = sum_views.iter().find(|v| v.window == target) {
        let why = format!("`{}` has the query's own window", v.name);
        return chose(v, RewriteStrategy::ExactMatch, &why);
    }
    // 2. Cumulative view → closed-form difference (a cumulative target
    //    would have matched exactly above).
    if let Some(v) = sum_views
        .iter()
        .find(|v| matches!(v.window, WindowSpec::Cumulative))
    {
        if let (ViewData::CumulativeSum(_), WindowSpec::Sliding { .. }) = (&v.data, target) {
            let why = format!("cumulative `{}` preferred", v.name);
            return chose(v, RewriteStrategy::CumulativeDifference, &why);
        }
    }
    // 3. Sliding view: widest window first (fewest explicit-form terms).
    let mut sliding: Vec<&SequenceView> = sum_views
        .iter()
        .copied()
        .filter(|v| matches!(v.window, WindowSpec::Sliding { .. }))
        .collect();
    sliding.sort_by_key(|v| std::cmp::Reverse(v.window.window_size().unwrap_or(0)));
    for v in sliding {
        // A sliding SUM view always stores `ViewData::Sum`; anything
        // else is an inconsistent registration — skip it rather than
        // assume.
        let ViewData::Sum(seq) = &v.data else {
            continue;
        };
        let strategy = match target {
            WindowSpec::Sliding { l: ly, h: hy } => RewriteStrategy::MinOA {
                terms: match seq.n() {
                    0 => 0,
                    n => derive::minoa::terms_at(seq, ly, hy, n),
                },
            },
            WindowSpec::Cumulative => RewriteStrategy::CumulativeFromSliding,
        };
        return chose(v, strategy, &format!("`{}` is at least as wide", v.name));
    }
    Err("registered SUM views offer neither an exact, cumulative, nor sliding derivation".into())
}

/// COUNT over a dense, NOT NULL sequence is pure position arithmetic:
/// `min(k+h, n) − max(k−l, 1) + 1` for sliding windows, `k` for
/// cumulative ones. Any registered (unpartitioned) view over the same
/// position column certifies density and supplies `n`.
fn select_count(candidates: &[&SequenceView]) -> Attempt {
    let Some(v) = candidates.iter().find(|v| !v.is_partitioned()) else {
        return Err(
            "no unpartitioned view certifies the density invariant for closed-form COUNT".into(),
        );
    };
    Ok(Choice {
        view: v.name.clone(),
        strategy: RewriteStrategy::ClosedFormCount,
        passed_over: Vec::new(),
    })
}

/// AVG = derived SUM / closed-form window cardinality. The divisor's `n`
/// is that of the unpartitioned view supplying the SUM — a partitioned
/// candidate's `n()` is the total across partitions, which would skew
/// every boundary window.
fn select_avg(candidates: &[&SequenceView], target: WindowSpec) -> Attempt {
    match select_sum(candidates, target) {
        Ok(sum) => Ok(Choice {
            strategy: RewriteStrategy::AvgFromSum {
                sum: Box::new(sum.strategy),
            },
            ..sum
        }),
        Err(reason) => Err(format!("AVG needs a derivable SUM ({reason})")),
    }
}

/// The view answering a MIN/MAX target: exact window match, else the first
/// view whose window satisfies the MaxOA coverage precondition.
fn select_minmax(candidates: &[&SequenceView], target: WindowSpec, func: AggFunc) -> Attempt {
    let WindowSpec::Sliding { l: ly, h: hy } = target else {
        return Err(format!(
            "{func} derivation supports sliding target windows only"
        ));
    };
    let views: Vec<&SequenceView> = candidates
        .iter()
        .copied()
        .filter(|v| v.func == func)
        .collect();
    if views.is_empty() {
        return Err(format!("no {func} view over this (pos, val) pair"));
    }
    // Each view's strategy, or why it cannot cover the target.
    let fits = |v: &SequenceView| match (v.window, &v.data) {
        (window, _) if window == target => Ok(RewriteStrategy::ExactMatch),
        (_, ViewData::MinMax(seq)) => derive::maxoa::factors(seq.l(), seq.h(), ly, hy)
            .map(|f| RewriteStrategy::MaxOA {
                delta_l: f.delta_l,
                delta_h: f.delta_h,
            })
            .map_err(|e| e.to_string()),
        _ => Err("not a MIN/MAX sequence".to_string()),
    };
    let fitted: Vec<_> = views.iter().map(|v| (*v, fits(v))).collect();
    let chosen = (fitted.iter())
        .find(|(_, fit)| matches!(fit, Ok(RewriteStrategy::ExactMatch)))
        .or_else(|| fitted.iter().find(|(_, fit)| fit.is_ok()));
    let Some((chosen, Ok(strategy))) = chosen else {
        let misses: Vec<String> = fitted
            .iter()
            .filter_map(|(v, fit)| Some(format!("`{}`: {}", v.name, fit.as_ref().err()?)))
            .collect();
        return Err(format!(
            "MaxOA coverage precondition failed — {}",
            misses.join("; ")
        ));
    };
    Ok(Choice {
        view: chosen.name.clone(),
        strategy: strategy.clone(),
        passed_over: fitted
            .iter()
            .filter(|(v, _)| v.name != chosen.name)
            .map(|(v, fit)| match fit {
                Ok(_) => format!(
                    "`{}`: covers the frame as well; `{}` was found first",
                    v.name, chosen.name
                ),
                Err(e) => format!("`{}`: {e}", v.name),
            })
            .collect(),
    })
}

/// §6 derivation against a partitioned view whose partitioning *scheme*
/// (ordered column list) equals `scheme`. The first `keep` columns remain
/// partitioning in the query; the rest were reduced to ordering columns
/// (§6.2's partitioning reduction; `keep = m` is the same-partitioning
/// case, `keep = 0` the full reduction):
///
/// * `keep = m`: each partition derives independently via MinOA;
/// * `keep < m`: partitions agreeing on the kept prefix are merged in
///   dropped-key order — completeness lets the source reconstruct each
///   partition's raw values (§3.2) — and the target window runs over the
///   merged sequence.
fn select_partitioned(
    candidates: &[&SequenceView],
    scheme: &[&str],
    keep: usize,
    target: WindowSpec,
) -> Attempt {
    let WindowSpec::Sliding { .. } = target else {
        return Err("partitioned derivation supports sliding target windows only".into());
    };
    let mut passed_over = Vec::new();
    for v in candidates {
        let ViewData::PartitionedSum(parts) = &v.data else {
            continue;
        };
        if v.partition_columns.len() != scheme.len()
            || !v
                .partition_columns
                .iter()
                .zip(scheme)
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
        {
            passed_over.push(format!(
                "`{}`: partitioned by ({})",
                v.name,
                v.partition_columns.join(", ")
            ));
            continue;
        }
        let strategy = if keep == scheme.len() {
            RewriteStrategy::PartitionedMinOA {
                partitions: parts.len(),
            }
        } else {
            // The map is ordered, so equal kept prefixes are adjacent.
            let mut groups = 0;
            let mut last: Option<&[Value]> = None;
            for key in parts.keys() {
                let prefix = &key[..keep.min(key.len())];
                if last != Some(prefix) {
                    groups += 1;
                    last = Some(prefix);
                }
            }
            RewriteStrategy::PartitionReduction { groups }
        };
        return Ok(Choice {
            view: v.name.clone(),
            strategy,
            passed_over,
        });
    }
    Err(format!(
        "no partitioned SUM view with partitioning scheme ({})",
        scheme.join(", ")
    ))
}

/// Human-readable form of one window expression, with column names
/// resolved against the base schema (for the rewrite trace).
fn display_spec(spec: &WindowExprSpec, schema: &SchemaRef) -> String {
    if spec.func.is_ranking() {
        return format!("{}()", spec.func);
    }
    let arg = match spec.arg.as_ref() {
        Some(Expr::Column(i)) => schema
            .fields()
            .get(*i)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| format!("#{i}")),
        Some(e) => e.to_string(),
        // COUNT(*) carries its argument in its own display form.
        None => return format!("{} {}", spec.func, spec.frame),
    };
    format!("{}({arg}) {}", spec.func, spec.frame)
}

/// Map an executor frame onto the paper's window model. `None` for frames
/// outside the model (e.g. purely-following windows or whole-partition).
fn frame_to_window(spec: &WindowExprSpec) -> Option<WindowSpec> {
    match (spec.frame.start(), spec.frame.end()) {
        (FrameBound::UnboundedPreceding, FrameBound::Offset(0)) => Some(WindowSpec::Cumulative),
        (FrameBound::Offset(s), FrameBound::Offset(e)) if s <= 0 && e >= 0 => {
            Some(WindowSpec::Sliding { l: -s, h: e })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_exec::WindowFrame;

    #[test]
    fn frame_mapping() {
        let mk = |start, end| WindowExprSpec {
            func: WindowFuncKind::Agg(AggFunc::Sum),
            arg: Some(Expr::col(1)),
            frame: WindowFrame::new(start, end).unwrap(),
        };
        assert_eq!(
            frame_to_window(&mk(FrameBound::UnboundedPreceding, FrameBound::Offset(0))),
            Some(WindowSpec::Cumulative)
        );
        assert_eq!(
            frame_to_window(&mk(FrameBound::Offset(-2), FrameBound::Offset(1))),
            Some(WindowSpec::Sliding { l: 2, h: 1 })
        );
        // Purely-following window: outside the paper's model.
        assert_eq!(
            frame_to_window(&mk(FrameBound::Offset(1), FrameBound::Offset(3))),
            None
        );
        assert_eq!(
            frame_to_window(&mk(
                FrameBound::UnboundedPreceding,
                FrameBound::UnboundedFollowing
            )),
            None
        );
    }

    #[test]
    fn strategy_display_names_the_mechanism() {
        assert!(RewriteStrategy::MinOA { terms: 4 }
            .to_string()
            .contains("MinOA"));
        assert!(RewriteStrategy::MinOA { terms: 4 }
            .to_string()
            .contains('4'));
        let avg = RewriteStrategy::AvgFromSum {
            sum: Box::new(RewriteStrategy::CumulativeDifference),
        };
        assert!(avg.to_string().contains("AVG"));
        assert!(avg.to_string().contains("two-point"));
    }

    #[test]
    fn report_display_lists_decisions_and_fallbacks() {
        let mut report = RewriteReport::default();
        report.record_hit(
            "SUM(val) ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING".into(),
            Choice {
                view: "mv".into(),
                strategy: RewriteStrategy::MinOA { terms: 3 },
                passed_over: vec!["`mv_narrow`: sliding(1,0); `mv` is at least as wide".into()],
            },
        );
        report.rewritten = true;
        let text = report.to_string();
        assert!(text.contains("`mv`"), "{text}");
        assert!(text.contains("MinOA"), "{text}");
        assert!(text.contains("passed over `mv_narrow`"), "{text}");

        let disabled = RewriteReport::disabled();
        assert!(
            disabled.to_string().contains("set_view_rewrite"),
            "{}",
            disabled
        );
    }
}
