//! View-aware query rewriting.
//!
//! The paper's framing (§1, §3): a warehouse holds materialized reporting
//! function views; incoming reporting-function queries should be answered
//! *from the views* — by the relational operator patterns of Figs. 10/13 —
//! "directly after parsing the query". This module implements that hook
//! for the `rfv` engine: given the bound logical plan of a query, it
//! recognizes the reporting-function shape
//!
//! ```text
//! Project( [Sort(] Window( Scan(base) ) [)] )
//!   with PARTITION BY ∅, ORDER BY pos ASC, frame ROWS …
//! ```
//!
//! and, when a registered [`SequenceView`] over the same base/columns can
//! derive each window expression, emits a physical plan that never touches
//! the raw table:
//!
//! * SUM, exact window match → read the view body;
//! * SUM, sliding → sliding: the **MinOA relational pattern** (Fig. 13);
//! * SUM, cumulative view or cumulative target: two-point difference /
//!   prefix tiling, evaluated directly (§3.1 — the paper gives no operator
//!   pattern for these, the formulas are closed-form);
//! * MIN/MAX: **MaxOA coverage** (§4.2), evaluated directly;
//! * AVG over a NOT NULL column: derived SUM divided by the closed-form
//!   window cardinality `LEAST(pos+h, n) − GREATEST(pos−l, 1) + 1`.
//!
//! Anything else falls back to the native window operator. Every planning
//! pass also produces a [`RewriteReport`]: per window expression, which
//! view matched and which strategy fired — or the precise reason the
//! rewriter stepped aside. `Database::explain` prints it and
//! `Database::last_rewrite_report` returns it programmatically, so a
//! fallback is a diagnosable decision rather than a silent `None`.

use std::fmt;

use rfv_exec::{FrameBound, JoinType, PhysicalPlan, SortKey, WindowExprSpec, WindowFuncKind};
use rfv_expr::{AggFunc, Expr, ScalarFn};
use rfv_plan::LogicalPlan;
use rfv_storage::Catalog;
use rfv_types::{Field, Result, RfvError, Row, Schema, SchemaRef, Value};

use crate::derive;
use crate::patterns::{self, PatternVariant};
use crate::sequence::WindowSpec;
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
    /// Sliding → sliding via the Fig. 13 MinOA pattern. `terms` is the
    /// maximum number of view rows combined per output position
    /// ([`derive::minoa::terms_at`]).
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
            RewriteStrategy::ExactMatch => write!(f, "exact window match (view body scan)"),
            RewriteStrategy::CumulativeDifference => {
                write!(f, "cumulative two-point difference (§3.1)")
            }
            RewriteStrategy::CumulativeFromSliding => {
                write!(f, "cumulative target tiled from sliding view windows")
            }
            RewriteStrategy::MinOA { terms } => {
                write!(
                    f,
                    "MinOA pattern (Fig. 13, ≤{terms} view terms per position)"
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

    fn record_hit(&mut self, expr: String, view: &str, strategy: RewriteStrategy) {
        self.decisions.push(RewriteDecision {
            expr,
            outcome: RewriteOutcome::FromView {
                view: view.to_string(),
                strategy,
            },
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
        }
        Ok(())
    }
}

/// One derived relation: the plan producing `(key…, pos, val)` rows for a
/// single window expression, plus the trace of how it was obtained. `n`
/// is the body length of the (unpartitioned) view that certified the
/// sequence — AVG's closed-form divisor must use exactly this `n`.
struct DerivedRelation {
    plan: PhysicalPlan,
    view: String,
    strategy: RewriteStrategy,
    n: i64,
}

/// A derivation attempt: either a relation or the reason there is none.
type Attempt = std::result::Result<DerivedRelation, String>;

/// Positional assembler for `base ⋈ derived₁ ⋈ … ⋈ derivedₖ`.
///
/// Each derived relation carries `(key…, val)` columns; every join appends
/// one value column to the accumulated row and projects the duplicated key
/// columns away. The output schema is tracked *positionally* — it grows by
/// exactly the one field handed to [`join`](Self::join) — so the assembly
/// cannot index past the query's output schema (the ad-hoc slice
/// arithmetic this replaces double-counted the derived-column offset and
/// panicked on queries with two or more reporting functions).
struct DerivedRelationBuilder {
    plan: PhysicalPlan,
    fields: Vec<Field>,
    base_keys: Vec<usize>,
    key_arity: usize,
}

impl DerivedRelationBuilder {
    fn new(base: PhysicalPlan, base_schema: &SchemaRef, base_keys: Vec<usize>) -> Self {
        let key_arity = base_keys.len();
        DerivedRelationBuilder {
            plan: base,
            fields: base_schema.fields().to_vec(),
            base_keys,
            key_arity,
        }
    }

    /// Join one derived relation and keep its value column as `out_field`.
    fn join(mut self, rel: PhysicalPlan, out_field: Field) -> Self {
        let width = self.fields.len();
        let joined = PhysicalPlan::HashJoin {
            left: Box::new(self.plan),
            right: Box::new(rel),
            left_keys: self.base_keys.iter().map(|&k| Expr::col(k)).collect(),
            right_keys: (0..self.key_arity).map(Expr::col).collect(),
            residual: None,
            join_type: JoinType::Inner,
        };
        // Keep the accumulated prefix, then the derived value column (the
        // derived relation's key columns duplicate the base's join keys).
        let mut exprs: Vec<Expr> = (0..width).map(Expr::col).collect();
        exprs.push(Expr::col(width + self.key_arity));
        self.fields.push(out_field);
        self.plan = PhysicalPlan::Project {
            input: Box::new(joined),
            exprs,
            schema: SchemaRef::new(Schema::new(self.fields.clone())),
        };
        self
    }

    /// Window output order: sorted by (partition keys, order keys).
    fn finish(self) -> PhysicalPlan {
        PhysicalPlan::Sort {
            input: Box::new(self.plan),
            keys: self
                .base_keys
                .iter()
                .map(|&k| SortKey::asc(Expr::col(k)))
                .collect(),
        }
    }
}

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
    });
    Ok(None)
}

/// Rewrites reporting-function queries against materialized sequence views.
pub struct Rewriter<'a> {
    catalog: &'a Catalog,
    registry: &'a ViewRegistry,
    /// Which Fig. 10/13 variant to emit for SUM derivations.
    variant: PatternVariant,
}

impl<'a> Rewriter<'a> {
    pub fn new(catalog: &'a Catalog, registry: &'a ViewRegistry) -> Self {
        Rewriter {
            catalog,
            registry,
            variant: PatternVariant::Disjunctive,
        }
    }

    /// Use a different relational pattern variant (Table 2's axis).
    pub fn with_variant(mut self, variant: PatternVariant) -> Self {
        self.variant = variant;
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
                schema,
                ..
            } => self.rewrite_window(input, partition_by, order_by, window_exprs, schema, report),
            _ => Ok(None),
        }
    }

    fn rewrite_window(
        &self,
        input: &LogicalPlan,
        partition_by: &[Expr],
        order_by: &[SortKey],
        window_exprs: &[WindowExprSpec],
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
        if self.registry.views_for(base).is_empty() {
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
        // Full key the derived relations carry and the base joins on:
        // (kept partition cols, dropped partition cols, pos).
        let base_keys: Vec<usize> = q_parts
            .iter()
            .chain(dropped_parts.iter())
            .copied()
            .chain(std::iter::once(pos_idx))
            .collect();
        let mut derived_rels: Vec<DerivedRelation> = Vec::new();
        for spec in window_exprs {
            let expr_str = display_spec(spec, base_schema);
            if spec.func.is_ranking() {
                return miss(
                    report,
                    expr_str,
                    format!(
                        "{} is a ranking function — not derivable from reporting-function views",
                        spec.func
                    ),
                );
            }
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
            let count_like = matches!(
                spec.func,
                WindowFuncKind::Agg(AggFunc::CountStar) | WindowFuncKind::Agg(AggFunc::Count)
            );
            let val_idx = match spec.arg.as_ref() {
                Some(Expr::Column(i)) => Some(*i),
                None if count_like => None,
                _ => {
                    return miss(report, expr_str, "aggregate argument is not a plain column");
                }
            };
            // COUNT(expr) over a nullable column counts non-nulls — the
            // closed form only holds for NOT NULL columns.
            if let (WindowFuncKind::Agg(AggFunc::Count), Some(i)) = (spec.func, val_idx) {
                if field_at(i)?.nullable {
                    return miss(
                        report,
                        expr_str,
                        format!(
                            "COUNT over nullable column `{}` counts non-nulls; \
                             the closed form needs NOT NULL",
                            field_at(i)?.name
                        ),
                    );
                }
            }
            let val_field = match val_idx {
                Some(i) => Some(field_at(i)?),
                None => None,
            };
            let pos_name = &field_at(pos_idx)?.name;
            let candidates: Vec<SequenceView> = self
                .registry
                .views_for(base)
                .into_iter()
                .filter(|v| {
                    v.pos_column.eq_ignore_ascii_case(pos_name)
                        && (count_like
                            || val_field
                                .is_some_and(|f| v.val_column.eq_ignore_ascii_case(&f.name)))
                })
                .collect();
            let attempt: Attempt = if is_simple {
                match spec.func {
                    WindowFuncKind::Agg(AggFunc::Sum) => {
                        self.derive_sum_rel(&candidates, target)?
                    }
                    WindowFuncKind::Agg(AggFunc::Count | AggFunc::CountStar) => {
                        self.derive_count_rel(&candidates, target)?
                    }
                    WindowFuncKind::Agg(AggFunc::Avg) => match val_field {
                        Some(f) if f.nullable => Err(format!(
                            "AVG over nullable column `{}` — the closed-form window \
                             cardinality assumes a dense, non-null value column",
                            f.name
                        )),
                        _ => self.derive_avg_rel(&candidates, target)?,
                    },
                    WindowFuncKind::Agg(agg @ (AggFunc::Min | AggFunc::Max)) => {
                        self.derive_minmax_rel(&candidates, target, agg == AggFunc::Max)?
                    }
                    // Ranking functions were rejected above.
                    _ => Err("ranking functions are not derivable".into()),
                }
            } else if spec.func == WindowFuncKind::Agg(AggFunc::Sum) {
                // §6: the view's partitioning scheme must be exactly the
                // query's kept partition columns followed by the reduced
                // (now ordering) columns.
                let mut scheme: Vec<&str> = Vec::new();
                for &i in q_parts.iter().chain(dropped_parts.iter()) {
                    scheme.push(field_at(i)?.name.as_str());
                }
                self.derive_partition_scheme_rel(&candidates, &scheme, q_parts.len(), target)?
            } else {
                Err(format!(
                    "partitioned queries derive SUM only (got {})",
                    spec.func
                ))
            };
            match attempt {
                Ok(d) => {
                    report.record_hit(expr_str, &d.view, d.strategy.clone());
                    derived_rels.push(d);
                }
                Err(reason) => return miss(report, expr_str, reason),
            }
        }

        // Assemble: base scan ⋈ derived relations on the key columns,
        // one derived column at a time.
        let base_table = self.catalog.table(base)?;
        let scan = PhysicalPlan::TableScan {
            table: base_table,
            schema: base_schema.clone(),
        };
        let mut builder = DerivedRelationBuilder::new(scan, base_schema, base_keys);
        for (i, d) in derived_rels.into_iter().enumerate() {
            let out_field = out_schema
                .fields()
                .get(base_schema.len() + i)
                .ok_or_else(|| {
                    RfvError::internal("window output schema narrower than its expression list")
                })?
                .clone();
            builder = builder.join(d.plan, out_field);
        }
        Ok(Some(builder.finish()))
    }

    /// §6 derivation against a partitioned view whose partitioning
    /// *scheme* (ordered column list) equals `scheme`. The first `keep`
    /// columns remain partitioning in the query; the rest were reduced to
    /// ordering columns (§6.2's partitioning reduction; `keep = m` is the
    /// same-partitioning case, `keep = 0` the full reduction).
    ///
    /// Returns a `(p_1 … p_m, pos, val)` relation:
    ///
    /// * `keep = m`: each partition derives independently via MinOA;
    /// * `keep < m`: partitions agreeing on the kept prefix are merged in
    ///   dropped-key order — completeness lets us reconstruct each
    ///   partition's raw values (§3.2) — and the target window runs over
    ///   the merged sequence.
    fn derive_partition_scheme_rel(
        &self,
        candidates: &[SequenceView],
        scheme: &[&str],
        keep: usize,
        target: WindowSpec,
    ) -> Result<Attempt> {
        let WindowSpec::Sliding { l: ly, h: hy } = target else {
            return Ok(Err(
                "partitioned derivation supports sliding target windows only".into(),
            ));
        };
        for v in candidates {
            if v.partition_columns.len() != scheme.len()
                || !v
                    .partition_columns
                    .iter()
                    .zip(scheme)
                    .all(|(a, b)| a.eq_ignore_ascii_case(b))
            {
                continue;
            }
            let ViewData::PartitionedSum(parts) = &v.data else {
                continue;
            };
            let mut rows: Vec<Row> = Vec::new();
            let strategy;
            if keep == v.partition_columns.len() {
                // Same partitioning: derive within each partition.
                strategy = RewriteStrategy::PartitionedMinOA {
                    partitions: parts.len(),
                };
                for (key, seq) in parts {
                    let vals = derive::minoa::derive_sum(seq, ly, hy)?;
                    for (i, val) in vals.into_iter().enumerate() {
                        let mut values = key.clone();
                        values.push(Value::Int(i as i64 + 1));
                        values.push(Value::Float(val));
                        rows.push(Row::new(values));
                    }
                }
            } else {
                // Partitioning reduction: group by the kept prefix; the
                // BTreeMap iterates partitions in key order, so within a
                // group the dropped columns provide the merge order.
                let mut groups: std::collections::BTreeMap<
                    Vec<Value>,
                    Vec<(&Vec<Value>, &crate::sequence::CompleteSequence)>,
                > = std::collections::BTreeMap::new();
                for (key, seq) in parts {
                    groups
                        .entry(key[..keep.min(key.len())].to_vec())
                        .or_default()
                        .push((key, seq));
                }
                strategy = RewriteStrategy::PartitionReduction {
                    groups: groups.len(),
                };
                for (_, members) in groups {
                    let mut merged: Vec<f64> = Vec::new();
                    let mut keys: Vec<(Vec<Value>, i64)> = Vec::new();
                    for (key, seq) in members {
                        // Completeness (§6.2) enables raw reconstruction.
                        let raw = derive::raw::from_sliding(seq)?;
                        for i in 0..raw.len() {
                            keys.push((key.clone(), i as i64 + 1));
                        }
                        merged.extend(raw);
                    }
                    let vals = derive::brute_force_sum(&merged, ly, hy);
                    for ((key, pos), val) in keys.into_iter().zip(vals) {
                        let mut values = key;
                        values.push(Value::Int(pos));
                        values.push(Value::Float(val));
                        rows.push(Row::new(values));
                    }
                }
            }
            return Ok(Ok(DerivedRelation {
                plan: PhysicalPlan::Values {
                    schema: part_rel_schema(v)?,
                    rows,
                },
                view: v.name.clone(),
                strategy,
                n: v.n(),
            }));
        }
        Ok(Err(format!(
            "no partitioned SUM view with partitioning scheme ({})",
            scheme.join(", ")
        )))
    }

    /// A `(pos, val)` relation deriving a SUM target from the best view.
    fn derive_sum_rel(&self, candidates: &[SequenceView], target: WindowSpec) -> Result<Attempt> {
        let sum_views: Vec<&SequenceView> = candidates
            .iter()
            .filter(|v| v.func == AggFunc::Sum && !v.is_partitioned())
            .collect();
        if sum_views.is_empty() {
            return Ok(Err(
                "no unpartitioned SUM view over this (pos, val) pair".into()
            ));
        }
        // 1. Exact match.
        if let Some(v) = sum_views.iter().find(|v| v.window == target) {
            return Ok(Ok(DerivedRelation {
                plan: self.view_body_rel(v)?,
                view: v.name.clone(),
                strategy: RewriteStrategy::ExactMatch,
                n: v.n(),
            }));
        }
        // 2. Cumulative view → closed-form difference (a cumulative target
        //    would have matched exactly above).
        if let Some(v) = sum_views
            .iter()
            .find(|v| matches!(v.window, WindowSpec::Cumulative))
        {
            if let (ViewData::CumulativeSum(c), WindowSpec::Sliding { l, h }) = (&v.data, target) {
                let vals = derive::cumulative::sliding_from_cumulative(c, l, h)?;
                return Ok(Ok(DerivedRelation {
                    plan: values_rel(&vals),
                    view: v.name.clone(),
                    strategy: RewriteStrategy::CumulativeDifference,
                    n: v.n(),
                }));
            }
        }
        // 3. Sliding view: widest window first (fewest MinOA terms).
        let mut sliding: Vec<&&SequenceView> = sum_views
            .iter()
            .filter(|v| matches!(v.window, WindowSpec::Sliding { .. }))
            .collect();
        sliding.sort_by_key(|v| std::cmp::Reverse(v.window.window_size().unwrap_or(0)));
        for v in sliding {
            // A sliding SUM view always stores `ViewData::Sum`; anything
            // else is an inconsistent registration — skip it rather than
            // assume.
            let (WindowSpec::Sliding { l: lx, h: hx }, ViewData::Sum(seq)) = (v.window, &v.data)
            else {
                continue;
            };
            match target {
                WindowSpec::Sliding { l: ly, h: hy } => {
                    let terms = (1..=v.n())
                        .map(|k| derive::minoa::terms_at(seq, ly, hy, k))
                        .max()
                        .unwrap_or(0);
                    let plan = patterns::minoa_pattern(
                        self.catalog,
                        &v.name,
                        lx,
                        hx,
                        ly,
                        hy,
                        v.n(),
                        self.variant,
                    )?;
                    return Ok(Ok(DerivedRelation {
                        plan,
                        view: v.name.clone(),
                        strategy: RewriteStrategy::MinOA { terms },
                        n: v.n(),
                    }));
                }
                WindowSpec::Cumulative => {
                    let vals = derive::cumulative::cumulative_from_sliding(seq);
                    return Ok(Ok(DerivedRelation {
                        plan: values_rel(&vals),
                        view: v.name.clone(),
                        strategy: RewriteStrategy::CumulativeFromSliding,
                        n: v.n(),
                    }));
                }
            }
        }
        Ok(Err(
            "registered SUM views offer neither an exact, cumulative, nor sliding derivation"
                .into(),
        ))
    }

    /// COUNT over a dense, NOT NULL sequence is pure position arithmetic:
    /// `min(k+h, n) − max(k−l, 1) + 1` for sliding windows, `k` for
    /// cumulative ones. Any registered (unpartitioned) view over the same
    /// position column certifies density and supplies `n`.
    fn derive_count_rel(&self, candidates: &[SequenceView], target: WindowSpec) -> Result<Attempt> {
        let Some(v) = candidates.iter().find(|v| !v.is_partitioned()) else {
            return Ok(Err(
                "no unpartitioned view certifies the density invariant for closed-form COUNT"
                    .into(),
            ));
        };
        let n = v.n();
        let count_at = |k: i64| -> i64 {
            match target {
                WindowSpec::Cumulative => k,
                WindowSpec::Sliding { l, h } => (k + h).min(n) - (k - l).max(1) + 1,
            }
        };
        let rows = (1..=n)
            .map(|k| Row::new(vec![Value::Int(k), Value::Int(count_at(k))]))
            .collect();
        Ok(Ok(DerivedRelation {
            plan: PhysicalPlan::Values {
                schema: rel_schema(),
                rows,
            },
            view: v.name.clone(),
            strategy: RewriteStrategy::ClosedFormCount,
            n,
        }))
    }

    /// AVG = derived SUM / closed-form window cardinality.
    fn derive_avg_rel(&self, candidates: &[SequenceView], target: WindowSpec) -> Result<Attempt> {
        let sum = match self.derive_sum_rel(candidates, target)? {
            Ok(d) => d,
            Err(reason) => return Ok(Err(format!("AVG needs a derivable SUM ({reason})"))),
        };
        // The divisor's `n` must come from the same unpartitioned view that
        // supplied the SUM: a partitioned candidate's `n()` is the total
        // across partitions, which would skew every boundary window.
        let n = sum.n;
        let count_expr = match target {
            WindowSpec::Cumulative => Expr::col(0),
            WindowSpec::Sliding { l, h } => {
                // LEAST(pos+h, n) − GREATEST(pos−l, 1) + 1
                let upper = Expr::Function {
                    func: ScalarFn::Least,
                    args: vec![Expr::col(0).add(Expr::lit(h)), Expr::lit(n)],
                };
                let lower = Expr::Function {
                    func: ScalarFn::Greatest,
                    args: vec![Expr::col(0).sub(Expr::lit(l)), Expr::lit(1i64)],
                };
                upper.sub(lower).add(Expr::lit(1i64))
            }
        };
        Ok(Ok(DerivedRelation {
            plan: PhysicalPlan::Project {
                input: Box::new(sum.plan),
                exprs: vec![
                    Expr::col(0),
                    Expr::col(1).mul(Expr::lit(1.0f64)).div(count_expr),
                ],
                schema: rel_schema(),
            },
            view: sum.view,
            strategy: RewriteStrategy::AvgFromSum {
                sum: Box::new(sum.strategy),
            },
            n,
        }))
    }

    /// MIN/MAX derivation via MaxOA coverage, evaluated directly.
    fn derive_minmax_rel(
        &self,
        candidates: &[SequenceView],
        target: WindowSpec,
        max: bool,
    ) -> Result<Attempt> {
        let func = if max { AggFunc::Max } else { AggFunc::Min };
        let WindowSpec::Sliding { l: ly, h: hy } = target else {
            return Ok(Err(format!(
                "{func} derivation supports sliding target windows only"
            )));
        };
        let mut misses: Vec<String> = Vec::new();
        let mut saw_view = false;
        for v in candidates.iter().filter(|v| v.func == func) {
            saw_view = true;
            // Exact match short-circuits.
            if v.window == target {
                return Ok(Ok(DerivedRelation {
                    plan: self.view_body_rel(v)?,
                    view: v.name.clone(),
                    strategy: RewriteStrategy::ExactMatch,
                    n: v.n(),
                }));
            }
            let ViewData::MinMax(seq) = &v.data else {
                continue;
            };
            match derive::maxoa::factors(seq.l(), seq.h(), ly, hy) {
                Ok(factors) => {
                    let vals = derive::maxoa::derive_minmax(seq, ly, hy)?;
                    let rows = vals
                        .iter()
                        .enumerate()
                        .map(|(i, v)| {
                            Row::new(vec![
                                Value::Int(i as i64 + 1),
                                v.map_or(Value::Null, Value::Float),
                            ])
                        })
                        .collect();
                    return Ok(Ok(DerivedRelation {
                        plan: PhysicalPlan::Values {
                            schema: rel_schema(),
                            rows,
                        },
                        view: v.name.clone(),
                        strategy: RewriteStrategy::MaxOA {
                            delta_l: factors.delta_l,
                            delta_h: factors.delta_h,
                        },
                        n: v.n(),
                    }));
                }
                Err(e) => misses.push(format!("`{}`: {e}", v.name)),
            }
        }
        if !saw_view {
            return Ok(Err(format!("no {func} view over this (pos, val) pair")));
        }
        Ok(Err(format!(
            "MaxOA coverage precondition failed — {}",
            misses.join("; ")
        )))
    }

    /// Read a view's body (`pos ∈ [1, n]`) as a `(pos, val)` relation.
    fn view_body_rel(&self, view: &SequenceView) -> Result<PhysicalPlan> {
        let table = self.catalog.table(&view.name)?;
        let schema = SchemaRef::new(table.read().schema().qualified("v"));
        Ok(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::TableScan { table, schema }),
            predicate: Expr::col(0).between(Expr::lit(1i64), Expr::lit(view.n())),
        })
    }
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

fn rel_schema() -> SchemaRef {
    SchemaRef::new(Schema::new(vec![
        Field::not_null("pos", rfv_types::DataType::Int),
        Field::new("val", rfv_types::DataType::Float),
    ]))
}

/// Inline `(pos, val)` relation from derived values.
fn values_rel(vals: &[f64]) -> PhysicalPlan {
    PhysicalPlan::Values {
        schema: rel_schema(),
        rows: vals
            .iter()
            .enumerate()
            .map(|(i, &v)| Row::new(vec![Value::Int(i as i64 + 1), Value::Float(v)]))
            .collect(),
    }
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

/// Schema of a partitioned derived relation: `(p_1 … p_m, pos, val)`.
fn part_rel_schema(view: &SequenceView) -> Result<SchemaRef> {
    if view.partition_columns.is_empty()
        || view.partition_columns.len() != view.partition_types.len()
    {
        return Err(RfvError::internal(
            "partitioned view without partition metadata",
        ));
    }
    let mut fields: Vec<Field> = view
        .partition_columns
        .iter()
        .zip(&view.partition_types)
        .map(|(name, &dt)| Field::not_null(name.clone(), dt))
        .collect();
    fields.push(Field::not_null("pos", rfv_types::DataType::Int));
    fields.push(Field::new("val", rfv_types::DataType::Float));
    Ok(SchemaRef::new(Schema::new(fields)))
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
            "mv",
            RewriteStrategy::MinOA { terms: 3 },
        );
        report.rewritten = true;
        let text = report.to_string();
        assert!(text.contains("`mv`"), "{text}");
        assert!(text.contains("MinOA"), "{text}");

        let disabled = RewriteReport::disabled();
        assert!(
            disabled.to_string().contains("set_view_rewrite"),
            "{}",
            disabled
        );
    }
}
