//! The physical plan algebra.

use std::fmt::{Display, Write as _};
use std::ops::Bound;
use std::sync::Arc;

use rfv_expr::{AggFunc, Expr};
use rfv_storage::TableRef;
use rfv_types::{Result, Row, SchemaRef, Value};

use crate::opmetrics::{ExecProbe, OpMetrics};
use crate::sched::{self, ParStats};
use crate::window::{SequenceSources, WindowExprSpec, WindowMode};
use crate::{aggregate, filter, join, scan, window};

/// Join semantics supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    /// Every left row survives; unmatched rows get NULL right columns.
    LeftOuter,
}

/// One sort key: expression over the input row plus direction.
#[derive(Debug, Clone)]
pub struct SortKey {
    pub expr: Expr,
    pub desc: bool,
}

impl SortKey {
    pub fn asc(expr: Expr) -> Self {
        SortKey { expr, desc: false }
    }

    pub fn desc(expr: Expr) -> Self {
        SortKey { expr, desc: true }
    }
}

/// A fully bound physical plan. Expressions reference columns positionally
/// in the input of the node they belong to; join predicates see
/// `left ++ right`.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Full scan over a stored table.
    TableScan { table: TableRef, schema: SchemaRef },
    /// Ordered range scan via an index: `col` between `lo` and `hi`, each
    /// end inclusive, exclusive or open. Output is in index-key order;
    /// NULL keys are never returned.
    IndexRangeScan {
        table: TableRef,
        schema: SchemaRef,
        column: usize,
        lo: Bound<Value>,
        hi: Bound<Value>,
    },
    /// Literal rows (VALUES lists, tests, constant inputs).
    Values { schema: SchemaRef, rows: Vec<Row> },
    /// Keep rows whose predicate evaluates to TRUE.
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
    },
    /// Compute one output column per expression.
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<Expr>,
        schema: SchemaRef,
    },
    /// Tuple-at-a-time nested loop join; `on` sees `left ++ right`.
    /// This is the plan shape the paper's "self join method without index"
    /// measurements exercise.
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        on: Option<Expr>,
        join_type: JoinType,
    },
    /// For each left row, probe the index of the stored right table with a
    /// computed key range (`lo_expr .. hi_expr`, evaluated over the left
    /// row, each end inclusive or exclusive as stated), then apply the
    /// residual predicate over `left ++ right`.
    /// This is the "self join method with primary key index" shape.
    IndexNestedLoopJoin {
        left: Box<PhysicalPlan>,
        right_table: TableRef,
        right_schema: SchemaRef,
        right_column: usize,
        lo_expr: Bound<Expr>,
        hi_expr: Bound<Expr>,
        residual: Option<Expr>,
        join_type: JoinType,
    },
    /// Build a hash table on the right equi-key, probe with the left.
    /// NULL keys never match. Residual sees `left ++ right`.
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        residual: Option<Expr>,
        join_type: JoinType,
    },
    /// Stable sort by the given keys (NULLs first on ASC, last on DESC).
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<SortKey>,
    },
    /// Hash aggregation. Output row = group exprs then aggregates.
    /// With no group exprs, produces exactly one row (global aggregate).
    HashAggregate {
        input: Box<PhysicalPlan>,
        group_exprs: Vec<Expr>,
        /// `(func, arg)`; `None` arg only for `COUNT(*)`.
        aggregates: Vec<(AggFunc, Option<Expr>)>,
        schema: SchemaRef,
    },
    /// Concatenation of same-schema inputs.
    UnionAll { inputs: Vec<PhysicalPlan> },
    /// First `n` rows.
    Limit { input: Box<PhysicalPlan>, n: usize },
    /// Reporting-function (window) operator. Output = input columns
    /// followed by one column per window expression. Rows come out sorted
    /// by (partition keys, order keys). `sources[i]`, when present,
    /// supplies `window_exprs[i]`'s column from a materialized sequence at
    /// execution time; the kernel runs where there is none.
    Window {
        input: Box<PhysicalPlan>,
        partition_by: Vec<Expr>,
        order_by: Vec<SortKey>,
        window_exprs: Vec<WindowExprSpec>,
        mode: WindowMode,
        schema: SchemaRef,
        sources: SequenceSources,
    },
}

/// Interval notation for a pair of range ends: `[2 .. 3]`, `(1.5 .. 3.5)`,
/// `(-inf .. 7]`.
fn interval<T: Display>(lo: &Bound<T>, hi: &Bound<T>) -> String {
    let (open, lo) = match lo {
        Bound::Included(v) => ('[', v.to_string()),
        Bound::Excluded(v) => ('(', v.to_string()),
        Bound::Unbounded => ('(', "-inf".to_string()),
    };
    let (hi, close) = match hi {
        Bound::Included(v) => (v.to_string(), ']'),
        Bound::Excluded(v) => (v.to_string(), ')'),
        Bound::Unbounded => ("+inf".to_string(), ')'),
    };
    format!("{open}{lo} .. {hi}{close}")
}

impl PhysicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> SchemaRef {
        match self {
            PhysicalPlan::TableScan { schema, .. }
            | PhysicalPlan::IndexRangeScan { schema, .. }
            | PhysicalPlan::Values { schema, .. }
            | PhysicalPlan::Project { schema, .. }
            | PhysicalPlan::HashAggregate { schema, .. }
            | PhysicalPlan::Window { schema, .. } => schema.clone(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.schema(),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                ..
            }
            | PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                ..
            } => {
                let r = right.schema();
                let right_schema = match join_type {
                    JoinType::Inner => (*r).clone(),
                    JoinType::LeftOuter => r.nullable(),
                };
                SchemaRef::new(left.schema().join(&right_schema))
            }
            PhysicalPlan::IndexNestedLoopJoin {
                left,
                right_schema,
                join_type,
                ..
            } => {
                let right = match join_type {
                    JoinType::Inner => (**right_schema).clone(),
                    JoinType::LeftOuter => right_schema.nullable(),
                };
                SchemaRef::new(left.schema().join(&right))
            }
            PhysicalPlan::UnionAll { inputs } => inputs
                .first()
                .map(|p| p.schema())
                .unwrap_or_else(|| SchemaRef::new(rfv_types::Schema::empty())),
        }
    }

    /// Execute to completion (no observation — the default fast path).
    pub fn execute(&self) -> Result<Vec<Row>> {
        // A default probe has no counters and no trace, so the probed
        // path degenerates to the plain recursion: no clock reads, no
        // metric allocation.
        Ok(self.execute_probed(&ExecProbe::default())?.0)
    }

    /// Execute to completion under a probe. Returns the result rows
    /// plus — when `probe.trace` — a per-operator [`OpMetrics`] tree
    /// mirroring this plan (children in execution order).
    pub fn execute_probed(&self, probe: &ExecProbe) -> Result<(Vec<Row>, Option<OpMetrics>)> {
        let timer = if probe.trace {
            Some(rfv_obs::Stopwatch::start())
        } else {
            None
        };
        let mut kids: Vec<OpMetrics> = Vec::new();
        let mut rows_in = 0u64;
        let mut batches = 0u64;
        let mut par = ParStats::default();
        let gov = probe.gov();
        let mut run = |p: &PhysicalPlan| -> Result<Vec<Row>> {
            let (rows, m) = p.execute_probed(probe)?;
            rows_in += rows.len() as u64;
            batches += 1;
            if let Some(m) = m {
                kids.push(m);
            }
            Ok(rows)
        };
        let out = match self {
            PhysicalPlan::TableScan { table, .. } => {
                scan::table_scan(table, None, &mut par, &gov)?.0
            }
            PhysicalPlan::IndexRangeScan {
                table,
                column,
                lo,
                hi,
                ..
            } => scan::index_range_scan(table, *column, lo.as_ref(), hi.as_ref(), &gov)?,
            PhysicalPlan::Values { rows, .. } => rows.clone(),
            // A filter over a table scan runs inside the scan's loop, so
            // only the rows it keeps are copied out of storage. The scan
            // node still reports what it read, with the loop's time and
            // split; the filter node reports those rows in.
            PhysicalPlan::Filter { input, predicate } => match &**input {
                PhysicalPlan::TableScan { table, .. } => {
                    let timer = probe.trace.then(rfv_obs::Stopwatch::start);
                    let mut scan_par = ParStats::default();
                    let (rows, read) =
                        scan::table_scan(table, Some(predicate), &mut scan_par, &gov)?;
                    if let Some(counters) = &probe.counters {
                        counters.rows_scanned.add(read);
                    }
                    rows_in += read;
                    batches += 1;
                    if let Some(sw) = timer {
                        kids.push(OpMetrics {
                            name: input.metric_label(),
                            rows_in: 0,
                            rows_out: read,
                            batches: 1,
                            elapsed_ns: sw.elapsed_ns(),
                            morsels: scan_par.morsels,
                            workers: scan_par.workers,
                            note: None,
                            children: Vec::new(),
                        });
                    }
                    rows
                }
                _ => filter::filter(run(input)?, predicate, &mut par, &gov)?,
            },
            PhysicalPlan::Project { input, exprs, .. } => {
                filter::project(run(input)?, exprs, &mut par, &gov)?
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                on,
                join_type,
            } => join::nested_loop_join(
                run(left)?,
                run(right)?,
                on.as_ref(),
                *join_type,
                right.schema().len(),
                &gov,
            )?,
            PhysicalPlan::IndexNestedLoopJoin {
                left,
                right_table,
                right_schema,
                right_column,
                lo_expr,
                hi_expr,
                residual,
                join_type,
            } => join::index_nested_loop_join(
                run(left)?,
                right_table,
                *right_column,
                lo_expr,
                hi_expr,
                residual.as_ref(),
                *join_type,
                right_schema.len(),
                &gov,
            )?,
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                residual,
                join_type,
            } => join::hash_join(
                run(left)?,
                run(right)?,
                left_keys,
                right_keys,
                residual.as_ref(),
                *join_type,
                right.schema().len(),
                &gov,
            )?,
            PhysicalPlan::Sort { input, keys } => {
                let (rows, found) = filter::sort(run(input)?, keys, &gov)?;
                par.order = Some(found);
                rows
            }
            PhysicalPlan::HashAggregate {
                input,
                group_exprs,
                aggregates,
                ..
            } => aggregate::hash_aggregate(run(input)?, group_exprs, aggregates, &gov)?,
            PhysicalPlan::UnionAll { inputs } => {
                let mut out = Vec::new();
                for p in inputs {
                    out.extend(run(p)?);
                }
                out
            }
            PhysicalPlan::Limit { input, n } => {
                let mut rows = run(input)?;
                rows.truncate(*n);
                rows
            }
            PhysicalPlan::Window {
                input,
                partition_by,
                order_by,
                window_exprs,
                mode,
                sources,
                ..
            } => window::execute_window(
                run(input)?,
                partition_by,
                order_by,
                window_exprs,
                sources,
                *mode,
                &mut par,
                &gov,
            )?,
        };
        if let Some(counters) = &probe.counters {
            if matches!(
                self,
                PhysicalPlan::TableScan { .. } | PhysicalPlan::IndexRangeScan { .. }
            ) {
                counters.rows_scanned.add(out.len() as u64);
            }
        }
        let metrics = timer.map(|sw| OpMetrics {
            name: self.metric_label(),
            rows_in,
            rows_out: out.len() as u64,
            batches: batches.max(1),
            elapsed_ns: sw.elapsed_ns(),
            morsels: par.morsels,
            workers: par.workers,
            note: par.order.map(|found| format!("order={found}")),
            children: kids,
        });
        Ok((out, metrics))
    }

    /// Short operator label used in metrics trees (table name only —
    /// full predicates stay in `explain`).
    fn metric_label(&self) -> String {
        match self {
            PhysicalPlan::TableScan { table, .. } => {
                format!("TableScan({})", table.read().name())
            }
            PhysicalPlan::IndexRangeScan { table, .. } => {
                format!("IndexRangeScan({})", table.read().name())
            }
            PhysicalPlan::Values { .. } => "Values".into(),
            PhysicalPlan::Filter { .. } => "Filter".into(),
            PhysicalPlan::Project { .. } => "Project".into(),
            PhysicalPlan::NestedLoopJoin { .. } => "NestedLoopJoin".into(),
            PhysicalPlan::IndexNestedLoopJoin { right_table, .. } => {
                format!("IndexNestedLoopJoin({})", right_table.read().name())
            }
            PhysicalPlan::HashJoin { .. } => "HashJoin".into(),
            PhysicalPlan::Sort { .. } => "Sort".into(),
            PhysicalPlan::HashAggregate { .. } => "HashAggregate".into(),
            PhysicalPlan::UnionAll { .. } => "UnionAll".into(),
            PhysicalPlan::Limit { .. } => "Limit".into(),
            PhysicalPlan::Window { .. } => "Window".into(),
        }
    }

    /// Multi-line explain string (one node per line, children indented).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_annotated_into(&mut out, 0, None);
        out
    }

    /// `explain` with per-node actuals appended from a metrics tree
    /// produced by [`execute_probed`](Self::execute_probed) on this same
    /// plan. Nodes without a matching metrics entry (never the case for
    /// a matching tree) render without an annotation.
    pub fn explain_analyzed(&self, metrics: &OpMetrics) -> String {
        let mut out = String::new();
        self.explain_annotated_into(&mut out, 0, Some(metrics));
        out
    }

    fn explain_annotated_into(&self, out: &mut String, indent: usize, m: Option<&OpMetrics>) {
        let pad = "  ".repeat(indent);
        let mut line = self.explain_line();
        // Parallelism-eligibility annotation. Suppressed when the engine
        // is effectively serial (RFV_THREADS=1 / one-core hosts), so
        // serial plan text stays byte-identical to historical output.
        if sched::effective_threads() > 1 {
            if let Some(strategy) = self.parallel_strategy() {
                let _ = write!(line, " [parallel: {strategy}]");
            }
        }
        match m {
            Some(m) => {
                let _ = writeln!(out, "{pad}{line} {}", m.actuals());
            }
            None => {
                let _ = writeln!(out, "{pad}{line}");
            }
        }
        for (i, child) in self.explain_children().iter().enumerate() {
            child.explain_annotated_into(out, indent + 1, m.and_then(|m| m.children.get(i)));
        }
    }

    /// How this operator splits its input into a morsel fork-join when
    /// the scheduler's cost gate opens, or `None` for the operators that
    /// run one algorithm at every thread count — `Sort`, `HashAggregate`
    /// and `Window` among them. This is *eligibility*: inputs below the
    /// gate are not split at execution time.
    pub fn parallel_strategy(&self) -> Option<&'static str> {
        match self {
            PhysicalPlan::TableScan { .. } => Some("morsel scan"),
            PhysicalPlan::Filter { .. } => Some("morsel filter"),
            PhysicalPlan::Project { .. } => Some("morsel project"),
            _ => None,
        }
    }

    /// The one-line description of this node (no indent, no children).
    fn explain_line(&self) -> String {
        match self {
            PhysicalPlan::TableScan { table, .. } => {
                format!("TableScan: {}", table.read().name())
            }
            PhysicalPlan::IndexRangeScan {
                table,
                column,
                lo,
                hi,
                ..
            } => {
                format!(
                    "IndexRangeScan: {} col#{column} {}",
                    table.read().name(),
                    interval(lo, hi)
                )
            }
            PhysicalPlan::Values { rows, .. } => format!("Values: {} rows", rows.len()),
            PhysicalPlan::Filter { predicate, .. } => format!("Filter: {predicate}"),
            PhysicalPlan::Project { exprs, schema, .. } => {
                let cols: Vec<String> = exprs
                    .iter()
                    .zip(schema.fields())
                    .map(|(e, f)| format!("{e} AS {}", f.name))
                    .collect();
                format!("Project: {}", cols.join(", "))
            }
            PhysicalPlan::NestedLoopJoin { on, join_type, .. } => {
                format!(
                    "NestedLoopJoin({join_type:?}): {}",
                    on.as_ref().map_or("true".into(), |e| e.to_string())
                )
            }
            PhysicalPlan::IndexNestedLoopJoin {
                right_table,
                lo_expr,
                hi_expr,
                residual,
                join_type,
                ..
            } => {
                format!(
                    "IndexNestedLoopJoin({join_type:?}): {} key in {}{}",
                    right_table.read().name(),
                    interval(lo_expr, hi_expr),
                    residual
                        .as_ref()
                        .map_or(String::new(), |e| format!(" residual {e}")),
                )
            }
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                residual,
                join_type,
                ..
            } => {
                let keys: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect();
                format!(
                    "HashJoin({join_type:?}): {}{}",
                    keys.join(" AND "),
                    residual
                        .as_ref()
                        .map_or(String::new(), |e| format!(" residual {e}")),
                )
            }
            PhysicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                    .collect();
                format!("Sort: {}", ks.join(", "))
            }
            PhysicalPlan::HashAggregate {
                group_exprs,
                aggregates,
                ..
            } => {
                let gs: Vec<String> = group_exprs.iter().map(|e| e.to_string()).collect();
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|(f, a)| match a {
                        Some(e) => format!("{f}({e})"),
                        None => f.to_string(),
                    })
                    .collect();
                format!(
                    "HashAggregate: group=[{}] aggs=[{}]",
                    gs.join(", "),
                    aggs.join(", ")
                )
            }
            PhysicalPlan::UnionAll { .. } => "UnionAll".into(),
            PhysicalPlan::Limit { n, .. } => format!("Limit: {n}"),
            PhysicalPlan::Window {
                partition_by,
                order_by,
                window_exprs,
                mode,
                sources,
                ..
            } => {
                let ps: Vec<String> = partition_by.iter().map(|e| e.to_string()).collect();
                let os: Vec<String> = order_by
                    .iter()
                    .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                    .collect();
                let ws: Vec<String> = window_exprs
                    .iter()
                    .enumerate()
                    .map(|(i, w)| match window::source_of(sources, i) {
                        Some(source) => format!("{w} <- {}", source.describe()),
                        None => w.to_string(),
                    })
                    .collect();
                format!(
                    "Window({mode:?}): partition=[{}] order=[{}] exprs=[{}]",
                    ps.join(", "),
                    os.join(", "),
                    ws.join(", ")
                )
            }
        }
    }

    /// Children in execution order — the same order
    /// [`execute_probed`](Self::execute_probed) materializes them, so a
    /// metrics tree zips positionally with the plan tree. Note
    /// `IndexNestedLoopJoin` has one child: its right side is a stored
    /// table probed via its index, not an executed plan.
    /// Every stored table this plan reads, depth-first, deduplicated by
    /// handle identity. This is the plan's *dependency set*: a result
    /// computed by this plan is valid exactly as long as none of these
    /// tables' generations change, which is what the engine's result
    /// cache keys on.
    pub fn referenced_tables(&self) -> Vec<TableRef> {
        fn walk(plan: &PhysicalPlan, out: &mut Vec<TableRef>) {
            match plan {
                PhysicalPlan::TableScan { table, .. }
                | PhysicalPlan::IndexRangeScan { table, .. } => push_unique(out, table),
                // `explain_children` covers the left input below.
                PhysicalPlan::IndexNestedLoopJoin { right_table, .. } => {
                    push_unique(out, right_table)
                }
                _ => {}
            }
            for child in plan.explain_children() {
                walk(child, out);
            }
        }
        fn push_unique(out: &mut Vec<TableRef>, t: &TableRef) {
            if !out.iter().any(|seen| Arc::ptr_eq(seen, t)) {
                out.push(Arc::clone(t));
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    fn explain_children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::TableScan { .. }
            | PhysicalPlan::IndexRangeScan { .. }
            | PhysicalPlan::Values { .. } => vec![],
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Window { input, .. } => vec![input],
            PhysicalPlan::IndexNestedLoopJoin { left, .. } => vec![left],
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => vec![left, right],
            PhysicalPlan::UnionAll { inputs } => inputs.iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opmetrics::ExecCounters;
    use rfv_storage::Catalog;
    use rfv_types::{row, DataType, Field, Schema};

    /// `Filter: amount > 89.5` over `TableScan: t` on 100 rows; 10 pass.
    fn filtered_scan() -> PhysicalPlan {
        let schema = Schema::new(vec![
            Field::not_null("pos", DataType::Int),
            Field::not_null("amount", DataType::Float),
        ]);
        let table = Catalog::new().create_table("t", schema.clone()).unwrap();
        {
            let mut g = table.write();
            for i in 0..100i64 {
                g.insert(row![i, i as f64]).unwrap();
            }
        }
        PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::TableScan {
                table,
                schema: SchemaRef::new(schema),
            }),
            predicate: Expr::col(1).gt(Expr::lit(89.5f64)),
        }
    }

    fn traced() -> ExecProbe {
        ExecProbe {
            counters: Some(ExecCounters::default()),
            ..ExecProbe::traced()
        }
    }

    #[test]
    fn explain_analyze_of_a_filtered_scan_reports_rows_read_and_kept() {
        let plan = filtered_scan();
        let probe = traced();
        let (rows, metrics) = plan.execute_probed(&probe).unwrap();
        let metrics = metrics.unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(probe.counters.unwrap().rows_scanned.get(), 100);
        assert_eq!(metrics.rows_scanned(), 100);
        let text = plan.explain_analyzed(&metrics);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("Filter: "), "{text}");
        assert!(
            lines[0].contains("(actual rows=10 in=100 batches=1 "),
            "{text}"
        );
        assert!(lines[1].starts_with("  TableScan: t"), "{text}");
        assert!(
            lines[1].contains("(actual rows=100 in=0 batches=1 "),
            "{text}"
        );
        // Plain EXPLAIN is the plan's text, fused or not.
        assert_eq!(plan.explain().lines().count(), 2);
    }

    /// The fused loop's time is the scan's, inside the filter's, so the
    /// per-operator span tree still nests; a split shows on the scan.
    #[test]
    fn the_fused_scan_nests_inside_its_filter_and_carries_the_split() {
        let _g = sched::knob_guard();
        let plan = filtered_scan();
        let serial = plan.execute().unwrap();
        for threads in [1, 4] {
            sched::set_threads(threads);
            sched::set_parallel_threshold(4);
            let (rows, metrics) = plan.execute_probed(&traced()).unwrap();
            sched::set_threads(0);
            sched::set_parallel_threshold(usize::MAX);
            let filter = metrics.unwrap();
            let scan = &filter.children[0];
            assert_eq!(rows, serial, "threads={threads}");
            assert!(scan.elapsed_ns <= filter.elapsed_ns, "{filter:?}");
            assert_eq!((filter.morsels, filter.workers), (0, 0));
            assert_eq!(scan.morsels > 1, threads > 1, "{scan:?}");
        }
    }
}
