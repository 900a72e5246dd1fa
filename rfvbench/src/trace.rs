//! The traced run: spans recorded from the benchmark's side of each
//! layer boundary, and the staged pipeline that makes those boundaries
//! visible by calling every layer's public entry point in turn.
//!
//! `Database::execute` hides the layers behind one call, so a traced
//! statement is issued a second time as parse → bind → optimize →
//! view-rewrite → physical-plan → execute, with a span around each call.
//! Operator spans below `exec` come from the `OpMetrics` tree
//! `execute_probed` returns; it carries durations but no start times, so
//! each child is laid out inside its parent in execution order (the
//! executor is materializing: children run to completion, first to last,
//! before the operator's own work).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rfv_core::patterns::PatternVariant;
use rfv_core::{Database, RewriteOutcome, RewriteReport, RewriteStrategy, Rewriter};
use rfv_exec::{ExecProbe, OpMetrics, PhysicalPlan, WindowMode};
use rfv_obs::{validate_chrome_trace, Json};
use rfv_plan::{optimize, Binder, PhysicalPlanner};
use rfv_sql::parse_statement;
use rfv_sql::Statement;
use rfv_types::{CancelToken, Result, RfvError, Row};

/// One timed interval. `parent` indexes the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Statement the span belongs to; spans of one statement share it.
    pub stmt: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children are clipped to the parent, and the
/// result saturates at zero — clock granularity can make children appear
/// to outlast the parent by a few ns).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c))
        .collect()
}

/// The `exec.*.self_ns` metric of each operator class, indexed as
/// [`op_class`] numbers them.
pub const OP_SELF_METRICS: [&str; 8] = [
    "exec.scan.self_ns",
    "exec.filter.self_ns",
    "exec.project.self_ns",
    "exec.sort.self_ns",
    "exec.aggregate.self_ns",
    "exec.join.self_ns",
    "exec.other.self_ns",
    "exec.window.self_ns",
];
const WINDOW: usize = 7;

fn op_class(label: &str) -> usize {
    let head = label.split('(').next().unwrap_or(label);
    match head {
        "TableScan" | "IndexRangeScan" | "Values" => 0,
        "Filter" => 1,
        "Project" => 2,
        "Sort" => 3,
        "HashAggregate" => 4,
        "NestedLoopJoin" | "IndexNestedLoopJoin" | "HashJoin" => 5,
        "Window" => WINDOW,
        _ => 6,
    }
}

/// Per-layer self times (ns) and counts of one staged statement.
#[derive(Debug, Clone, Default)]
pub struct StmtLayers {
    pub parse: u64,
    pub bind: u64,
    pub optimize: u64,
    pub rewrite: u64,
    pub physical: u64,
    /// Wall time of the `execute_probed` call.
    pub exec_total: u64,
    /// Self time per [`OP_SELF_METRICS`] entry.
    pub op_self: [u64; 8],
    /// Rows each class worked on: rows produced for leaves, rows consumed
    /// for every other operator.
    pub op_rows: [u64; 8],
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    /// Sort and Window nodes in the physical plan (each one sorts).
    pub sort_nodes: u64,
    /// Wall time of the whole staged statement.
    pub total: u64,
}

impl StmtLayers {
    /// Sum of the six staged layers (front end + execution).
    pub fn layer_sum(&self) -> u64 {
        self.parse + self.bind + self.optimize + self.rewrite + self.physical + self.exec_total
    }
}

/// What a staged statement produced.
pub struct Staged {
    pub rows: Vec<Row>,
    pub layers: StmtLayers,
    /// `None` when the statement ran with view rewrite off.
    pub report: Option<RewriteReport>,
}

/// Span store of one benchmark process.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Whether spans are kept for the trace file (the traced run) or only
    /// used to compute one statement's layers (verification in the
    /// untraced run).
    retain: bool,
}

/// Spans written to the trace file; later ones still count in the
/// metrics. Keeps the file loadable in a trace viewer.
const MAX_FILE_SPANS: usize = 60_000;

impl Tracer {
    pub fn new(retain: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            retain,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a finished top-level span (e.g. around `Database::execute`).
    pub fn record(&mut self, name: &str, start_ns: u64, end_ns: u64, stmt: u64) {
        if self.retain {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns,
                parent: None,
                stmt,
            });
        }
    }

    /// Issue `sql` through the staged pipeline. `rewrite` mirrors the
    /// engine's view-rewrite switch; window mode and pattern variant are
    /// the engine defaults `Database::execute` plans with.
    pub fn staged(&mut self, db: &Database, sql: &str, rewrite: bool, stmt: u64) -> Result<Staged> {
        let mut local: Vec<Span> = Vec::with_capacity(16);
        let root_start = self.now_ns();
        local.push(Span {
            name: "stmt".into(),
            start_ns: root_start,
            end_ns: root_start,
            parent: None,
            stmt,
        });
        macro_rules! layer {
            ($name:expr, $call:expr) => {{
                let start = self.now_ns();
                let out = $call;
                let end = self.now_ns();
                local.push(Span {
                    name: $name.into(),
                    start_ns: start,
                    end_ns: end,
                    parent: Some(0),
                    stmt,
                });
                out
            }};
        }

        let parsed = layer!("sql.parse", parse_statement(sql))?;
        let Statement::Query(query) = parsed else {
            return Err(RfvError::plan("the staged pipeline runs queries only"));
        };
        let binder = Binder::new(db.catalog()).with_window_mode(WindowMode::Pipelined);
        let bound = layer!("plan.bind", binder.bind_query(&query))?;
        let logical = layer!("plan.optimize", optimize(bound));
        let (from_view, report) = if rewrite {
            let rewriter = Rewriter::new(db.catalog(), db.registry())
                .with_variant(PatternVariant::Disjunctive);
            let (plan, report) = layer!("core.rewrite", rewriter.plan_with_views_traced(&logical))?;
            (plan, Some(report))
        } else {
            (None, None)
        };
        let physical = match from_view {
            Some(plan) => plan,
            None => layer!(
                "plan.physical",
                PhysicalPlanner::new(db.catalog()).plan(&logical)
            )?,
        };
        // Governed like `Database::execute` governs it (a token with the
        // default limits: none), so the operators' checkpoint and
        // accounting calls are inside `exec` on both sides.
        let probe = ExecProbe {
            counters: None,
            trace: true,
            token: Some(Arc::new(CancelToken::new())),
        };
        let exec_start = self.now_ns();
        let (rows, metrics) = physical.execute_probed(&probe)?;
        let exec_end = self.now_ns();
        let exec_idx = local.len();
        local.push(Span {
            name: "exec".into(),
            start_ns: exec_start,
            end_ns: exec_end,
            parent: Some(0),
            stmt,
        });
        let metrics =
            metrics.ok_or_else(|| RfvError::internal("traced execution returned no OpMetrics"))?;
        let mut layers = StmtLayers {
            rows_scanned: metrics.rows_scanned(),
            rows_emitted: rows.len() as u64,
            sort_nodes: count_sorts(&physical),
            ..StmtLayers::default()
        };
        lay_out(
            &metrics,
            exec_start,
            exec_idx,
            stmt,
            &mut local,
            &mut layers,
        );
        local[0].end_ns = self.now_ns();

        let selfs = self_times(&local);
        for (span, self_ns) in local.iter().zip(&selfs) {
            match span.name.as_str() {
                "sql.parse" => layers.parse += self_ns,
                "plan.bind" => layers.bind += self_ns,
                "plan.optimize" => layers.optimize += self_ns,
                "core.rewrite" => layers.rewrite += self_ns,
                "plan.physical" => layers.physical += self_ns,
                "exec" => layers.exec_total = span.dur_ns(),
                "stmt" => layers.total = span.dur_ns(),
                op => {
                    if let Some(label) = op.strip_prefix("exec.") {
                        layers.op_self[op_class(label)] += self_ns;
                    }
                }
            }
        }
        if self.retain {
            let base = self.spans.len();
            self.spans.extend(local.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        Ok(Staged {
            rows,
            layers,
            report,
        })
    }

    /// Write the retained spans as Chrome Trace Event JSON and check the
    /// file with `rfv_obs::validate_chrome_trace`. Returns the number of
    /// complete events written.
    pub fn write_chrome(&self, path: &Path) -> std::result::Result<usize, String> {
        let mut events = vec![Json::Obj(vec![
            ("name".into(), Json::Str("process_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::Int(1)),
            ("tid".into(), Json::Int(0)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str("rfv-bench".into()))]),
            ),
        ])];
        for (i, s) in self.spans.iter().take(MAX_FILE_SPANS).enumerate() {
            let layer = s.name.split('.').next().unwrap_or("driver");
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("cat".into(), Json::Str(layer.into())),
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::Int(1)),
                ("ts".into(), Json::Float(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Float(s.dur_ns() as f64 / 1e3)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), Json::Int(i as i64)),
                        ("stmt".into(), Json::Int(s.stmt as i64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                    ]),
                ),
            ]));
        }
        let text = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).to_string();
        let summary = validate_chrome_trace(&text)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(summary.complete)
    }
}

fn count_sorts(plan: &PhysicalPlan) -> u64 {
    let own = u64::from(matches!(
        plan,
        PhysicalPlan::Sort { .. } | PhysicalPlan::Window { .. }
    ));
    let kids: u64 = match plan {
        PhysicalPlan::TableScan { .. }
        | PhysicalPlan::IndexRangeScan { .. }
        | PhysicalPlan::Values { .. } => 0,
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::HashAggregate { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Window { input, .. } => count_sorts(input),
        PhysicalPlan::IndexNestedLoopJoin { left, .. } => count_sorts(left),
        PhysicalPlan::NestedLoopJoin { left, right, .. }
        | PhysicalPlan::HashJoin { left, right, .. } => count_sorts(left) + count_sorts(right),
        PhysicalPlan::UnionAll { inputs } => inputs.iter().map(count_sorts).sum(),
    };
    own + kids
}

/// Turn an `OpMetrics` tree into spans under `parent`, starting at
/// `start_ns`, and add each operator's row count to `layers`.
fn lay_out(
    m: &OpMetrics,
    start_ns: u64,
    parent: usize,
    stmt: u64,
    out: &mut Vec<Span>,
    layers: &mut StmtLayers,
) {
    let idx = out.len();
    out.push(Span {
        name: format!("exec.{}", m.name),
        start_ns,
        end_ns: start_ns + m.elapsed_ns,
        parent: Some(parent),
        stmt,
    });
    layers.op_rows[op_class(&m.name)] += if m.children.is_empty() {
        m.rows_out
    } else {
        m.rows_in
    };
    let mut at = start_ns;
    for child in &m.children {
        lay_out(child, at, idx, stmt, out, layers);
        at += child.elapsed_ns;
    }
}

/// The `core.rewrite.strategy.*` metrics, indexed as
/// [`RewriteTally::strategy`] counts them.
pub const STRATEGY_METRICS: [&str; 8] = [
    "core.rewrite.strategy.exact",
    "core.rewrite.strategy.cumulative",
    "core.rewrite.strategy.minoa",
    "core.rewrite.strategy.maxoa",
    "core.rewrite.strategy.avg_from_sum",
    "core.rewrite.strategy.count_closed_form",
    "core.rewrite.strategy.partitioned",
    "core.rewrite.strategy.fallback",
];

/// Counts over the rewrite reports of the staged statements.
#[derive(Debug, Clone, Default)]
pub struct RewriteTally {
    pub statements: u64,
    pub rewritten: u64,
    pub strategy: [u64; 8],
    pub minoa_terms_max: i64,
}

impl RewriteTally {
    pub fn add(&mut self, report: &RewriteReport) {
        self.statements += 1;
        self.rewritten += u64::from(report.rewritten);
        if report.decisions.is_empty() {
            // Not a reporting-function query at all: one statement-level
            // fallback.
            self.strategy[7] += 1;
        }
        for d in &report.decisions {
            let bucket = match &d.outcome {
                RewriteOutcome::Fallback { .. } => 7,
                RewriteOutcome::FromView { strategy, .. } => {
                    self.note_terms(strategy);
                    match strategy {
                        RewriteStrategy::ExactMatch => 0,
                        RewriteStrategy::CumulativeDifference
                        | RewriteStrategy::CumulativeFromSliding => 1,
                        RewriteStrategy::MinOA { .. } => 2,
                        RewriteStrategy::MaxOA { .. } => 3,
                        RewriteStrategy::AvgFromSum { .. } => 4,
                        RewriteStrategy::ClosedFormCount => 5,
                        RewriteStrategy::PartitionedMinOA { .. }
                        | RewriteStrategy::PartitionReduction { .. } => 6,
                    }
                }
            };
            self.strategy[bucket] += 1;
        }
    }

    fn note_terms(&mut self, strategy: &RewriteStrategy) {
        match strategy {
            RewriteStrategy::MinOA { terms } => {
                self.minoa_terms_max = self.minoa_terms_max.max(*terms);
            }
            RewriteStrategy::AvgFromSum { sum } => self.note_terms(sum),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns: start,
            end_ns: end,
            parent,
            stmt: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, 100, None),    // root: children cover 30 + 40
            span(10, 40, Some(0)), // child: grandchild covers 10
            span(50, 90, Some(0)), // leaf
            span(15, 25, Some(1)), // grandchild, not charged to the root
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn self_time_clips_and_saturates() {
        let spans = vec![
            span(10, 20, None),
            span(5, 18, Some(0)),  // starts before the parent: 8 ns inside
            span(18, 30, Some(0)), // outlasts the parent: 2 ns inside
            span(0, 5, None),
            span(0, 9, Some(3)), // longer than its parent
        ];
        assert_eq!(self_times(&spans), vec![0, 13, 12, 0, 9]);
    }

    #[test]
    fn op_labels_map_to_classes() {
        let metric = |label| OP_SELF_METRICS[op_class(label)];
        assert_eq!(metric("TableScan(sales)"), "exec.scan.self_ns");
        assert_eq!(metric("IndexNestedLoopJoin(dim)"), "exec.join.self_ns");
        assert_eq!(metric("HashAggregate"), "exec.aggregate.self_ns");
        assert_eq!(metric("Window"), "exec.window.self_ns");
        assert_eq!(metric("Limit"), "exec.other.self_ns");
    }
}
