//! Virtual system statistics tables (`rfv_stat_*`).
//!
//! Seven [`VirtualTable`] providers expose live engine telemetry as
//! ordinary relations, so plain SQL — filters, joins, `ORDER BY`,
//! `LIMIT` — works against statistics with zero binder/planner/executor
//! changes:
//!
//! | table                 | one row per…       | backed by                     |
//! |-----------------------|--------------------|-------------------------------|
//! | `rfv_stat_statements` | normalized query   | [`StatementStats`]            |
//! | `rfv_stat_tables`     | real catalog table | [`Catalog`] + `TableStats`    |
//! | `rfv_stat_views`      | materialized view  | [`ViewRegistry`]              |
//! | `rfv_stat_cache`      | *(exactly one)*    | the two-level query cache     |
//! | `rfv_stat_workers`    | fork-join slot     | `rfv_exec::sched`             |
//! | `rfv_stat_wal`        | *(exactly one)*    | [`crate::durability`]         |
//! | `rfv_stat_resources`  | governance metric  | [`Governor`] + counters       |
//!
//! Each lookup materializes a fresh point-in-time snapshot (see
//! [`Catalog::register_virtual`]); the snapshot is marked virtual so the
//! plan/result caches never retain plans over it. Counters are `u64`
//! internally and are exposed as SQL `BIGINT` via a saturating cast —
//! `i64::MAX` is ~292 years of nanoseconds, so saturation is theoretical.
//!
//! The [`Database`](crate::Database) registers all five at construction;
//! providers are owned by the engine and held weakly by the catalog, so
//! dropping the engine retires its system tables.

use std::sync::{Arc, OnceLock};

use rfv_obs::MetricsRegistry;
use rfv_storage::{Catalog, VirtualTable};
use rfv_types::governance::UNLIMITED;
use rfv_types::{row, DataType, Field, Result, Row, Schema, Value};

use crate::cache::QueryCache;
use crate::durability::Persistence;
use crate::governor::Governor;
use crate::stats::StatementStats;
use crate::view::ViewRegistry;

/// `u64` counter → SQL `BIGINT`, saturating (never wraps negative).
fn big(n: u64) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// One row per distinct normalized statement, sorted by query text.
pub struct StatStatements {
    stats: StatementStats,
}

impl StatStatements {
    pub fn new(stats: StatementStats) -> Self {
        StatStatements { stats }
    }
}

impl VirtualTable for StatStatements {
    fn name(&self) -> &str {
        "rfv_stat_statements"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::not_null("query", DataType::Str),
            Field::not_null("calls", DataType::Int),
            Field::not_null("failures", DataType::Int),
            Field::not_null("total_ns", DataType::Int),
            Field::not_null("min_ns", DataType::Int),
            Field::not_null("max_ns", DataType::Int),
            Field::not_null("p50_ns", DataType::Int),
            Field::not_null("p95_ns", DataType::Int),
            Field::not_null("rows", DataType::Int),
            Field::not_null("cache_hits", DataType::Int),
            Field::not_null("rewrites", DataType::Int),
            Field::not_null("fallbacks", DataType::Int),
            Field::not_null("strategies", DataType::Str),
        ])
    }

    fn rows(&self) -> Result<Vec<Row>> {
        Ok(self
            .stats
            .snapshot()
            .into_iter()
            .map(|s| {
                // "label:count" pairs, comma-joined, already sorted
                // (BTreeMap) — empty string when no rewrite fired.
                let strategies = s
                    .strategies
                    .iter()
                    .map(|(label, n)| format!("{label}:{n}"))
                    .collect::<Vec<_>>()
                    .join(",");
                row![
                    s.query,
                    big(s.calls),
                    big(s.failures),
                    big(s.total_ns),
                    big(s.min_ns),
                    big(s.max_ns),
                    big(s.p50_ns),
                    big(s.p95_ns),
                    big(s.rows),
                    big(s.cache_hits),
                    big(s.rewrites),
                    big(s.fallbacks),
                    strategies
                ]
            })
            .collect())
    }
}

/// One row per **real** catalog table (virtual tables report on real
/// ones, never on themselves — no fixpoint), sorted by name.
pub struct StatTables {
    catalog: Catalog,
}

impl StatTables {
    pub fn new(catalog: Catalog) -> Self {
        StatTables { catalog }
    }
}

impl VirtualTable for StatTables {
    fn name(&self) -> &str {
        "rfv_stat_tables"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::not_null("name", DataType::Str),
            Field::not_null("rows", DataType::Int),
            Field::not_null("slots", DataType::Int),
            Field::not_null("generation", DataType::Int),
        ])
    }

    fn rows(&self) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        for name in self.catalog.table_names() {
            // A concurrent drop between listing and lookup just skips
            // the row — the snapshot stays best-effort, never errors.
            let Ok(table) = self.catalog.table(&name) else {
                continue;
            };
            let t = table.read();
            let stats = t.stats();
            out.push(row![
                name,
                big(stats.row_count as u64),
                big(stats.slot_count as u64),
                big(t.generation())
            ]);
        }
        Ok(out)
    }
}

/// One row per materialized reporting-function view, sorted by name.
pub struct StatViews {
    registry: ViewRegistry,
}

impl StatViews {
    pub fn new(registry: ViewRegistry) -> Self {
        StatViews { registry }
    }
}

impl VirtualTable for StatViews {
    fn name(&self) -> &str {
        "rfv_stat_views"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::not_null("name", DataType::Str),
            Field::not_null("base_table", DataType::Str),
            Field::not_null("func", DataType::Str),
            Field::not_null("window", DataType::Str),
            Field::not_null("partition_by", DataType::Str),
            Field::not_null("n", DataType::Int),
        ])
    }

    fn rows(&self) -> Result<Vec<Row>> {
        let mut names = self.registry.names();
        names.sort();
        Ok(names
            .into_iter()
            .filter_map(|name| self.registry.get(&name))
            .map(|v| {
                row![
                    v.name.clone(),
                    v.base_table.clone(),
                    v.func.to_string(),
                    v.window.to_string(),
                    v.partition_columns.join(","),
                    v.n()
                ]
            })
            .collect())
    }
}

/// Exactly one row: the two-level query cache's point-in-time stats.
pub struct StatCache {
    cache: Arc<QueryCache>,
}

impl StatCache {
    pub(crate) fn new(cache: Arc<QueryCache>) -> Self {
        StatCache { cache }
    }
}

impl VirtualTable for StatCache {
    fn name(&self) -> &str {
        "rfv_stat_cache"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::not_null("enabled", DataType::Bool),
            Field::not_null("capacity_bytes", DataType::Int),
            Field::not_null("resident_bytes", DataType::Int),
            Field::not_null("result_entries", DataType::Int),
            Field::not_null("plan_entries", DataType::Int),
            Field::not_null("hits", DataType::Int),
            Field::not_null("misses", DataType::Int),
            Field::not_null("inserts", DataType::Int),
            Field::not_null("evictions", DataType::Int),
            Field::not_null("plan_hits", DataType::Int),
            Field::not_null("plan_misses", DataType::Int),
        ])
    }

    fn rows(&self) -> Result<Vec<Row>> {
        let s = self.cache.stats();
        Ok(vec![Row::new(vec![
            Value::Bool(s.enabled),
            Value::Int(big(s.capacity_bytes as u64)),
            Value::Int(big(s.resident_bytes as u64)),
            Value::Int(big(s.result_entries as u64)),
            Value::Int(big(s.plan_entries as u64)),
            Value::Int(big(s.hits)),
            Value::Int(big(s.misses)),
            Value::Int(big(s.inserts)),
            Value::Int(big(s.evictions)),
            Value::Int(big(s.plan_hits)),
            Value::Int(big(s.plan_misses)),
        ])])
    }
}

/// One row per helper slot of the morsel fork-join ever used, in slot
/// order: slot 0 is the thread that split, slot `i ≥ 1` its `i`-th helper
/// (lifetime totals, summed over every split). Empty until the first split.
pub struct StatWorkers;

impl VirtualTable for StatWorkers {
    fn name(&self) -> &str {
        "rfv_stat_workers"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::not_null("worker", DataType::Int),
            Field::not_null("tasks", DataType::Int),
            Field::not_null("busy_ns", DataType::Int),
        ])
    }

    fn rows(&self) -> Result<Vec<Row>> {
        Ok(rfv_exec::sched::worker_stats()
            .into_iter()
            .map(|w| row![big(w.worker as u64), big(w.tasks), big(w.busy_ns)])
            .collect())
    }
}

/// Exactly one row: WAL / snapshot / recovery state of this engine.
/// All-zero (durable = FALSE) for in-memory engines; the persistence
/// handle is attached after recovery, hence the shared `OnceLock`.
pub struct StatWal {
    persist: Arc<OnceLock<Arc<Persistence>>>,
}

impl StatWal {
    pub(crate) fn new(persist: Arc<OnceLock<Arc<Persistence>>>) -> Self {
        StatWal { persist }
    }
}

impl VirtualTable for StatWal {
    fn name(&self) -> &str {
        "rfv_stat_wal"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::not_null("durable", DataType::Bool),
            Field::not_null("data_dir", DataType::Str),
            Field::not_null("base_lsn", DataType::Int),
            Field::not_null("last_lsn", DataType::Int),
            Field::not_null("snapshot_lsn", DataType::Int),
            Field::not_null("wal_records", DataType::Int),
            Field::not_null("wal_bytes", DataType::Int),
            Field::not_null("wal_fsyncs", DataType::Int),
            Field::not_null("snapshots_written", DataType::Int),
            Field::not_null("snapshot_loaded", DataType::Bool),
            Field::not_null("replayed", DataType::Int),
            Field::not_null("truncated_bytes", DataType::Int),
        ])
    }

    fn rows(&self) -> Result<Vec<Row>> {
        let row = match self.persist.get() {
            Some(p) => {
                let s = p.status();
                Row::new(vec![
                    Value::Bool(true),
                    Value::from(s.dir.display().to_string()),
                    Value::Int(big(s.base_lsn)),
                    Value::Int(big(s.last_lsn)),
                    Value::Int(big(s.snapshot_lsn)),
                    Value::Int(big(s.wal_records)),
                    Value::Int(big(s.wal_bytes)),
                    Value::Int(big(s.wal_fsyncs)),
                    Value::Int(big(s.snapshots_written)),
                    Value::Bool(s.snapshot_loaded),
                    Value::Int(big(s.replayed)),
                    Value::Int(big(s.truncated_bytes)),
                ])
            }
            None => Row::new(vec![
                Value::Bool(false),
                Value::from(""),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Bool(false),
                Value::Int(0),
                Value::Int(0),
            ]),
        };
        Ok(vec![row])
    }
}

/// One row per resource-governance metric, sorted by name. Limits that
/// are not configured surface as SQL NULL (not `0`, which would read as
/// "a budget of zero bytes").
pub struct StatResources {
    governor: Arc<Governor>,
    metrics: MetricsRegistry,
}

impl StatResources {
    pub(crate) fn new(governor: Arc<Governor>, metrics: MetricsRegistry) -> Self {
        StatResources { governor, metrics }
    }
}

impl VirtualTable for StatResources {
    fn name(&self) -> &str {
        "rfv_stat_resources"
    }

    fn schema(&self) -> Schema {
        Schema::new(vec![
            Field::not_null("name", DataType::Str),
            Field::new("value", DataType::Int),
        ])
    }

    fn rows(&self) -> Result<Vec<Row>> {
        let limits = self.governor.limits();
        let opt = |v: Option<i64>| v.map(Value::Int).unwrap_or(Value::Null);
        let counter = |name: &str| Value::Int(big(self.metrics.counter_value(name)));
        // Sorted by name — the scan order is part of the table's contract.
        let rows = vec![
            (
                "cancel_requests",
                Value::Int(big(self.governor.cancel_requests())),
            ),
            ("cancelled", counter("query.cancelled")),
            (
                "max_concurrent",
                opt((limits.max_concurrent > 0).then(|| big(limits.max_concurrent as u64))),
            ),
            (
                "mem_budget_bytes",
                opt((limits.mem_budget != UNLIMITED).then(|| big(limits.mem_budget))),
            ),
            ("oom", counter("query.oom")),
            ("rejected", counter("query.rejected")),
            ("running", Value::Int(big(self.governor.running() as u64))),
            (
                "statement_timeout_ms",
                opt(limits.timeout.map(|t| big(t.as_millis() as u64))),
            ),
            ("timeout", counter("query.timeout")),
        ];
        Ok(rows
            .into_iter()
            .map(|(name, value)| Row::new(vec![Value::from(name), value]))
            .collect())
    }
}

/// Build the standard provider set for one engine. The returned `Arc`s
/// are the **owning** references (the catalog only holds weak ones) —
/// the engine must keep them alive for the names to resolve.
pub(crate) fn standard_providers(
    stats: StatementStats,
    catalog: Catalog,
    registry: ViewRegistry,
    cache: Arc<QueryCache>,
    persist: Arc<OnceLock<Arc<Persistence>>>,
    governor: Arc<Governor>,
    metrics: MetricsRegistry,
) -> Vec<Arc<dyn VirtualTable>> {
    vec![
        Arc::new(StatStatements::new(stats)),
        Arc::new(StatTables::new(catalog)),
        Arc::new(StatViews::new(registry)),
        Arc::new(StatCache::new(cache)),
        Arc::new(StatWorkers),
        Arc::new(StatWal::new(persist)),
        Arc::new(StatResources::new(governor, metrics)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn providers_have_stable_names_and_matching_row_arity() {
        let stats = StatementStats::new();
        stats.record(
            "SELECT 1",
            100,
            1,
            false,
            crate::cache::PlanOutcome::Fallback,
            &crate::rewrite::RewriteReport::default(),
        );
        let catalog = Catalog::new();
        catalog
            .create_table("t", Schema::new(vec![Field::not_null("id", DataType::Int)]))
            .unwrap();
        let providers = standard_providers(
            stats,
            catalog,
            ViewRegistry::new(),
            Arc::new(QueryCache::new(
                0,
                crate::cache::CacheCounters::new(&rfv_obs::MetricsRegistry::new()),
            )),
            Arc::new(OnceLock::new()),
            Arc::new(Governor::new(crate::governor::GovLimits::UNLIMITED)),
            rfv_obs::MetricsRegistry::new(),
        );
        let names: Vec<&str> = providers.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "rfv_stat_statements",
                "rfv_stat_tables",
                "rfv_stat_views",
                "rfv_stat_cache",
                "rfv_stat_workers",
                "rfv_stat_wal",
                "rfv_stat_resources",
            ]
        );
        for p in &providers {
            let width = p.schema().len();
            for row in p.rows().unwrap() {
                assert_eq!(row.values().len(), width, "{}", p.name());
            }
        }
        // Statements and tables each produced their one row.
        assert_eq!(providers[0].rows().unwrap().len(), 1);
        assert_eq!(providers[1].rows().unwrap().len(), 1);
        // Cache is always exactly one row.
        assert_eq!(providers[3].rows().unwrap().len(), 1);
    }
}
