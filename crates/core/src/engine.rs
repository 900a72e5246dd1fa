//! The `rfv` database facade: SQL in, rows out.
//!
//! [`Database`] wires the whole stack together — parser, binder, optimizer,
//! physical planner, executor — and adds the paper's two warehouse-side
//! capabilities on top:
//!
//! * **materialized reporting-function views** — `CREATE MATERIALIZED VIEW
//!   v AS SELECT pos, agg(val) OVER (ORDER BY pos ROWS …) FROM base`
//!   recognizes the sequence-view shape, materializes the *complete*
//!   sequence (header/trailer, §3.2), registers it, and mirrors it into a
//!   queryable table `v(pos, val)`;
//! * **view-aware rewriting** — subsequent reporting-function queries over
//!   `base` are answered from the views' sequences via MinOA/MaxOA (see
//!   [`crate::rewrite`]); toggle with [`Database::set_view_rewrite`];
//! * **incremental view maintenance** (§2.3) — [`Database::sequence_update`],
//!   [`Database::sequence_insert`] and [`Database::sequence_delete`] apply
//!   base-data changes and propagate them to all dependent views with the
//!   local update rules. Plain SQL `INSERT` of the next position
//!   (`pos = n+1`) is maintained incrementally as well.
//!
//! This file holds the [`Database`] struct, its constructors and the
//! plain accessors; the behaviour lives in four child modules split
//! along the layers `rfv-bench` measures: `session` (the statement
//! lifecycle), `planner` (bind → plan cache), `write` (DML, views, the
//! single write path) and `admin` (durability, recorder, governance).

mod admin;
mod planner;
mod session;
#[cfg(test)]
mod tests;
mod write;

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rfv_exec::{ExecCounters, WindowMode};
use rfv_obs::event;
use rfv_obs::{Counter, Histogram, MetricsRegistry};
use rfv_storage::{Catalog, VirtualTable};
use rfv_types::governance::UNLIMITED;
use rfv_types::sync::RwLock;
use rfv_types::{Result, Row, Schema, SchemaRef};

use crate::cache::{CacheCounters, CacheStats, QueryCache, DEFAULT_CACHE_BYTES};
use crate::durability::{self, Persistence};
use crate::governor::{GovLimits, Governor};
use crate::rewrite::{RewriteReport, RewriteStrategy};
use crate::stats::StatementStats;
use crate::systab;
use crate::trace::QueryTrace;
use crate::view::ViewRegistry;

///
/// Rows are behind an `Arc` so the result cache can hand the same
/// materialized row set to every repeat of a query without copying.
#[derive(Debug, Clone)]
pub struct QueryResult {
    schema: SchemaRef,
    rows: Arc<Vec<Row>>,
    /// DML command tag: `("UPDATE", n)` etc. `None` for queries/DDL.
    command: Option<(&'static str, u64)>,
}

impl QueryResult {
    pub(crate) fn empty() -> Self {
        QueryResult {
            schema: SchemaRef::new(Schema::empty()),
            rows: Arc::new(Vec::new()),
            command: None,
        }
    }

    fn with_rows(schema: SchemaRef, rows: Vec<Row>) -> Self {
        QueryResult {
            schema,
            rows: Arc::new(rows),
            command: None,
        }
    }

    fn command(tag: &'static str, n: usize) -> Self {
        QueryResult {
            command: Some((tag, n as u64)),
            ..QueryResult::empty()
        }
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn into_rows(self) -> Vec<Row> {
        Arc::try_unwrap(self.rows).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Command tag of a DML statement (`"INSERT"`, `"UPDATE"`,
    /// `"DELETE"`), `None` for queries and DDL.
    pub fn command_tag(&self) -> Option<&'static str> {
        self.command.map(|(tag, _)| tag)
    }

    /// Rows affected by a DML statement, `None` for queries and DDL.
    pub fn affected_rows(&self) -> Option<u64> {
        self.command.map(|(_, n)| n)
    }

    /// Single-column convenience: all values of column `i` as f64
    /// (NULL → `None`).
    pub fn column_f64(&self, i: usize) -> Result<Vec<Option<f64>>> {
        self.rows.iter().map(|r| r.get(i).as_f64()).collect()
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|fld| fld.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(
                    f,
                    " {c:>width$} |",
                    width = widths.get(i).copied().unwrap_or(1)
                )?;
            }
            writeln!(f)
        };
        line(f, &headers)?;
        writeln!(
            f,
            "|{}|",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("|")
        )?;
        for row in &rendered {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Engine configuration knobs (benchmark axes), settable at runtime.
#[derive(Debug, Clone, Copy)]
struct Config {
    view_rewrite: bool,
    window_mode: WindowMode,
    /// Record per-phase spans and a [`QueryTrace`] for every query.
    tracing: bool,
}

/// Everything one engine takes from the process environment, read once
/// per [`Database`] construction (a caller may set a variable between two).
struct EngineConfig {
    /// `RFV_CACHE_BYTES` (`0` disables; default [`DEFAULT_CACHE_BYTES`]).
    cache_bytes: usize,
    /// `RFV_DATA_DIR`: makes [`Database::new`] durable.
    data_dir: Option<PathBuf>,
    /// `RFV_TRACE_FILE`: recorder on; where the shell dumps the trace.
    trace_file: Option<PathBuf>,
    /// `RFV_SLOW_MS`: slow-query threshold (`None` disables the log).
    slow_ms: Option<u64>,
    /// `RFV_STATEMENT_TIMEOUT_MS`, `RFV_MEM_BUDGET` (bytes),
    /// `RFV_MAX_CONCURRENT_QUERIES`; zero or unparsable disables each.
    limits: GovLimits,
    /// `RFV_FSYNC`: fsync every WAL append (anything but `0`/empty).
    fsync: bool,
}

impl EngineConfig {
    fn from_env() -> Self {
        let path = |name: &str| {
            std::env::var_os(name)
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        };
        let number = |name: &str| -> Option<u64> {
            std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
        };
        EngineConfig {
            cache_bytes: number("RFV_CACHE_BYTES").map_or(DEFAULT_CACHE_BYTES, |b| b as usize),
            data_dir: path("RFV_DATA_DIR"),
            trace_file: path("RFV_TRACE_FILE"),
            slow_ms: number("RFV_SLOW_MS"),
            limits: GovLimits {
                timeout: number("RFV_STATEMENT_TIMEOUT_MS")
                    .filter(|&ms| ms > 0)
                    .map(Duration::from_millis),
                mem_budget: number("RFV_MEM_BUDGET")
                    .filter(|&b| b > 0)
                    .unwrap_or(UNLIMITED),
                max_concurrent: number("RFV_MAX_CONCURRENT_QUERIES").unwrap_or(0) as usize,
                interrupt: false,
            },
            fsync: std::env::var("RFV_FSYNC").is_ok_and(|v| !v.is_empty() && v != "0"),
        }
    }
}

/// Pre-resolved handles into the metrics registry, so hot paths never
/// take the registry lock. All counters are always-on (one relaxed
/// atomic add each); the histogram is only recorded when tracing is on,
/// because it needs the clock.
#[derive(Clone)]
struct EngineCounters {
    query_planned: Counter,
    query_executed: Counter,
    query_slow: Counter,
    /// Statements that ended in an error of any kind (superset of the
    /// four cause-specific governance counters below).
    query_failed: Counter,
    query_cancelled: Counter,
    query_timeout: Counter,
    query_oom: Counter,
    query_rejected: Counter,
    query_ns: Histogram,
    exec: ExecCounters,
    rewrite_rewritten: Counter,
    rewrite_fallback: Counter,
    rewrite_disabled: Counter,
    rewrite_expressions: Counter,
    rewrite_expr_fallback: Counter,
    /// `rewrite.strategy.<label>`, indexed by [`RewriteStrategy::index`].
    rewrite_strategy: Arc<[Counter]>,
    maint_update: Counter,
    maint_insert: Counter,
    maint_delete: Counter,
    maint_refresh: Counter,
    maint_batch: Counter,
    maint_batch_rows: Counter,
    maint_batch_recomputed: Counter,
    maint_batch_shifted: Counter,
    maint_batch_coalesced: Counter,
    maint_batch_fallback: Counter,
    /// Locality by counting: base rows read to patch views (the raw
    /// neighbourhood of each edit), mirror rows written by the patches, and
    /// mirrors refilled because SQL had tampered with their rows.
    maint_base_rows_read: Counter,
    maint_mirror_rows_written: Counter,
    maint_mirror_healed: Counter,
    view_created: Counter,
    view_snapshot_fallback: Counter,
    wal_append: Counter,
    wal_bytes: Counter,
    cache: CacheCounters,
}

impl EngineCounters {
    fn new(metrics: &MetricsRegistry) -> Self {
        // The scheduler's counters are process-wide (splits of every
        // engine add to them); mirror the live handles into this engine's
        // registry so `metrics_json` exports them.
        let sched = rfv_exec::sched::metrics();
        metrics.register_counter("sched.tasks", sched.tasks.clone());
        metrics.register_counter("sched.steals", sched.steals.clone());
        metrics.register_counter("sched.parallel_ops", sched.parallel_ops.clone());
        metrics.register_histogram("sched.busy_ns", sched.busy_ns.clone());
        EngineCounters {
            query_planned: metrics.counter("query.planned"),
            query_executed: metrics.counter("query.executed"),
            query_slow: metrics.counter("query.slow"),
            query_failed: metrics.counter("query.failed"),
            query_cancelled: metrics.counter("query.cancelled"),
            query_timeout: metrics.counter("query.timeout"),
            query_oom: metrics.counter("query.oom"),
            query_rejected: metrics.counter("query.rejected"),
            query_ns: metrics.histogram("query.ns"),
            exec: ExecCounters {
                rows_scanned: metrics.counter("exec.rows_scanned"),
                rows_emitted: metrics.counter("exec.rows_emitted"),
            },
            rewrite_rewritten: metrics.counter("rewrite.rewritten"),
            rewrite_fallback: metrics.counter("rewrite.fallback"),
            rewrite_disabled: metrics.counter("rewrite.disabled"),
            rewrite_expressions: metrics.counter("rewrite.expressions"),
            rewrite_expr_fallback: metrics.counter("rewrite.expr_fallback"),
            rewrite_strategy: RewriteStrategy::LABELS
                .iter()
                .map(|l| metrics.counter(&format!("rewrite.strategy.{l}")))
                .collect(),
            maint_update: metrics.counter("maintenance.update"),
            maint_insert: metrics.counter("maintenance.insert"),
            maint_delete: metrics.counter("maintenance.delete"),
            maint_refresh: metrics.counter("maintenance.refresh"),
            maint_batch: metrics.counter("maintenance.batch"),
            maint_batch_rows: metrics.counter("maintenance.batch_rows"),
            maint_batch_recomputed: metrics.counter("maintenance.batch_recomputed"),
            maint_batch_shifted: metrics.counter("maintenance.batch_shifted"),
            maint_batch_coalesced: metrics.counter("maintenance.batch_coalesced"),
            maint_batch_fallback: metrics.counter("maintenance.batch_fallback"),
            maint_base_rows_read: metrics.counter("maintenance.base_rows_read"),
            maint_mirror_rows_written: metrics.counter("maintenance.mirror_rows_written"),
            maint_mirror_healed: metrics.counter("maintenance.mirror_healed"),
            view_created: metrics.counter("view.created"),
            view_snapshot_fallback: metrics.counter("view.snapshot_fallback"),
            wal_append: metrics.counter("wal.appends"),
            wal_bytes: metrics.counter("wal.bytes"),
            cache: CacheCounters::new(metrics),
        }
    }
}

/// The full engine. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Database {
    catalog: Catalog,
    registry: ViewRegistry,
    config: Arc<RwLock<Config>>,
    metrics: MetricsRegistry,
    counters: EngineCounters,
    /// Two-level plan/result cache (see [`crate::cache`]).
    cache: Arc<QueryCache>,
    /// Always-on cumulative per-statement statistics (see [`crate::stats`]).
    stmt_stats: StatementStats,
    /// Slow-query threshold in milliseconds (`RFV_SLOW_MS`; `None` = off).
    slow_ms: Option<u64>,
    /// Owning references to this engine's virtual system tables — the
    /// catalog holds them weakly, so the `rfv_stat_*` names resolve
    /// exactly as long as the engine is alive.
    systabs: Arc<Vec<Arc<dyn VirtualTable>>>,
    /// `RFV_TRACE_FILE`: where the shell dumps the flight-recorder
    /// trace on exit (the env var also enables recording at startup).
    trace_file: Arc<Option<PathBuf>>,
    /// Rewrite trace of the most recently planned query.
    last_rewrite: Arc<RwLock<Option<Arc<RewriteReport>>>>,
    /// Phase-span trace of the most recently traced query.
    last_trace: Arc<RwLock<Option<Arc<QueryTrace>>>>,
    /// Durable-storage handle; `None` keeps the engine purely in-memory.
    /// Set once — *after* recovery replay, so replay is never re-logged.
    persist: Arc<OnceLock<Arc<Persistence>>>,
    /// Resource governor: statement timeouts, memory budgets, admission
    /// control, and the in-flight token registry (see [`crate::governor`]).
    governor: Arc<Governor>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// A new engine. In-memory by default; when `RFV_DATA_DIR` is set,
    /// the engine becomes durable in a **fresh unique subdirectory** of
    /// it (`engine-<pid>-<n>`), so every engine in a test run gets its
    /// own WAL without interference. Use [`Database::open`] to reopen an
    /// existing data directory with recovery.
    pub fn new() -> Self {
        let (db, env) = Self::build();
        if let Some(dir) = env.data_dir {
            static ENGINE_SEQ: AtomicU64 = AtomicU64::new(0);
            let sub = dir.join(format!(
                "engine-{}-{}",
                std::process::id(),
                ENGINE_SEQ.fetch_add(1, AtomicOrdering::Relaxed)
            ));
            match Persistence::create(&sub, env.fsync) {
                Ok(p) => {
                    let _ = db.persist.set(Arc::new(p));
                }
                // A bad RFV_DATA_DIR degrades to in-memory rather than
                // panicking construction paths that can't return errors;
                // the warning keeps a misconfigured CI leg diagnosable.
                Err(e) => eprintln!("rfv: RFV_DATA_DIR disabled: {e}"),
            }
        }
        db
    }

    /// Open (or create) the durable database in `dir`, running crash
    /// recovery: load the newest valid snapshot, replay the committed
    /// WAL tail through the regular engine code paths, and only then
    /// start logging. A torn or corrupt WAL tail is truncated, never
    /// replayed and never a panic.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        let dir = dir.as_ref();
        let (db, env) = Self::build();
        // Recovery spans are recorded when the flight recorder is on
        // (`complete_since` is a no-op otherwise).
        let rec = event::recorder();
        let total_start = event::now_ns();
        let recovered = Persistence::recover(dir, env.fsync)?;
        let status = recovered.persistence.status();
        if let Some(snap) = recovered.snapshot {
            let start = event::now_ns();
            let detail = format!("lsn {}, {} tables", snap.lsn, snap.tables.len());
            for image in snap.tables {
                db.catalog.register(image.restore()?)?;
            }
            for view in durability::decode_views(&snap.extension)? {
                // The mirror table must have come back with the image
                // set; a snapshot violating that is corrupt.
                db.catalog.table(&view.name)?;
                // The snapshot is a cut under the commit lock: base and
                // views are in step, which is what the evidence says.
                if !view.is_partitioned() {
                    let base = db.catalog.table(&view.base_table)?;
                    let generation = base.read().generation();
                    db.registry.record_dense(&view.base_table, generation);
                }
                db.registry.restore(view)?;
            }
            rec.complete_since("recovery.snapshot", "recovery", start, Some(detail));
            db.metrics.counter("recovery.snapshot_loaded").incr();
        }
        let start = event::now_ns();
        for record in &recovered.tail {
            db.apply_wal_record(record)?;
        }
        let replayed = recovered.tail.len() as u64;
        let detail = format!("{replayed} records");
        rec.complete_since("recovery.replay", "recovery", start, Some(detail));
        db.metrics.counter("recovery.replayed").add(replayed);
        db.metrics
            .counter("recovery.truncated_bytes")
            .add(status.truncated_bytes);
        let detail = dir.display().to_string();
        rec.complete_since("recovery", "recovery", total_start, Some(detail));
        let _ = db.persist.set(Arc::new(recovered.persistence));
        Ok(db)
    }

    /// An in-memory engine configured from the environment it returns.
    fn build() -> (Self, EngineConfig) {
        let env = EngineConfig::from_env();
        let metrics = MetricsRegistry::new();
        let counters = EngineCounters::new(&metrics);
        let cache = Arc::new(QueryCache::new(env.cache_bytes, counters.cache.clone()));
        let catalog = Catalog::new();
        let registry = ViewRegistry::new();
        let stmt_stats = StatementStats::new();
        metrics.register_counter("stats.evicted", stmt_stats.evicted().clone());
        metrics.register_counter(
            "rewrite.derive_native_fallback",
            registry.native_fallbacks().clone(),
        );

        let persist: Arc<OnceLock<Arc<Persistence>>> = Arc::new(OnceLock::new());
        let governor = Arc::new(Governor::new(env.limits));
        let systabs = systab::standard_providers(
            stmt_stats.clone(),
            catalog.clone(),
            registry.clone(),
            Arc::clone(&cache),
            Arc::clone(&persist),
            Arc::clone(&governor),
            metrics.clone(),
        );
        for provider in &systabs {
            catalog.register_virtual(provider);
        }
        // RFV_TRACE_FILE turns the flight recorder on for the whole
        // process and tells the shell where to dump the trace on exit.
        if env.trace_file.is_some() {
            event::recorder().set_enabled(true);
        }
        let db = Database {
            catalog,
            registry,
            cache,
            stmt_stats,
            slow_ms: env.slow_ms,
            systabs: Arc::new(systabs),
            trace_file: Arc::new(env.trace_file.clone()),
            config: Arc::new(RwLock::new(Config {
                view_rewrite: true,
                window_mode: WindowMode::Pipelined,
                tracing: false,
            })),
            metrics,
            counters,
            last_rewrite: Arc::new(RwLock::new(None)),
            last_trace: Arc::new(RwLock::new(None)),
            persist,
            governor,
        };
        (db, env)
    }

    /// The [`RewriteReport`] of the most recently planned query: per
    /// window expression, which view matched and which derivation
    /// strategy fired — or why the rewriter fell back to the native
    /// window operator. `None` before the first query. Shared, not
    /// copied — the engine stores one `Arc` per planning pass.
    pub fn last_rewrite_report(&self) -> Option<Arc<RewriteReport>> {
        self.last_rewrite.read().clone()
    }

    /// The engine-wide metrics registry (always-on counters plus the
    /// traced-query duration histogram). Export with
    /// [`metrics_json`](Self::metrics_json).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The whole metrics registry as one stable JSON document
    /// (`{"counters":{…},"histograms":{…}}`, keys sorted).
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json().to_string()
    }

    /// Record per-phase spans and a [`QueryTrace`] for every query
    /// (default off — tracing reads the clock once per phase).
    pub fn set_tracing(&self, on: bool) {
        self.config.write().tracing = on;
    }

    /// The [`QueryTrace`] of the most recently traced query (`None`
    /// until a query runs with tracing on or under `EXPLAIN ANALYZE`).
    pub fn last_trace(&self) -> Option<Arc<QueryTrace>> {
        self.last_trace.read().clone()
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    /// Enable/disable answering reporting-function queries from
    /// materialized views (default on).
    pub fn set_view_rewrite(&self, on: bool) {
        self.config.write().view_rewrite = on;
    }

    /// Choose the native window operator's evaluation strategy
    /// (§2.2 naive explicit form vs. pipelined).
    pub fn set_window_mode(&self, mode: WindowMode) {
        self.config.write().window_mode = mode;
    }

    /// Resize the result-cache byte budget at runtime. `0` disables both
    /// cache levels and drops every entry (the engine then behaves
    /// exactly as if the cache never existed); any other value is the
    /// byte cap the LRU evicts to. The initial capacity comes from
    /// `RFV_CACHE_BYTES` (default 64 MiB).
    pub fn set_result_cache(&self, bytes: usize) {
        self.cache.set_capacity(bytes);
    }

    /// Point-in-time statistics of the two-level query cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}
