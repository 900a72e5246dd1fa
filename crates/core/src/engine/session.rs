//! The statement lifecycle: every query — plain, or the inner query of
//! `EXPLAIN ANALYZE` — is one *attempt*: admit → plan → result-cache
//! probe → execute under the statement token → [`Database::finish`], the
//! single accounting point. Counters, statement statistics, slow-query
//! log, flight recorder and query trace all derive from one
//! [`StatementDone`], so they cannot disagree.

use std::sync::Arc;

use rfv_exec::{ExecProbe, OpMetrics};
use rfv_obs::event::{self, EventPh};
use rfv_obs::{Collector, Stopwatch};
use rfv_sql::{self as ast, parse_statement, parse_statements};
use rfv_storage::IndexKind;
use rfv_types::{DataType, Field, Result, RfvError, Row, Schema, SchemaRef, Value};

use super::{Database, QueryResult};
use crate::cache::{PlanEntry, ResultKey};
use crate::durability::WalRecord;
use crate::trace::QueryTrace;

/// What one attempt produced besides its rows, filled in as it goes so
/// a failure keeps whatever was reached.
#[derive(Default)]
struct Attempt {
    /// The plan, if planning got that far.
    entry: Option<Arc<PlanEntry>>,
    /// Served from (under `EXPLAIN ANALYZE`: present in) the result cache.
    cache_hit: bool,
    /// Per-operator actuals (`EXPLAIN ANALYZE` only).
    metrics: Option<OpMetrics>,
    /// Set by `finish` when the attempt was traced.
    trace: Option<Arc<QueryTrace>>,
}

/// One finished attempt at a query — the **only** value the engine's
/// per-statement consumers are updated from (see [`Database::finish`]).
struct StatementDone<'a> {
    /// Normalized SQL (the AST's canonical `Display`, also the plan-cache
    /// fingerprint): failed and successful runs of a query share an entry.
    sql: &'a str,
    /// The plan, if planning got that far.
    entry: Option<&'a Arc<PlanEntry>>,
    /// Rows returned, or the error that ended the attempt.
    outcome: std::result::Result<u64, &'a RfvError>,
    cache_hit: bool,
    /// Admission + plan + execute (parse happens before dispatch).
    elapsed_ns: u64,
    /// The attempt's phase spans.
    collector: &'a Collector,
    /// Whether a [`QueryTrace`] is wanted (tracing on, or `EXPLAIN ANALYZE`).
    traced: bool,
}

/// Bound the free-form `detail` payload of flight-recorder events so a
/// pathological statement cannot bloat the ring (events are dropped on
/// contention, never resized).
fn truncate_sql(sql: &str) -> String {
    const MAX: usize = 120;
    if sql.len() <= MAX {
        return sql.to_string();
    }
    let mut cut = MAX;
    while !sql.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &sql[..cut])
}

impl Database {
    /// Execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let collector = self.make_collector();
        let stmt = collector.time("parse", || parse_statement(sql))?;
        self.execute_statement(&stmt, &collector)
    }

    /// Execute a `;`-separated script, returning one result per statement.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<QueryResult>> {
        parse_statements(sql)?
            .iter()
            .map(|s| self.execute_statement(s, &self.make_collector()))
            .collect()
    }

    /// EXPLAIN: the bound logical plan and the physical plan actually
    /// chosen (including whether a view rewrite fired). Accepts either a
    /// bare query or an `EXPLAIN [ANALYZE]` statement.
    pub fn explain(&self, sql: &str) -> Result<String> {
        match parse_statement(sql)? {
            ast::Statement::Query(q) => self.explain_query(&q, false),
            ast::Statement::Explain { analyze, query } => self.explain_query(&query, analyze),
            _ => Err(RfvError::plan("EXPLAIN supports queries only")),
        }
    }

    /// A span collector for one statement: enabled when tracing is on
    /// **or** the flight recorder is recording (the recorder re-uses the
    /// phase spans; `query.ns` and `last_trace` stay gated on the
    /// `tracing` config bit alone).
    fn make_collector(&self) -> Collector {
        Collector::new(self.config.read().tracing || event::recorder().is_enabled())
    }

    /// Statement dispatch. `pub(super)` because WAL replay re-executes
    /// logged DDL/DML text through it.
    pub(super) fn execute_statement(
        &self,
        stmt: &ast::Statement,
        collector: &Collector,
    ) -> Result<QueryResult> {
        match stmt {
            ast::Statement::Query(q) => self.run_query(q, false, collector).map(|(rows, _)| rows),
            ast::Statement::Explain { analyze, query } => {
                let text = self.explain_query(query, *analyze)?;
                let schema = Schema::new(vec![Field::not_null("plan", DataType::Str)]);
                let lines = text.lines().map(|l| Row::new(vec![Value::from(l)]));
                Ok(QueryResult::with_rows(
                    SchemaRef::new(schema),
                    lines.collect(),
                ))
            }
            ast::Statement::CreateTable { .. }
            | ast::Statement::CreateIndex { .. }
            | ast::Statement::CreateMaterializedView { .. }
            | ast::Statement::DropTable { .. } => self.logged(
                || self.execute_ddl(stmt).map(|()| QueryResult::empty()),
                || WalRecord::Sql(stmt.to_string()),
            ),
            ast::Statement::Insert {
                table,
                columns,
                values,
            } => self
                .insert(table, columns, values)
                .map(|n| QueryResult::command("INSERT", n)),
            ast::Statement::Update {
                table,
                assignments,
                selection,
            } => self
                .update(table, assignments, selection.as_ref())
                .map(|n| QueryResult::command("UPDATE", n)),
            ast::Statement::Delete { table, selection } => self
                .delete(table, selection.as_ref())
                .map(|n| QueryResult::command("DELETE", n)),
        }
    }

    /// DDL; the caller holds the commit lock and logs the statement text.
    fn execute_ddl(&self, stmt: &ast::Statement) -> Result<()> {
        match stmt {
            ast::Statement::CreateTable { name, columns } => {
                let fields = columns
                    .iter()
                    .map(|c| {
                        if c.not_null {
                            Field::not_null(c.name.clone(), c.data_type)
                        } else {
                            Field::new(c.name.clone(), c.data_type)
                        }
                    })
                    .collect();
                let table = self.catalog.create_table(name, Schema::new(fields))?;
                for (i, c) in columns.iter().enumerate() {
                    if c.primary_key {
                        table.write().create_index(i, IndexKind::Unique)?;
                    }
                }
                Ok(())
            }
            ast::Statement::CreateIndex {
                table,
                column,
                unique,
            } => {
                let t = self.catalog.table(table)?;
                let mut guard = t.write();
                let idx = guard.schema().index_of(None, column)?;
                let kind = if *unique {
                    IndexKind::Unique
                } else {
                    IndexKind::NonUnique
                };
                guard.create_index(idx, kind)
            }
            ast::Statement::CreateMaterializedView { name, query } => {
                self.create_materialized_view(name, query)
            }
            ast::Statement::DropTable { name } => {
                if !self.registry.views_for(name).is_empty() {
                    return Err(RfvError::catalog(format!(
                        "cannot drop `{name}`: materialized sequence views depend on it"
                    )));
                }
                if self.registry.get(name).is_some() {
                    self.registry.drop(&self.catalog, name)
                } else {
                    self.catalog.drop_table(name)
                }
            }
            _ => Err(RfvError::internal("not a DDL statement")),
        }
    }

    /// `EXPLAIN [ANALYZE] q` as text. Plain EXPLAIN only plans; ANALYZE
    /// is a full attempt of `q` that renders the physical tree with
    /// measured actuals (rows, batches, wall time) on every node, the
    /// phase-span timeline, and the rewrite report.
    fn explain_query(&self, q: &ast::Query, analyze: bool) -> Result<String> {
        let how = |entry: &PlanEntry| {
            if entry.from_view {
                "view rewrite"
            } else {
                "direct"
            }
        };
        if !analyze {
            let entry = self.plan_query(q)?;
            return Ok(format!(
                "== logical ==\n{}== physical ({}) ==\n{}== rewrite ==\n{}",
                entry.logical.explain(),
                how(&entry),
                entry.physical.explain(),
                entry.report
            ));
        }
        // ANALYZE always traces, independent of `set_tracing`.
        let (result, ran) = self.run_query(q, true, &Collector::enabled())?;
        let (Some(entry), Some(metrics), Some(trace)) = (&ran.entry, &ran.metrics, &ran.trace)
        else {
            return Err(RfvError::internal(
                "traced execution produced no metrics tree",
            ));
        };
        let mut out = format!(
            "== physical ({}){} ==\n{}",
            how(entry),
            if ran.cache_hit { " [cache: hit]" } else { "" },
            entry.physical.explain_analyzed(metrics)
        );
        out.push_str(&format!(
            "rows emitted: {}, rows scanned: {}\n",
            result.rows().len(),
            metrics.rows_scanned()
        ));
        out.push_str("== phases ==\n");
        for s in &trace.spans {
            out.push_str(&format!("{s}\n"));
        }
        out.push_str(&format!(
            "{:<14} {}\n",
            "total",
            rfv_obs::fmt_ns(trace.total_ns)
        ));
        out.push_str(&format!("== rewrite ==\n{}", entry.report));
        Ok(out)
    }

    /// One attempt at `q`, start to [`finish`](Self::finish). Under
    /// `analyze` (the inner query of `EXPLAIN ANALYZE`) it must *measure*
    /// real execution, so it only peeks at the result cache and collects
    /// per-operator actuals; admission, token and accounting are those of
    /// a plain run.
    fn run_query(
        &self,
        q: &ast::Query,
        analyze: bool,
        collector: &Collector,
    ) -> Result<(QueryResult, Attempt)> {
        // Always-on statement clock (parse happens before dispatch).
        let clock = Stopwatch::start();
        let sql = q.to_string();
        let mut ran = Attempt::default();
        let outcome = self.attempt(q, &sql, analyze, collector, &mut ran);
        ran.trace = self.finish(StatementDone {
            sql: &sql,
            entry: ran.entry.as_ref(),
            outcome: match &outcome {
                Ok(result) => Ok(result.rows().len() as u64),
                Err(e) => Err(e),
            },
            cache_hit: ran.cache_hit,
            elapsed_ns: clock.elapsed_ns(),
            collector,
            traced: analyze || self.config.read().tracing,
        });
        Ok((outcome?, ran))
    }

    /// Steps 1–4 of the lifecycle; every exit — success or any error,
    /// plan-time or execution-time — returns to
    /// [`run_query`](Self::run_query), which accounts it exactly once.
    fn attempt(
        &self,
        q: &ast::Query,
        sql: &str,
        analyze: bool,
        collector: &Collector,
        ran: &mut Attempt,
    ) -> Result<QueryResult> {
        // Admission first: a shed statement must not spend plan work.
        // The guard releases its slot on any exit path, including
        // unwinding past a governance error.
        let _slot = self.governor.admit()?;
        let token = self.governor.statement_token();
        let (entry, plan_key) = self.plan_query_cached(q, sql, collector)?;
        let entry = ran.entry.insert(entry);
        // The result-cache key binds the plan to the *current* data
        // generation of every table it reads.
        let result_key = plan_key.map(|plan| ResultKey {
            gens: entry.dep_generations(),
            plan,
        });
        if let Some(key) = &result_key {
            if analyze {
                // Annotate-only peek: never perturbs recency order or
                // the hit/miss counters.
                ran.cache_hit = self.cache.result_contains(key);
            } else if let Some(hit) = self.cache.result_get(key) {
                ran.cache_hit = true;
                self.counters.cache.hits.incr();
                event::recorder().instant("cache.hit", "cache", None);
                return Ok(hit);
            } else {
                self.counters.cache.misses.incr();
                event::recorder().instant("cache.miss", "cache", None);
            }
        }
        let probe = ExecProbe {
            counters: Some(self.counters.exec.clone()),
            trace: analyze,
            token: Some(token),
        };
        let (rows, metrics) =
            collector.time("execute", || entry.physical.execute_probed(&probe))?;
        ran.metrics = metrics;
        let result = QueryResult::with_rows(entry.logical.schema(), rows);
        if let Some(key) = result_key.filter(|_| !analyze) {
            // Validate-after: publish only if no dep mutated while we
            // were scanning — a torn read must never be cached. (An
            // aborted execution never reaches this point, so the result
            // cache cannot observe partial results either.)
            if key.gens == entry.dep_generations() {
                self.cache.result_put(key, result.clone());
            }
        }
        Ok(result)
    }

    /// Step 5, the single accounting point: the `query.*` counters, the
    /// statement's [`StatementStats`](crate::stats) entry, the slow-query
    /// log, the flight recorder (failure instant, phase spans, one overall
    /// `query` span) and — when `traced` — `query.ns` and
    /// [`last_trace`](Self::last_trace).
    fn finish(&self, done: StatementDone<'_>) -> Option<Arc<QueryTrace>> {
        let c = &self.counters;
        let rec = event::recorder();
        let rows = match done.outcome {
            Ok(rows) => {
                c.query_executed.incr();
                c.exec.rows_emitted.add(rows);
                if let Some(entry) = done.entry {
                    self.stmt_stats.record(
                        done.sql,
                        done.elapsed_ns,
                        rows,
                        done.cache_hit,
                        entry.outcome,
                        &entry.report,
                    );
                }
                rows
            }
            Err(e) => {
                c.query_failed.incr();
                let (cause, instant) = match e {
                    RfvError::Cancelled(_) => (Some(&c.query_cancelled), "query.cancelled"),
                    RfvError::Timeout(_) => (Some(&c.query_timeout), "query.timeout"),
                    RfvError::ResourceExhausted(_) => (Some(&c.query_oom), "query.oom"),
                    RfvError::Overloaded(_) => (Some(&c.query_rejected), "query.rejected"),
                    _ => (None, "query.failed"),
                };
                if let Some(cause) = cause {
                    cause.incr();
                }
                self.stmt_stats.record_failure(done.sql, done.elapsed_ns);
                rec.instant(instant, "engine", Some(truncate_sql(done.sql)));
                0
            }
        };
        if self
            .slow_ms
            .is_some_and(|ms| done.elapsed_ns >= ms.saturating_mul(1_000_000))
        {
            c.query_slow.incr();
            eprintln!(
                "[rfv] slow query ({}, {rows} rows): {}",
                rfv_obs::fmt_ns(done.elapsed_ns),
                done.sql
            );
            rec.instant("query.slow", "engine", Some(truncate_sql(done.sql)));
        }
        if rec.is_enabled() {
            // The collector's spans sit on its own timeline (0 = its
            // creation); shift them onto the shared process origin.
            let now = event::now_ns();
            let origin = now.saturating_sub(done.collector.elapsed_ns());
            let lane = event::thread_lane();
            for s in done.collector.snapshot() {
                rec.record(event::Event {
                    name: s.name,
                    cat: "engine",
                    ph: EventPh::Complete,
                    ts_ns: origin.saturating_add(s.start_ns),
                    dur_ns: s.elapsed_ns,
                    lane,
                    detail: None,
                });
            }
            rec.complete(
                "query",
                "engine",
                now.saturating_sub(done.elapsed_ns),
                done.elapsed_ns,
                Some(truncate_sql(done.sql)),
            );
        }
        done.traced.then(|| {
            c.query_ns.record(done.collector.elapsed_ns());
            let trace = Arc::new(QueryTrace {
                sql: done.sql.to_string(),
                spans: done.collector.take(),
                total_ns: done.collector.elapsed_ns(),
                rewritten: done.entry.is_some_and(|e| e.from_view),
                rewrite: done.entry.map(|e| Arc::clone(&e.report)),
            });
            *self.last_trace.write() = Some(Arc::clone(&trace));
            trace
        })
    }
}
