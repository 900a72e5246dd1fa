//! Per-layer metrics of a traced run.
//!
//! Everything here is measured from outside the engine: spans around the
//! staged pipeline's calls, counters the engine already publishes, and
//! small experiments that call a layer's public functions directly
//! (`rfv_storage::Table`, `rfv_core::patterns`) or replay one write list
//! against twin engines that differ in a single layer.

use std::time::Instant;

use rfv_core::patterns::{self, PatternVariant};
use rfv_core::{CacheStats, Database, DEFAULT_CACHE_BYTES};
use rfv_plan::{optimize, Binder, PhysicalPlanner};
use rfv_sql::Statement;
use rfv_storage::{Catalog, IndexKind, Table};
use rfv_testkit::{oracle, Rng};
use rfv_types::{DataType, Field, Row, Schema, Value};

use crate::check::{close, fingerprint, float_column};
use crate::gen::{self, Op, OpGen, Write};
use crate::report::Outcome;
use crate::session::{apply_write, Session};
use crate::stats::median;
use crate::trace::{StmtLayers, OP_SELF_METRICS, STRATEGY_METRICS};
use crate::workloads::{self, Ctx};

/// Engine-wide counters at one instant; two of them bracket the loop.
#[derive(Clone, Copy)]
pub struct EngineSnap {
    tasks: u64,
    steals: u64,
    parallel_ops: u64,
    busy_ns: u64,
    cache: CacheStats,
}

impl EngineSnap {
    pub fn take(db: &Database) -> Self {
        let sched = rfv_exec::sched::metrics();
        EngineSnap {
            tasks: sched.tasks.get(),
            steals: sched.steals.get(),
            parallel_ops: sched.parallel_ops.get(),
            busy_ns: rfv_exec::sched::worker_stats()
                .iter()
                .map(|w| w.busy_ns)
                .sum(),
            cache: db.cache_stats(),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics from the session's traced statements and the
/// engine's counters; writes the trace file.
pub fn collect(ctx: &Ctx, s: &Session, out: &mut Outcome) {
    let traced = &s.traced;
    // Median self time of a layer over the statements that called it: a
    // rewritten statement has no physical-planning span, a statement
    // without a join no join span.
    let med = |f: &dyn Fn(&StmtLayers) -> u64| {
        let called: Vec<f64> = traced
            .iter()
            .map(|t| f(&t.layers) as f64)
            .filter(|ns| *ns > 0.0)
            .collect();
        median(&called)
    };
    let sum =
        |f: &dyn Fn(&StmtLayers) -> u64| traced.iter().map(|t| f(&t.layers) as f64).sum::<f64>();
    let stmts = traced.len().max(1) as f64;

    out.set("sql.parse_ns", med(&|l| l.parse));
    out.set("plan.bind_ns", med(&|l| l.bind));
    out.set("plan.optimize_ns", med(&|l| l.optimize));
    out.set("plan.physical_ns", med(&|l| l.physical));
    out.set("core.rewrite_ns", med(&|l| l.rewrite));
    out.set(
        "sql.bytes_per_stmt",
        ratio(s.sql_bytes as f64, s.read_ms.len() as f64),
    );

    out.set(
        "core.rewrite.rewritten_ratio",
        ratio(s.tally.rewritten as f64, s.tally.statements as f64),
    );
    for (name, count) in STRATEGY_METRICS.iter().zip(s.tally.strategy) {
        out.set(name, count as f64);
    }
    out.set(
        "core.rewrite.minoa_terms_max",
        s.tally.minoa_terms_max as f64,
    );
    out.set(
        "core.patterns.derive_vs_native_ratio",
        ratio(median(&s.derived_ns), median(&s.native_ns)),
    );

    out.set("exec.total_ns", med(&|l| l.exec_total));
    for (i, name) in OP_SELF_METRICS.iter().enumerate() {
        out.set(name, med(&|l| l.op_self[i]));
    }
    for (i, name) in [
        (0, "exec.scan.ns_per_row"),
        (3, "exec.sort.ns_per_row"),
        (4, "exec.aggregate.ns_per_row"),
        (5, "exec.join.ns_per_row"),
        (7, "exec.window.ns_per_row"),
    ] {
        out.set(name, ratio(sum(&|l| l.op_self[i]), sum(&|l| l.op_rows[i])));
    }
    out.set("exec.rows_scanned", sum(&|l| l.rows_scanned) / stmts);
    out.set("exec.rows_emitted", sum(&|l| l.rows_emitted) / stmts);
    out.set(
        "exec.rows_scanned_per_row_emitted",
        ratio(sum(&|l| l.rows_scanned), sum(&|l| l.rows_emitted)),
    );
    out.set("exec.window.sorts_per_stmt", sum(&|l| l.sort_nodes) / stmts);
    // The operator self times must account for the execute call.
    let op_sum = sum(&|l| l.op_self.iter().sum());
    let exec_sum = sum(&|l| l.exec_total);
    out.check(
        traced.is_empty() || (ratio(op_sum, exec_sum) - 1.0).abs() <= 0.05,
        "operator self times do not sum to exec.total_ns within 5 %",
    );

    if let (Some(before), Some(after)) = (s.before, s.after) {
        // Plans run during the loop: every read, and every staged re-issue
        // (twice where views-off ran too — none of those go parallel).
        let plans = (s.read_ms.len() + traced.len()).max(1) as f64;
        out.set(
            "exec.sched.tasks",
            (after.tasks - before.tasks) as f64 / plans,
        );
        out.set(
            "exec.sched.steals",
            (after.steals - before.steals) as f64 / plans,
        );
        out.set(
            "exec.sched.parallel_ops",
            (after.parallel_ops - before.parallel_ops) as f64 / plans,
        );
        out.set(
            "exec.sched.busy_ratio",
            ratio(
                (after.busy_ns - before.busy_ns) as f64,
                s.loop_elapsed_s * 1e9 * ctx.threads as f64,
            ),
        );
        let (b, a) = (before.cache, after.cache);
        out.set(
            "core.cache.plan_hit_ratio",
            ratio(
                (a.plan_hits - b.plan_hits) as f64,
                (a.plan_hits + a.plan_misses - b.plan_hits - b.plan_misses) as f64,
            ),
        );
        out.set(
            "core.cache.result_hit_ratio",
            ratio(
                (a.hits - b.hits) as f64,
                (a.hits + a.misses - b.hits - b.misses) as f64,
            ),
        );
        out.set("core.cache.evictions", (a.evictions - b.evictions) as f64);
        out.set("core.cache.resident_bytes", a.resident_bytes as f64);
    }
    out.set("core.cache.hit_stmt_ns", median(&s.hit_ns));
    out.set("core.cache.miss_stmt_ns", median(&s.miss_ns));

    // Statements the result cache served have no layers to add up.
    let missed: Vec<_> = traced.iter().filter(|t| !t.hit).collect();
    out.set(
        "core.engine.overhead_ns",
        median(
            &missed
                .iter()
                .map(|t| t.execute_ns as f64 - t.layers.layer_sum() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "core.engine.layer_sum_ratio",
        median(
            &missed
                .iter()
                .map(|t| ratio(t.layers.layer_sum() as f64, t.execute_ns as f64))
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "obs.trace_overhead_ratio",
        ratio(
            missed.iter().map(|t| t.layers.total as f64).sum(),
            missed.iter().map(|t| t.execute_ns as f64).sum(),
        ),
    );
    out.set("driver.traced_stmts", traced.len() as f64);

    let counters = s.db.metrics();
    out.set(
        "core.governor.rejected",
        counters.counter_value("query.rejected") as f64,
    );
    out.set(
        "core.governor.timeouts",
        counters.counter_value("query.timeout") as f64,
    );
    out.set(
        "core.governor.cancelled",
        counters.counter_value("query.cancelled") as f64,
    );
    out.set(
        "core.maintenance.recomputed_per_row",
        ratio(
            counters.counter_value("maintenance.batch_recomputed") as f64,
            counters.counter_value("maintenance.batch_rows") as f64,
        ),
    );
    out.set(
        "core.maintenance.coalesced",
        counters.counter_value("maintenance.batch_coalesced") as f64,
    );
    out.set(
        "core.maintenance.batches",
        counters.counter_value("maintenance.batch") as f64,
    );

    let path = ctx
        .scratch
        .parent()
        .unwrap_or(&ctx.scratch)
        .join(format!("trace-{}-{}.json", ctx.workload, ctx.seed));
    match s.tracer.write_chrome(&path) {
        Ok(events) => out.notes.push(format!(
            "trace: {events} spans of {} in {} (validated)",
            s.tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.check(false, &format!("trace file rejected: {e}")),
    }
}

/// Time `rfv_storage::Table`'s entry points on (at most 20 000 of) the
/// workload's own rows: the storage layer with no engine above it.
pub fn storage_probe(out: &mut Outcome, mut rows: Vec<Row>) {
    rows.truncate(20_000);
    let Some(first) = rows.first() else { return };
    let schema = || {
        Schema::new(
            first
                .values()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    Field::not_null(format!("c{i}"), v.data_type().unwrap_or(DataType::Float))
                })
                .collect(),
        )
    };
    let fresh = || {
        let mut t = Table::new("probe", schema());
        t.create_index(0, IndexKind::Unique).map(|()| t)
    };
    let n = rows.len() as f64;
    let timed = || -> rfv_types::Result<[f64; 4]> {
        let mut one_by_one = fresh()?;
        let batch = rows.clone();
        let t0 = Instant::now();
        for r in batch {
            one_by_one.insert(r)?;
        }
        let insert = t0.elapsed().as_nanos() as f64 / n;

        let mut bulk = fresh()?;
        let batch = rows.clone();
        let t0 = Instant::now();
        bulk.insert_many(batch)?;
        let insert_many = t0.elapsed().as_nanos() as f64 / n;

        let scans: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let keys: i64 = bulk
                    .scan()
                    .filter_map(|(_, r)| r.get(0).as_int().ok().flatten())
                    .sum();
                std::hint::black_box(keys);
                t0.elapsed().as_nanos() as f64 / n
            })
            .collect();

        let mut rng = Rng::new(rows.len() as u64);
        let keys: Vec<Value> = (0..2_000)
            .map(|_| rows[rng.usize_in(0, rows.len() - 1)].get(0).clone())
            .collect();
        let t0 = Instant::now();
        for k in &keys {
            std::hint::black_box(bulk.index_lookup(0, k)?);
        }
        let lookup = t0.elapsed().as_nanos() as f64 / keys.len() as f64;
        Ok([insert, insert_many, median(&scans), lookup])
    };
    match timed() {
        Ok([insert, insert_many, scan, lookup]) => {
            out.set("storage.table.insert_ns_per_row", insert);
            out.set("storage.table.insert_many_ns_per_row", insert_many);
            out.set("storage.table.scan_ns_per_row", scan);
            out.set("storage.table.index_lookup_ns", lookup);
        }
        Err(e) => out.check(false, &format!("storage probe failed: {e}")),
    }
}

/// Statements the scheduler experiment runs at each thread count.
const SCHED_STMTS: usize = 20;

/// `exec.sched.serial_over_parallel`: median latency of one statement
/// list at one engine thread over the same list at `T`, both caches off
/// so the second pass executes too. Below 1, parallel execution loses.
pub fn sched_ratio(ctx: &Ctx, db: &Database, out: &mut Outcome) {
    // A stream of its own, so no statement was seen (or cached) before.
    let Some(mut gen) = gen::stream(ctx.workload, ctx.seed ^ 1) else {
        return;
    };
    let mut stmts = Vec::with_capacity(SCHED_STMTS);
    while stmts.len() < SCHED_STMTS {
        if let Op::Read { sql, .. } = gen.next_op() {
            stmts.push(sql);
        }
    }
    let restore = db.threads();
    db.set_result_cache(0);
    let p50_at = |threads: usize| {
        db.set_threads(threads);
        let ms: Vec<f64> = stmts
            .iter()
            .filter_map(|sql| {
                let t0 = Instant::now();
                db.execute(sql).ok()?;
                Some(t0.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        (ms.len() == stmts.len()).then(|| median(&ms))
    };
    let parallel = p50_at(ctx.threads);
    let serial = p50_at(1);
    db.set_threads(restore);
    db.set_result_cache(DEFAULT_CACHE_BYTES);
    match (serial, parallel) {
        (Some(serial), Some(parallel)) => {
            out.set("exec.sched.serial_over_parallel", ratio(serial, parallel));
        }
        _ => out.check(false, "a scheduler-experiment statement failed"),
    }
}

/// Sequence length of the Table 1 / Table 2 cells.
const CELL_ROWS: usize = 600;
/// Executions per cell; the median is reported.
const CELL_RUNS: usize = 3;

/// The paper's Table 1 (native operator vs. self join with and without a
/// position index) and Table 2 (MaxOA / MinOA × disjunctive / union /
/// hash-union) cells: a (3,1) SUM from raw data or from a complete (2,1)
/// view at n = 600, timed around each plan's `execute()`.
pub fn pattern_cells(ctx: &Ctx, out: &mut Outcome) {
    let vals = gen::amounts(&mut Rng::new(ctx.seed ^ 0xce11), CELL_ROWS);
    let n = CELL_ROWS as i64;
    let build = || -> rfv_types::Result<Catalog> {
        let catalog = Catalog::new();
        let t = catalog.create_table(
            "seq",
            Schema::new(vec![
                Field::not_null("pos", DataType::Int),
                Field::new("val", DataType::Float),
            ]),
        )?;
        {
            let mut g = t.write();
            for (i, v) in vals.iter().enumerate() {
                g.insert(rfv_types::row![i as i64 + 1, *v])?;
            }
            g.create_index(0, IndexKind::Unique)?;
        }
        patterns::materialize_view_table(&catalog, "seq", "mv", 2, 1)?;
        Ok(catalog)
    };
    let want = oracle::brute_sum(&vals, 3, 1);
    let cells = || -> rfv_types::Result<Vec<(&'static str, f64, bool)>> {
        let catalog = build()?;
        let native = {
            let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
                       AND 1 FOLLOWING) AS s FROM seq";
            let Statement::Query(q) = rfv_sql::parse_statement(sql)? else {
                unreachable!("a SELECT parses to a query")
            };
            let logical = optimize(Binder::new(&catalog).bind_query(&q)?);
            PhysicalPlanner::new(&catalog).plan(&logical)?
        };
        let view = |max: bool, variant| {
            let f = if max {
                patterns::maxoa_pattern
            } else {
                patterns::minoa_pattern
            };
            f(&catalog, "mv", 2, 1, 3, 1, n, variant)
        };
        let plans = [
            ("core.patterns.native_ms", native),
            (
                "core.patterns.selfjoin_ix_ms",
                patterns::self_join_window(&catalog, "seq", 3, 1, true)?,
            ),
            (
                "core.patterns.selfjoin_noix_ms",
                patterns::self_join_window(&catalog, "seq", 3, 1, false)?,
            ),
            (
                "core.patterns.maxoa_dis_ms",
                view(true, PatternVariant::Disjunctive)?,
            ),
            (
                "core.patterns.maxoa_union_ms",
                view(true, PatternVariant::UnionSimple)?,
            ),
            (
                "core.patterns.maxoa_hash_ms",
                view(true, PatternVariant::UnionHash)?,
            ),
            (
                "core.patterns.minoa_dis_ms",
                view(false, PatternVariant::Disjunctive)?,
            ),
            (
                "core.patterns.minoa_union_ms",
                view(false, PatternVariant::UnionSimple)?,
            ),
            (
                "core.patterns.minoa_hash_ms",
                view(false, PatternVariant::UnionHash)?,
            ),
        ];
        let mut cells = Vec::with_capacity(plans.len());
        for (name, plan) in plans {
            let mut ms = Vec::with_capacity(CELL_RUNS);
            let mut ok = true;
            for _ in 0..CELL_RUNS {
                let t0 = Instant::now();
                let mut rows = plan.execute()?;
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                rows.sort_by_key(|r| r.get(0).as_int().ok().flatten());
                ok &= float_column(&rows, rows.first().map_or(1, |r| r.len() - 1))
                    .is_some_and(|v| close(&v, &want, &vals));
            }
            cells.push((name, median(&ms), ok));
        }
        Ok(cells)
    };
    match cells() {
        Ok(cells) => {
            for (name, ms, ok) in cells {
                out.set(name, ms);
                out.check(ok, &format!("{name}: result differs from brute force"));
            }
        }
        Err(e) => out.check(false, &format!("pattern cells failed: {e}")),
    }
}

/// Writes of the twin experiment.
const TWIN_WRITES: usize = 60;

/// Separate the write path's layers from outside: the same write list
/// against an in-memory engine without views, one with views, and (for
/// `ingest_maintain`) a durable one with views. The differences of the
/// per-write medians are what maintenance and the WAL cost; reopening the
/// durable twin replays its whole WAL through the live maintenance code.
pub fn ingest_twins(
    ctx: &Ctx,
    out: &mut Outcome,
    vals: &[f64],
    maintain: bool,
) -> Result<(), String> {
    let mut gen: Box<dyn OpGen> = if maintain {
        Box::new(gen::MaintainGen::new(ctx.seed))
    } else {
        Box::new(gen::StormWriteGen::new(ctx.seed))
    };
    let mut writes: Vec<Write> = Vec::with_capacity(TWIN_WRITES);
    while writes.len() < TWIN_WRITES {
        if let Op::Write(w) = gen.next_op() {
            writes.push(w);
        }
    }
    let threads = if maintain { ctx.threads } else { 1 };
    let script = |views: bool| {
        if maintain {
            workloads::maintain_script(vals, views)
        } else {
            workloads::storm_script(vals, views)
        }
    };
    let replay = |db: &Database| -> Result<f64, String> {
        let mut ns = Vec::with_capacity(writes.len());
        for w in &writes {
            let t0 = Instant::now();
            apply_write(db, w)?;
            ns.push(t0.elapsed().as_nanos() as f64);
        }
        Ok(median(&ns))
    };
    let memory = |views: bool| -> Result<(Database, f64), String> {
        let db = Database::new();
        db.set_threads(threads);
        for sql in script(views) {
            db.execute(&sql).map_err(|e| e.to_string())?;
        }
        let ns = replay(&db)?;
        Ok((db, ns))
    };
    let (_, bare_ns) = memory(false)?;
    let (with_views, views_ns) = memory(true)?;
    out.set("core.maintenance.ns_per_write", views_ns - bare_ns);
    if !maintain {
        return Ok(());
    }

    let dir = ctx.scratch.join("twin");
    let durable = workloads::durable_db(&dir, threads, &script(true))?;
    let durable_ns = replay(&durable)?;
    out.set("storage.wal.ns_per_write", durable_ns - views_ns);
    let state = |db: &Database| -> Result<u64, String> {
        db.execute("SELECT pos, val FROM mv_wide ORDER BY pos")
            .map(|r| fingerprint(r.rows()))
            .map_err(|e| e.to_string())
    };
    let live = state(&durable)?;
    out.check(
        live == state(&with_views)?,
        "the durable twin's views differ from the in-memory twin's",
    );
    let logged = durable.persist_status().map_or(0, |p| p.wal_records);
    drop(durable);
    let t0 = Instant::now();
    let reopened = Database::open(&dir).map_err(|e| format!("twin recovery failed: {e}"))?;
    let recovered = state(&reopened)?;
    let open_s = t0.elapsed().as_secs_f64();
    let replayed = reopened.persist_status().map_or(0, |p| p.replayed);
    out.check(
        recovered == live,
        "the replayed twin differs from its live state",
    );
    out.check(
        replayed == logged,
        "the twin's replay skipped or repeated WAL records",
    );
    out.set("core.durability.replayed", replayed as f64);
    out.set(
        "core.durability.replay_records_per_s",
        ratio(replayed as f64, open_s),
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
