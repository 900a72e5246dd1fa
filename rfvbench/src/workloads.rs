//! The six workloads: set-up, measured loop, checks, metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rfv_core::Database;
use rfv_testkit::{oracle, Rng};
use rfv_types::Row;

use crate::affinity;
use crate::check::{close, fingerprint, float_column};
use crate::gen::{self, Fact, Op, OpGen};
use crate::layers;
use crate::report::Outcome;
use crate::session::{apply_write, Checks, Session, MIN_READS};
use crate::stats;

/// What a run was asked to do.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `T = min(nproc, 4)`.
    pub threads: usize,
    /// Engine threads this workload runs at: `T`, or 1
    /// ([`crate::report::Workload::serial_engine`]).
    pub engine_threads: usize,
    /// Directory of this run's own, inside the build's target directory.
    pub scratch: PathBuf,
}

/// An untraced run sets up at least [`MIN_SETUPS`] times and until
/// [`SETUP_BUDGET_S`] seconds have gone into set-ups, [`MAX_SETUPS`] times
/// at most: `setup_s` is the median, and the last engine is measured on.
/// The cheapest set-up takes 20 ms, which read 24 % apart in two sets of
/// five runs when it was the median of three. A traced run sets up once.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// A traced run spends this share of `--seconds` in the statement loop
/// and the rest on the layer experiments that follow it.
fn loop_seconds(ctx: &Ctx) -> f64 {
    if ctx.trace {
        ctx.seconds * 0.6
    } else {
        ctx.seconds
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload {
        "report_scan" => report_scan(ctx),
        "report_window" => report_window(ctx),
        "view_derive" => view_derive(ctx),
        "short_stmt" => short_stmt(ctx),
        "ingest_maintain" => ingest_maintain(ctx),
        "ingest_storm" => ingest_storm(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// A value of `/proc/self/status` in MB (`VmHWM`, `VmRSS`).
pub fn proc_status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn exec_all(db: &Database, script: &[String]) -> Result<(), String> {
    for sql in script {
        db.execute(sql)
            .map_err(|e| format!("set-up statement failed: {e}: {:.80}", sql))?;
    }
    Ok(())
}

/// Run `build` (schema + load + views + warm-up) several times, each on a
/// fresh engine, and return the last engine with the median time.
fn timed_setups(
    ctx: &Ctx,
    mut build: impl FnMut(usize) -> Result<Database, String>,
) -> Result<(Database, f64), String> {
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let db = build(times.len())?;
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= MIN_SETUPS
            && (times.iter().sum::<f64>() >= SETUP_BUDGET_S || times.len() >= MAX_SETUPS);
        if ctx.trace || enough {
            return Ok((db, stats::median(&times)));
        }
    }
}

/// An in-memory engine at `threads` with `script` applied and `warmup`
/// reads issued.
fn memory_db(threads: usize, script: &[String], warmup: &[String]) -> Result<Database, String> {
    let db = Database::new();
    db.set_threads(threads);
    exec_all(&db, script)?;
    exec_all(&db, warmup)?;
    Ok(db)
}

/// The first reads of a stream seeded apart from the measured one, as
/// warm-up: lazy set-up (worker pool, first plans) finishes before timing.
fn warmup_reads(mut gen: impl OpGen, n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if let Op::Read { sql, .. } = gen.next_op() {
            out.push(sql);
        }
    }
    out
}

const FACT_DDL: &str = "(pos BIGINT PRIMARY KEY, region BIGINT NOT NULL, month BIGINT NOT NULL, \
                        cust BIGINT NOT NULL, amount DOUBLE NOT NULL)";
const SEQ_DDL: &str = "(pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)";

fn load_facts(script: &mut Vec<String>, table: &str, rows: &[Fact]) {
    for chunk in rows.chunks(gen::LOAD_BATCH) {
        script.push(gen::insert_facts_sql(table, chunk));
    }
}

fn load_seq(script: &mut Vec<String>, table: &str, vals: &[f64]) {
    for (i, chunk) in vals.chunks(gen::LOAD_BATCH).enumerate() {
        script.push(gen::insert_seq_sql(
            table,
            (i * gen::LOAD_BATCH) as i64 + 1,
            chunk,
        ));
    }
}

fn window_view(name: &str, agg: &str, frame: &str, table: &str) -> String {
    format!(
        "CREATE MATERIALIZED VIEW {name} AS SELECT pos, {agg}(val) OVER \
         (ORDER BY pos {frame}) AS s FROM {table}"
    )
}

fn rows_of(db: &Database, sql: &str) -> Result<Vec<Row>, String> {
    db.execute(sql)
        .map(|r| r.rows().to_vec())
        .map_err(|e| format!("{e}: {sql}"))
}

/// Every view body over `table` must equal a native-window
/// rematerialisation of the base table (view rewrite off), under the
/// float tolerance: incremental maintenance adds and subtracts where the
/// native operator sums afresh.
fn check_views(s: &mut Session, table: &str, views: &[(&str, &str, &str)]) {
    let base = match rows_of(s.db, &format!("SELECT pos, val FROM {table} ORDER BY pos")) {
        Ok(rows) => rows,
        Err(e) => return s.fail(e),
    };
    let raw = float_column(&base, 1).unwrap_or_default();
    let n = raw.len();
    s.db.set_view_rewrite(false);
    for (view, agg, frame) in views {
        let body = rows_of(
            s.db,
            &format!("SELECT pos, val FROM {view} WHERE pos >= 1 AND pos <= {n} ORDER BY pos"),
        );
        let native = rows_of(
            s.db,
            &format!(
                "SELECT pos, {agg}(val) OVER (ORDER BY pos {frame}) AS s FROM {table} ORDER BY pos"
            ),
        );
        let ok = match (body, native) {
            (Ok(b), Ok(m)) => match (float_column(&b, 1), float_column(&m, 1)) {
                (Some(b), Some(m)) => close(&b, &m, &raw),
                _ => false,
            },
            _ => false,
        };
        s.expect(ok, || {
            format!("view `{view}` differs from a native rematerialisation")
        });
    }
    s.db.set_view_rewrite(true);
}

/// The universal end-to-end metrics of a finished session.
fn end_to_end(ctx: &Ctx, s: &Session, setup_s: f64, out: &mut Outcome) {
    let reads = s.reads();
    let writes = s.writes();
    out.attempted += s.attempted;
    out.failed += s.failed;
    out.set("setup_s", setup_s);
    out.set("stmt_p50_ms", reads.p50);
    out.set("stmt_p95_ms", reads.p95);
    out.set("stmts_per_s", s.reads_per_s());
    out.set("write_p50_ms", writes.p50);
    out.set("driver.read_p95_ms", reads.p95);
    out.set("driver.write_p95_ms", writes.p95);
    out.set("driver.samples", (reads.n + writes.n) as f64);
    let write_s: f64 = s.write_ms.iter().sum::<f64>() / 1e3;
    out.set(
        "driver.ingest_rows_per_s",
        s.rows_written as f64 / write_s.max(1e-9),
    );
    if !stats::supports(reads.n, 95) {
        out.failed += 1;
        out.notes.push(format!(
            "only {} read samples: p95 needs 200 (highest supported: p{})",
            reads.n, reads.top_pct
        ));
    }
    out.notes.push(format!(
        "reads: n={} p50={:.4} ms p{}={:.4} ms; writes: n={} p50={:.4} ms p{}={:.4} ms; \
         measured wall {:.2} s of --seconds {}",
        reads.n,
        reads.p50,
        reads.top_pct,
        reads.top,
        writes.n,
        writes.p50,
        writes.top_pct,
        writes.top,
        s.wall_s,
        ctx.seconds
    ));
    let classes: Vec<String> = s
        .read_classes()
        .iter()
        .map(|(c, n, p50, p95)| format!("{c} n={n} p50={p50:.4} p95={p95:.4}"))
        .collect();
    out.notes
        .push(format!("read classes (ms): {}", classes.join("; ")));
    for e in &s.errors {
        out.notes.push(format!("ERROR {e}"));
    }
}

/// Finish a workload's session: for a traced run the per-layer metrics
/// (spans and counters, the storage probe on the workload's own rows, the
/// scheduler experiment) and the trace file; then the end-to-end metrics.
fn finish(ctx: &Ctx, s: Session, setup_s: f64, probe_rows: impl FnOnce() -> Vec<Row>) -> Outcome {
    let mut out = Outcome::default();
    if ctx.trace {
        layers::collect(ctx, &s, &mut out);
        layers::storage_probe(&mut out, probe_rows());
        layers::sched_ratio(ctx, s.db, &mut out);
    }
    end_to_end(ctx, &s, setup_s, &mut out);
    out
}

// ---------------------------------------------------------------------------
// report_scan
// ---------------------------------------------------------------------------

fn report_scan(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let sales = gen::facts(&mut rng, 1, gen::SCAN_ROWS, gen::SCAN_CUSTS);
    let mut script = vec![
        format!("CREATE TABLE sales {FACT_DDL}"),
        // No key on dim_cust: the planner must hash-join, not probe an index.
        "CREATE TABLE dim_cust (cust BIGINT NOT NULL, segment BIGINT NOT NULL)".to_string(),
    ];
    load_facts(&mut script, "sales", &sales);
    let custs: Vec<i64> = (1..=gen::SCAN_CUSTS).collect();
    for chunk in custs.chunks(gen::LOAD_BATCH) {
        let tuples: Vec<String> = chunk.iter().map(|c| format!("({c}, {})", c % 7)).collect();
        script.push(format!("INSERT INTO dim_cust VALUES {}", tuples.join(",")));
    }
    let warmup = warmup_reads(gen::ScanGen::new(!ctx.seed), 6);
    let rss_before = proc_status_mb("VmRSS");
    let (db, setup_s) = timed_setups(ctx, |_| memory_db(ctx.engine_threads, &script, &warmup))?;
    let rss_per_row = (proc_status_mb("VmRSS") - rss_before) * 1048576.0 / sales.len() as f64;

    let mut s = Session::new(
        &db,
        ctx.trace,
        Checks {
            forbid_result_hits: true,
            ..Checks::default()
        },
    );
    scan_oracle(&mut s, &sales);
    s.run_closed(&mut gen::ScanGen::new(ctx.seed), loop_seconds(ctx));
    let mut out = finish(ctx, s, setup_s, || fact_rows(&sales));
    if ctx.trace {
        out.set("storage.table.rss_bytes_per_row", rss_per_row);
    }
    Ok(out)
}

fn fact_rows(facts: &[Fact]) -> Vec<Row> {
    facts
        .iter()
        .map(|f| rfv_types::row![f.pos, f.region, f.month, f.cust, f.amount])
        .collect()
}

/// Check one statement of each class against values computed here from
/// the generated rows, before any refresh insert changes them.
fn scan_oracle(s: &mut Session, sales: &[Fact]) {
    use std::collections::BTreeMap;
    let amounts: Vec<f64> = sales.iter().map(|f| f.amount).collect();

    let floor = 250.005;
    let mut groups: BTreeMap<(i64, i64), (i64, f64, f64, f64)> = BTreeMap::new();
    for f in sales.iter().filter(|f| f.amount > floor) {
        let g = groups
            .entry((f.region, f.month))
            .or_insert((0, 0.0, f64::MAX, f64::MIN));
        g.0 += 1;
        g.1 += f.amount;
        g.2 = g.2.min(f.amount);
        g.3 = g.3.max(f.amount);
    }
    let sql = format!(
        "SELECT region, month, COUNT(*) AS c, SUM(amount) AS s, MIN(amount) AS lo, \
         MAX(amount) AS hi FROM sales WHERE amount > {floor} GROUP BY region, month \
         ORDER BY region, month"
    );
    s.probe(
        &sql,
        "GROUP BY result differs from the driver's own",
        |rows| {
            let exact = |col: usize, want: Vec<f64>| float_column(rows, col) == Some(want);
            exact(0, groups.keys().map(|k| k.0 as f64).collect())
                && exact(1, groups.keys().map(|k| k.1 as f64).collect())
                && exact(2, groups.values().map(|g| g.0 as f64).collect())
                && exact(4, groups.values().map(|g| g.2).collect())
                && exact(5, groups.values().map(|g| g.3).collect())
                && float_column(rows, 3).is_some_and(|sums| {
                    let want: Vec<f64> = groups.values().map(|g| g.1).collect();
                    close(&sums, &want, &amounts)
                })
        },
    );

    let floor = 950.005;
    let mut top: Vec<&Fact> = sales.iter().filter(|f| f.amount > floor).collect();
    top.sort_by(|a, b| b.amount.total_cmp(&a.amount).then(a.pos.cmp(&b.pos)));
    top.truncate(100);
    let want: Vec<Row> = top
        .iter()
        .map(|f| rfv_types::row![f.pos, f.cust, f.amount])
        .collect();
    let sql = format!(
        "SELECT pos, cust, amount FROM sales WHERE amount > {floor} \
         ORDER BY amount DESC, pos LIMIT 100"
    );
    s.probe(
        &sql,
        "top-100 result differs from the driver's own",
        |rows| fingerprint(rows) == fingerprint(&want),
    );

    let floor = 500.005;
    let mut segments: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
    for f in sales.iter().filter(|f| f.amount > floor) {
        let g = segments.entry(f.cust % 7).or_insert((0, 0.0));
        g.0 += 1;
        g.1 += f.amount;
    }
    let sql = format!(
        "SELECT d.segment, COUNT(*) AS c, SUM(s.amount) AS t FROM sales s \
         JOIN dim_cust d ON s.cust = d.cust WHERE s.amount > {floor} \
         GROUP BY d.segment ORDER BY d.segment"
    );
    s.probe(&sql, "join result differs from the driver's own", |rows| {
        float_column(rows, 0) == Some(segments.keys().map(|k| *k as f64).collect())
            && float_column(rows, 1) == Some(segments.values().map(|g| g.0 as f64).collect())
            && float_column(rows, 2).is_some_and(|sums| {
                let want: Vec<f64> = segments.values().map(|g| g.1).collect();
                close(&sums, &want, &amounts)
            })
    });
}

// ---------------------------------------------------------------------------
// report_window
// ---------------------------------------------------------------------------

fn report_window(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let ticks = gen::facts(&mut rng, 1, gen::WINDOW_ROWS, gen::SCAN_CUSTS);
    let mut script = vec![format!("CREATE TABLE ticks {FACT_DDL}")];
    load_facts(&mut script, "ticks", &ticks);
    let warmup = warmup_reads(gen::WindowGen::new(!ctx.seed), 4);
    let rss_before = proc_status_mb("VmRSS");
    let (db, setup_s) = timed_setups(ctx, |_| memory_db(ctx.engine_threads, &script, &warmup))?;
    let rss_per_row = (proc_status_mb("VmRSS") - rss_before) * 1048576.0 / ticks.len() as f64;

    let mut s = Session::new(
        &db,
        ctx.trace,
        Checks {
            forbid_result_hits: true,
            ..Checks::default()
        },
    );
    // A (3,2) moving sum in position order, against brute force.
    let amounts: Vec<f64> = ticks.iter().map(|f| f.amount).collect();
    s.probe(
        "SELECT pos, SUM(amount) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) \
         AS s FROM ticks ORDER BY pos",
        "moving sum differs from brute force",
        |rows| {
            float_column(rows, 1)
                .is_some_and(|v| close(&v, &oracle::brute_sum(&amounts, 3, 2), &amounts))
        },
    );

    s.run_closed(&mut gen::WindowGen::new(ctx.seed), loop_seconds(ctx));
    let mut out = finish(ctx, s, setup_s, || fact_rows(&ticks));
    if ctx.trace {
        out.set("storage.table.rss_bytes_per_row", rss_per_row);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// view_derive
// ---------------------------------------------------------------------------

fn view_derive(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let seq = gen::amounts(&mut rng, gen::DERIVE_ROWS);
    let seq_c = gen::amounts(&mut rng, gen::DERIVE_ROWS);
    let mut script = vec![
        format!("CREATE TABLE seq {SEQ_DDL}"),
        // A cumulative view on `seq` itself would make the rewriter answer
        // every frame by two-point difference and the pattern path would
        // never run, so the cumulative view lives on a twin table.
        format!("CREATE TABLE seq_c {SEQ_DDL}"),
        "CREATE TABLE pseq (region BIGINT NOT NULL, pos BIGINT NOT NULL, val DOUBLE NOT NULL)"
            .to_string(),
    ];
    load_seq(&mut script, "seq", &seq);
    load_seq(&mut script, "seq_c", &seq_c);
    let mut tuples = Vec::new();
    for region in 0..gen::DERIVE_PARTS {
        for pos in 1..=gen::DERIVE_PART_ROWS {
            tuples.push(format!("({region}, {pos}, {:.2})", gen::amount(&mut rng)));
        }
    }
    script.push(format!("INSERT INTO pseq VALUES {}", tuples.join(",")));
    let sum21 = "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING";
    let max22 = "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING";
    let cumulative = "ROWS UNBOUNDED PRECEDING";
    script.push(window_view("mv_sum", "SUM", sum21, "seq"));
    script.push(window_view("mv_max", "MAX", max22, "seq"));
    script.push(window_view("mv_cum", "SUM", cumulative, "seq_c"));
    script.push(format!(
        "CREATE MATERIALIZED VIEW mv_part AS SELECT region, pos, SUM(val) OVER \
         (PARTITION BY region ORDER BY pos {sum21}) AS s FROM pseq"
    ));
    let warmup = warmup_reads(gen::DeriveGen::new(!ctx.seed), 20);
    let (db, setup_s) = timed_setups(ctx, |_| memory_db(ctx.engine_threads, &script, &warmup))?;

    // Tolerance scale for views-on ≡ views-off: both sequences' inputs.
    let raw: Vec<f64> = seq.iter().chain(&seq_c).copied().collect();
    let mut s = Session::new(
        &db,
        ctx.trace,
        Checks {
            views_off_raw: Some(&raw),
            forbid_result_hits: true,
        },
    );
    // One derived frame against brute force over the generated values.
    s.probe(
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 5 PRECEDING AND 3 FOLLOWING) \
         AS s FROM seq ORDER BY pos",
        "derived (5,3) sum differs from brute force",
        |rows| {
            float_column(rows, 1).is_some_and(|v| close(&v, &oracle::brute_sum(&seq, 5, 3), &seq))
        },
    );

    s.run_closed(&mut gen::DeriveGen::new(ctx.seed), loop_seconds(ctx));
    check_views(
        &mut s,
        "seq",
        &[("mv_sum", "SUM", sum21), ("mv_max", "MAX", max22)],
    );
    let mut out = finish(ctx, s, setup_s, || seq_rows(&seq));
    if ctx.trace {
        layers::pattern_cells(ctx, &mut out);
    }
    Ok(out)
}

fn seq_rows(vals: &[f64]) -> Vec<Row> {
    vals.iter()
        .enumerate()
        .map(|(i, v)| rfv_types::row![i as i64 + 1, *v])
        .collect()
}

// ---------------------------------------------------------------------------
// short_stmt
// ---------------------------------------------------------------------------

fn short_stmt(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let balances: Vec<f64> = (0..gen::SHORT_ROWS)
        .map(|_| gen::amount(&mut rng) * 5.0)
        .collect();
    let tuples: Vec<String> = balances
        .iter()
        .enumerate()
        .map(|(i, b)| format!("({}, {}, {b:.2})", i + 1, i as i64 % gen::SHORT_GROUPS))
        .collect();
    let script = vec![
        "CREATE TABLE acct (id BIGINT PRIMARY KEY, grp BIGINT NOT NULL, bal DOUBLE NOT NULL)"
            .to_string(),
        format!("INSERT INTO acct VALUES {}", tuples.join(",")),
    ];
    let warmup = warmup_reads(gen::ShortGen::new(!ctx.seed), 200);
    let (db, setup_s) = timed_setups(ctx, |_| memory_db(ctx.engine_threads, &script, &warmup))?;

    let mut s = Session::new(&db, ctx.trace, Checks::default());
    // A point lookup must return the generated row.
    let want = vec![rfv_types::row![
        617i64,
        616 % gen::SHORT_GROUPS,
        (balances[616] * 100.0).round() / 100.0
    ]];
    s.probe(
        "SELECT id, grp, bal FROM acct WHERE id = 617",
        "point lookup differs from the generated row",
        |rows| fingerprint(rows) == fingerprint(&want),
    );

    let cache_before = db.cache_stats();
    s.run_closed(&mut gen::ShortGen::new(ctx.seed), loop_seconds(ctx));
    let cache_after = db.cache_stats();
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    let hit_ratio = (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64;
    let mut out = finish(ctx, s, setup_s, || {
        balances
            .iter()
            .enumerate()
            .map(|(i, b)| rfv_types::row![i as i64 + 1, i as i64 % gen::SHORT_GROUPS, *b])
            .collect()
    });
    out.notes
        .push(format!("result-cache hit ratio {hit_ratio:.4}"));
    Ok(out)
}

// ---------------------------------------------------------------------------
// ingest_maintain
// ---------------------------------------------------------------------------

/// The four maintained views over `seq`: name, aggregate, frame.
const MAINTAIN_VIEWS: [(&str, &str, &str); 4] = [
    (
        "mv_narrow",
        "SUM",
        "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING",
    ),
    ("mv_wide", "SUM", "ROWS BETWEEN 8 PRECEDING AND 4 FOLLOWING"),
    ("mv_cum", "SUM", "ROWS UNBOUNDED PRECEDING"),
    ("mv_max", "MAX", "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING"),
];

/// Writes applied after the compaction that follows the loop, so that
/// recovery replays a WAL tail of fixed length on top of a snapshot.
const RECOVERY_TAIL_WRITES: usize = 60;

pub fn maintain_script(vals: &[f64], views: bool) -> Vec<String> {
    let mut script = vec![format!("CREATE TABLE seq {SEQ_DDL}")];
    load_seq(&mut script, "seq", vals);
    if views {
        for (name, agg, frame) in MAINTAIN_VIEWS {
            script.push(window_view(name, agg, frame, "seq"));
        }
    }
    script
}

/// A durable engine in a fresh directory with `script` applied.
pub fn durable_db(dir: &Path, threads: usize, script: &[String]) -> Result<Database, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let db = Database::open(dir).map_err(|e| e.to_string())?;
    db.set_threads(threads);
    exec_all(&db, script)?;
    Ok(db)
}

/// Fingerprints of the base table and every view body.
fn maintain_fingerprints(db: &Database) -> Result<Vec<u64>, String> {
    std::iter::once("seq")
        .chain(MAINTAIN_VIEWS.iter().map(|v| v.0))
        .map(|t| {
            rows_of(db, &format!("SELECT pos, val FROM {t} ORDER BY pos")).map(|r| fingerprint(&r))
        })
        .collect()
}

/// `Database::open` until the first query answers, in seconds.
fn timed_open(dir: &Path) -> Result<(Database, f64), String> {
    let t0 = Instant::now();
    let db = Database::open(dir).map_err(|e| format!("recovery failed: {e}"))?;
    rows_of(&db, "SELECT pos, val FROM seq WHERE pos = 1")?;
    Ok((db, t0.elapsed().as_secs_f64()))
}

fn ingest_maintain(ctx: &Ctx) -> Result<Outcome, String> {
    // The WAL reads this on every append; durable means fsync here.
    std::env::set_var("RFV_FSYNC", "1");
    let mut rng = Rng::new(ctx.seed);
    let vals = gen::amounts(&mut rng, gen::MAINTAIN_ROWS);
    let script = maintain_script(&vals, true);
    let warmup = warmup_reads(gen::MaintainGen::new(!ctx.seed), 4);
    let data = ctx.scratch.join("data");

    // The engine lives in this block: it must be closed before the
    // restarts below reopen its directory.
    let (mut out, live, dir) = {
        let (db, setup_s) = timed_setups(ctx, |round| {
            let db = durable_db(
                &data.join(format!("setup-{round}")),
                ctx.engine_threads,
                &script,
            )?;
            exec_all(&db, &warmup)?;
            Ok(db)
        })?;
        let dir = db.data_dir().ok_or("engine is not durable")?;
        let mut s = Session::new(
            &db,
            ctx.trace,
            Checks {
                forbid_result_hits: true,
                ..Checks::default()
            },
        );
        let wal_before = db.persist_status().ok_or("no persist status")?;
        let mut stream = gen::MaintainGen::new(ctx.seed);
        s.run_closed(&mut stream, loop_seconds(ctx));
        let wal_after = db.persist_status().ok_or("no persist status")?;
        check_views(&mut s, "seq", &MAINTAIN_VIEWS);

        // Compact, then a WAL tail of fixed length: the restart below
        // loads a snapshot and replays exactly these records.
        let t0 = Instant::now();
        let snapshot = db.persist_compact().map_err(|e| e.to_string())?.0;
        let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut tail = 0;
        while tail < RECOVERY_TAIL_WRITES {
            if let Op::Write(w) = stream.next_op() {
                s.attempted += 1;
                if let Err(e) = apply_write(&db, &w) {
                    s.fail(format!("tail write failed: {e}"));
                }
                tail += 1;
            }
        }
        let live = maintain_fingerprints(&db)?;
        let rows = s.rows_written.max(1) as f64;
        let mut out = finish(ctx, s, setup_s, || seq_rows(&vals));
        let bytes = (wal_after.wal_bytes - wal_before.wal_bytes) as f64;
        out.set(
            "storage.wal.records",
            (wal_after.wal_records - wal_before.wal_records) as f64,
        );
        out.set("storage.wal.bytes", bytes);
        out.set(
            "storage.wal.fsyncs",
            (wal_after.wal_fsyncs - wal_before.wal_fsyncs) as f64,
        );
        out.set("storage.wal.bytes_per_row", bytes / rows);
        // A (pos, val) row is two 8-byte values.
        out.set("storage.wal.bytes_per_user_byte", bytes / (rows * 16.0));
        out.set("storage.snapshot.write_ms", snapshot_ms);
        out.set(
            "storage.snapshot.bytes",
            std::fs::metadata(&snapshot).map_or(0.0, |m| m.len() as f64),
        );
        (out, live, dir)
    };

    // Restart on snapshot + WAL tail, then on the snapshot alone.
    let (db, recovery_s) = timed_open(&dir)?;
    let status = db.persist_status().ok_or("no persist status")?;
    out.check(status.snapshot_loaded, "recovery did not load the snapshot");
    out.check(
        status.replayed == RECOVERY_TAIL_WRITES as u64,
        "recovery did not replay exactly the WAL tail",
    );
    out.check(
        maintain_fingerprints(&db)? == live,
        "recovered state (snapshot + replay) differs from the live state",
    );
    db.persist_compact().map_err(|e| e.to_string())?;
    drop(db);
    let (db, snapshot_s) = timed_open(&dir)?;
    let status = db.persist_status().ok_or("no persist status")?;
    out.check(status.replayed == 0, "records replayed after compaction");
    out.check(
        maintain_fingerprints(&db)? == live,
        "recovered state (snapshot alone) differs from the live state",
    );
    drop(db);

    out.set("core.durability.recovery_s", recovery_s);
    out.set("storage.snapshot.recover_ms", snapshot_s * 1e3);
    out.notes.push(format!(
        "durable: RFV_FSYNC=1 (fsync per WAL record); recovery = snapshot + \
         {RECOVERY_TAIL_WRITES} replayed records in {recovery_s:.4} s; snapshot alone {:.2} ms",
        snapshot_s * 1e3
    ));
    if ctx.trace {
        layers::ingest_twins(ctx, &mut out, &vals, true)?;
    }
    let _ = std::fs::remove_dir_all(&data);
    Ok(out)
}

// ---------------------------------------------------------------------------
// ingest_storm
// ---------------------------------------------------------------------------

const STORM_VIEWS: [(&str, &str, &str); 2] = [
    (
        "mv_narrow",
        "SUM",
        "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING",
    ),
    ("mv_cum", "SUM", "ROWS UNBOUNDED PRECEDING"),
];

pub fn storm_script(vals: &[f64], views: bool) -> Vec<String> {
    let mut script = vec![format!("CREATE TABLE seq {SEQ_DDL}")];
    load_seq(&mut script, "seq", vals);
    if views {
        for (name, agg, frame) in STORM_VIEWS {
            script.push(window_view(name, agg, frame, "seq"));
        }
    }
    script
}

fn ingest_storm(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let vals = gen::amounts(&mut rng, gen::STORM_ROWS);
    let script = storm_script(&vals, true);
    let warmup = warmup_reads(gen::StormReadGen::new(!ctx.seed), 4);
    let (db, setup_s) = timed_setups(ctx, |_| memory_db(ctx.engine_threads, &script, &warmup))?;

    let mut s = Session::new(&db, ctx.trace, Checks::default());
    let seconds = loop_seconds(ctx);
    let period = Duration::from_millis(gen::STORM_PERIOD_MS);
    let writer_done = AtomicBool::new(false);
    let mut sampled: Vec<(String, u64)> = Vec::new();
    // Each client on a CPU of its own, when there are two (see `affinity`).
    let cpus = affinity::allowed();
    let (reader_cpu, writer_cpu) = match cpus[..] {
        [first, .., last] => (Some(first), Some(last)),
        _ => (None, None),
    };
    let writer = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let pinned = writer_cpu.is_some_and(|cpu| affinity::pin(&[cpu]));
            let mut gen = gen::StormWriteGen::new(ctx.seed);
            let mut w = StormWriter::default();
            let start = Instant::now();
            let mut due = Duration::ZERO;
            // Open loop: appends are due on a fixed schedule whatever the
            // engine does; latency counts from the due instant, so a stall
            // is charged to every append it delays.
            while due.as_secs_f64() < seconds {
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let Op::Write(op) = gen.next_op() else {
                    unreachable!("the storm writer's stream holds writes only")
                };
                let begun = start.elapsed();
                let done = apply_write(&db, &op);
                let finished = start.elapsed();
                w.attempted += 1;
                match done {
                    Ok(()) => {
                        w.latency_ms.push((finished - due).as_secs_f64() * 1e3);
                        w.late_ms.push((begun - due).as_secs_f64() * 1e3);
                        w.busy_s += (finished - begun).as_secs_f64();
                        w.rows += op.rows();
                    }
                    Err(e) => w.errors.push(e),
                }
                due += period;
            }
            writer_done.store(true, Ordering::SeqCst);
            (w, pinned)
        });
        // Closed loop: the reader's next statement follows its last.
        let pinned = reader_cpu.is_some_and(|cpu| affinity::pin(&[cpu]));
        let mut gen = gen::StormReadGen::new(ctx.seed);
        s.start_clock();
        while !writer_done.load(Ordering::SeqCst) || s.read_ms.len() < MIN_READS {
            let Op::Read { class, sql } = gen.next_op() else {
                unreachable!("the storm reader's stream holds reads only")
            };
            if let Some(r) = s.read(class, &sql) {
                if s.read_ms.len() % 16 == 1 {
                    sampled.push((sql, fingerprint(r.rows())));
                }
            }
        }
        s.stop_clock();
        // The checks and experiments that follow run wherever they like.
        affinity::pin(&cpus);
        let (w, writer_pinned) = writer.join().expect("the writer thread panicked");
        (w, pinned && writer_pinned)
    });
    let (writer, pinned) = writer;
    s.attempted += writer.attempted;
    for e in &writer.errors {
        s.fail(format!("append failed: {e}"));
    }
    s.rows_written = writer.rows;
    let appends = writer.latency_ms.len();
    s.write_ms = writer.latency_ms;

    // A slice read while the writer ran must read the same afterwards
    // (appends land past every slice), and must match brute force.
    for (sql, print) in &sampled {
        let again = rows_of(&db, sql);
        s.expect(again.is_ok_and(|rows| fingerprint(&rows) == *print), || {
            format!("slice read differs once the writer has stopped: {sql}")
        });
    }
    let probe_lo = 1_000usize;
    let slice = &vals[probe_lo..probe_lo + gen::STORM_SLICE as usize];
    s.probe(
        &format!(
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) \
             AS s FROM seq WHERE pos >= {} AND pos < {}",
            probe_lo + 1,
            probe_lo + 1 + slice.len()
        ),
        "slice window differs from brute force",
        |rows| {
            float_column(rows, 1).is_some_and(|v| close(&v, &oracle::brute_sum(slice, 3, 2), slice))
        },
    );
    check_views(&mut s, "seq", &STORM_VIEWS);

    let late = stats::summarize(&writer.late_ms);
    let late_max = writer.late_ms.iter().copied().fold(0.0, f64::max);
    let mut out = finish(ctx, s, setup_s, || seq_rows(&vals));
    out.set("driver.late_p50_ms", late.p50);
    out.set("driver.late_max_ms", late_max);
    // Throughput of an open-loop writer is its schedule; what the engine
    // decides is how busy that schedule keeps it.
    out.set(
        "driver.ingest_rows_per_s",
        writer.rows as f64 / writer.busy_s.max(1e-9),
    );
    out.notes.push(match (pinned, reader_cpu, writer_cpu) {
        (true, Some(r), Some(w)) => format!("clients pinned: reader on cpu {r}, writer on cpu {w}"),
        _ => "clients not pinned: fewer than two CPUs, or the kernel refused".to_string(),
    });
    out.notes.push(format!(
        "writer: {} appends of {} rows, one due every {} ms, busy {:.1} % of the schedule, \
         started late p50 {:.3} ms max {:.3} ms",
        appends,
        gen::STORM_APPEND_ROWS,
        gen::STORM_PERIOD_MS,
        100.0 * writer.busy_s / seconds,
        late.p50,
        late_max
    ));
    if ctx.trace {
        layers::ingest_twins(ctx, &mut out, &vals, false)?;
    }
    Ok(out)
}

#[derive(Default)]
struct StormWriter {
    attempted: u64,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    busy_s: f64,
    rows: u64,
    errors: Vec<String>,
}
