//! Flight recorder and system statistics views (PR 8).
//!
//! * The exported trace is valid Chrome Trace Event JSON (parsed by the
//!   first-party `rfv_obs::json` parser) with per-worker lanes and the
//!   expected rewrite/cache lifecycle events for a demo workload.
//! * `rfv_stat_statements` is queryable through the ordinary SQL path,
//!   has a stable ("golden") shape with volatile timing columns masked,
//!   and agrees with the always-on metrics registry.
//! * Plans over the virtual system tables are never cached: repeated
//!   scans observe fresh telemetry.
//!
//! The recorder is **process-global**, so every test that toggles it
//! serializes on one mutex and restores the disabled state before
//! releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use rfv_core::Database;
use rfv_exec::sched;
use rfv_obs::validate_chrome_trace;

/// Serializes recorder/scheduler-knob tests within this binary.
fn knob_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Restores process-global state however the test exits.
struct RecorderReset;

impl Drop for RecorderReset {
    fn drop(&mut self) {
        let rec = rfv_obs::recorder();
        rec.set_enabled(false);
        rec.clear();
        sched::set_threads(0);
        sched::set_parallel_threshold(usize::MAX);
    }
}

const WINDOW_QUERY: &str = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS \
                            BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq";

fn demo_db(rows: usize) -> Database {
    let db = Database::new();
    // These tests assert cache events and hit counts, so opt into the
    // cache explicitly — they must hold under the RFV_CACHE_BYTES=0 CI leg.
    db.set_result_cache(rfv_core::DEFAULT_CACHE_BYTES);
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    let tuples: Vec<String> = (1..=rows).map(|i| format!("({i}, {}.0)", i * 10)).collect();
    db.execute(&format!("INSERT INTO seq VALUES {}", tuples.join(", ")))
        .unwrap();
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    db.execute(
        "CREATE MATERIALIZED VIEW mv_cum AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS s FROM seq",
    )
    .unwrap();
    db
}

#[test]
fn exported_trace_is_valid_chrome_json_with_worker_lanes_and_lifecycle_events() {
    let _g = knob_guard();
    let _reset = RecorderReset;
    // Force morsel splits on even for tiny inputs, so scheduler task
    // events land on worker lanes.
    sched::set_threads(2);
    sched::set_parallel_threshold(1);
    let db = demo_db(64);
    db.clear_recording();
    db.set_recording(true);
    assert!(db.recording());

    // Rewrite (MinOA from the (1,1) view) + plan-cache + result-cache
    // lifecycle, twice so the second run hits both caches.
    db.execute(WINDOW_QUERY).unwrap();
    db.execute(WINDOW_QUERY).unwrap();
    // A bulk append drives the batched-maintenance path: with two
    // simple views registered, each is patched in place on the calling
    // thread, recording one `maintenance.batch` span.
    db.sequence_append_bulk("seq", &[1.0, 2.0, 3.0, 4.0])
        .unwrap();

    db.set_recording(false);
    let text = db.trace_json();
    let summary = validate_chrome_trace(&text).expect("exported trace must parse and validate");

    assert!(summary.complete > 0 && summary.instant > 0);
    assert!(
        summary.metadata >= 2,
        "process_name + at least one thread_name"
    );
    assert!(
        summary.name_count("query") >= 2,
        "one overall span per query: {:?}",
        summary.names
    );
    assert!(
        summary.name_count("rewrite.decision") >= 1,
        "demo workload must record a rewrite decision: {:?}",
        summary.names
    );
    assert!(
        summary.cat_count("cache") >= 2,
        "plan-/result-cache hit+miss instants: {:?}",
        summary.cats
    );
    assert!(
        summary.name_count("cache.hit") >= 1,
        "second run must hit the result cache: {:?}",
        summary.names
    );
    assert!(
        summary.name_count("maintenance.batch") >= 1,
        "bulk append must record a maintenance batch: {:?}",
        summary.names
    );
    assert!(
        summary.name_count("task") >= 2 && summary.worker_lanes() >= 1,
        "pool tasks on worker lanes (tasks={}, worker lanes={})",
        summary.name_count("task"),
        summary.worker_lanes()
    );

    // export_trace writes the same document.
    let path = std::env::temp_dir().join(format!("rfv_trace_test_{}.json", std::process::id()));
    db.export_trace(&path).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    validate_chrome_trace(&on_disk).expect("exported file must validate");

    let stats = db.recorder_stats();
    assert!(!stats.enabled);
    assert!(stats.recorded > 0);
}

#[test]
fn disabled_recorder_stays_silent_through_the_engine() {
    let _g = knob_guard();
    let _reset = RecorderReset;
    let db = demo_db(8);
    db.set_recording(false);
    db.clear_recording();
    db.execute(WINDOW_QUERY).unwrap();
    let stats = db.recorder_stats();
    assert_eq!(stats.recorded, 0);
    assert_eq!(stats.dropped, 0);
    let summary = validate_chrome_trace(&db.trace_json()).unwrap();
    assert_eq!(summary.complete + summary.instant, 0, "no events recorded");
}

/// Render a `QueryResult` with the volatile nanosecond columns masked,
/// for golden comparison.
fn masked(result: &rfv_core::QueryResult) -> Vec<Vec<String>> {
    let header: Vec<String> = result
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.clone())
        .collect();
    let volatile: Vec<bool> = header.iter().map(|h| h.ends_with("_ns")).collect();
    let mut out = vec![header];
    for row in result.rows() {
        out.push(
            row.values()
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    if volatile[i] {
                        "<ns>".to_string()
                    } else {
                        v.to_string()
                    }
                })
                .collect(),
        );
    }
    out
}

#[test]
fn stat_statements_has_golden_shape_and_matches_the_metrics_registry() {
    let _g = knob_guard();
    let _reset = RecorderReset;
    let db = demo_db(8);
    // Two distinct statements; the plain scan repeats for a cache hit.
    db.execute("SELECT pos, val FROM seq ORDER BY pos").unwrap();
    db.execute("SELECT pos, val FROM seq ORDER BY pos").unwrap();
    db.execute(WINDOW_QUERY).unwrap();

    // Rust-side snapshot agrees with the always-on metrics counters.
    let stats = db.statement_stats();
    let calls: u64 = stats.iter().map(|s| s.calls).sum();
    assert_eq!(calls, db.metrics().counter_value("query.executed"));
    let hits: u64 = stats.iter().map(|s| s.cache_hits).sum();
    assert_eq!(hits, db.metrics().counter_value("cache.hits"));
    let rewrites: u64 = stats.iter().map(|s| s.rewrites).sum();
    assert_eq!(rewrites, db.metrics().counter_value("rewrite.rewritten"));
    for s in &stats {
        assert!(s.min_ns <= s.p50_ns && s.p50_ns <= s.p95_ns && s.p95_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
    }

    // Golden shape through the ordinary SQL path, timing columns masked.
    let result = db.execute("SELECT * FROM rfv_stat_statements").unwrap();
    assert_eq!(
        masked(&result),
        vec![
            vec![
                "query",
                "calls",
                "failures",
                "total_ns",
                "min_ns",
                "max_ns",
                "p50_ns",
                "p95_ns",
                "rows",
                "cache_hits",
                "rewrites",
                "fallbacks",
                "strategies",
            ]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>(),
            vec![
                "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING \
                 AND 1 FOLLOWING) AS s FROM seq",
                "1",
                "0",
                "<ns>",
                "<ns>",
                "<ns>",
                "<ns>",
                "<ns>",
                "8",
                "0",
                "1",
                "0",
                "cumulative_difference:1",
            ]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>(),
            vec![
                "SELECT pos, val FROM seq ORDER BY pos",
                "2",
                "0",
                "<ns>",
                "<ns>",
                "<ns>",
                "<ns>",
                "<ns>",
                "16",
                "1",
                "0",
                "2",
                "",
            ]
            .into_iter()
            .map(String::from)
            .collect::<Vec<_>>(),
        ]
    );

    // The ISSUE's acceptance query: top statements by total time.
    let top = db
        .execute(
            "SELECT query, calls, total_ns FROM rfv_stat_statements \
             ORDER BY total_ns DESC LIMIT 5",
        )
        .unwrap();
    assert!(top.rows().len() >= 2 && top.rows().len() <= 5);
    let totals: Vec<f64> = top
        .rows()
        .iter()
        .map(|r| r.get(2).as_f64().unwrap().unwrap())
        .collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "sorted desc");
}

#[test]
fn system_table_scans_are_never_cached_and_observe_fresh_telemetry() {
    let _g = knob_guard();
    let _reset = RecorderReset;
    let db = demo_db(8);
    db.execute("SELECT pos, val FROM seq ORDER BY pos").unwrap();

    let calls_of = |db: &Database, sql: &str| -> f64 {
        db.execute(sql)
            .unwrap()
            .rows()
            .iter()
            .map(|r| r.get(0).as_f64().unwrap().unwrap())
            .sum()
    };
    let probe = "SELECT calls FROM rfv_stat_statements \
                 WHERE query = 'SELECT pos, val FROM seq ORDER BY pos'";
    let before = db.cache_stats();
    let first = calls_of(&db, probe);
    // Run a recorded query between the two scans; a cached (stale)
    // snapshot would keep reporting the old count.
    db.execute("SELECT pos, val FROM seq ORDER BY pos").unwrap();
    let second = calls_of(&db, probe);
    assert_eq!(first, 1.0);
    assert_eq!(second, 2.0, "second scan must observe fresh telemetry");
    let after = db.cache_stats();
    assert_eq!(
        after.plan_misses,
        before.plan_misses + 2,
        "both virtual-table scans must miss the plan cache (never stored)"
    );
    assert_eq!(
        after.plan_hits,
        before.plan_hits + 1,
        "only the repeated real-table query hits the plan cache"
    );
    assert_eq!(
        after.hits,
        before.hits + 1,
        "only the repeated real-table query hits the result cache"
    );

    // The other system views resolve through plain SQL too.
    let tables = db.execute("SELECT name FROM rfv_stat_tables").unwrap();
    let names: Vec<String> = tables.rows().iter().map(|r| r.get(0).to_string()).collect();
    assert!(names.contains(&"seq".to_string()), "{names:?}");
    assert!(
        !names.iter().any(|n| n.starts_with("rfv_stat_")),
        "system views report real tables, never themselves: {names:?}"
    );
    let views = db
        .execute("SELECT name, base_table, func, window FROM rfv_stat_views ORDER BY name")
        .unwrap();
    assert_eq!(views.rows().len(), 2);
    assert_eq!(views.rows()[0].get(0).to_string(), "mv");
    assert_eq!(views.rows()[1].get(3).to_string(), "cumulative");
    let cache = db.execute("SELECT * FROM rfv_stat_cache").unwrap();
    assert_eq!(cache.rows().len(), 1);
    let workers = db.execute("SELECT * FROM rfv_stat_workers").unwrap();
    // Zero rows before the first split is legal.
    for r in workers.rows() {
        assert!(r.get(1).as_f64().unwrap().unwrap() >= 0.0);
    }

    // A real table shadows a virtual name.
    db.execute("CREATE TABLE rfv_stat_cache (x BIGINT)")
        .unwrap();
    let shadowed = db.execute("SELECT * FROM rfv_stat_cache").unwrap();
    assert_eq!(shadowed.rows().len(), 0, "real table shadows the virtual");
    db.execute("DROP TABLE rfv_stat_cache").unwrap();
    assert_eq!(
        db.execute("SELECT * FROM rfv_stat_cache")
            .unwrap()
            .rows()
            .len(),
        1,
        "dropping the shadow restores the virtual table"
    );

    assert_eq!(
        db.system_table_names(),
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
}

/// CI hook: when `RFV_VALIDATE_TRACE` names a file, round-trip it
/// through the first-party Chrome Trace Event parser. The CI workflow
/// records a trace via the shell (`RFV_TRACE_FILE`), then runs exactly
/// this test against the dump. Without the env var it is a no-op, so
/// local `cargo test` runs stay self-contained.
#[test]
fn validate_trace_file_from_env() {
    let Ok(path) = std::env::var("RFV_VALIDATE_TRACE") else {
        return;
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read trace file {path}: {e}"));
    let summary = rfv_obs::validate_chrome_trace(&text)
        .unwrap_or_else(|e| panic!("trace file {path} is not valid Chrome JSON: {e}"));
    assert!(
        summary.complete + summary.instant > 0,
        "trace file {path} holds no events"
    );
    assert!(
        summary.names.keys().any(|n| n == "query"),
        "trace file {path} has no query span: {:?}",
        summary.names
    );
    println!(
        "validated {path}: {} events ({} spans, {} instants, lanes {:?})",
        summary.events, summary.complete, summary.instant, summary.lanes
    );
}
