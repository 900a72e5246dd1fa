//! Reader/maintenance race storm.
//!
//! One writer thread applies a stream of maintenance batches to a viewed
//! sequence table while several reader threads hammer the SQL surface
//! with window, aggregate, and sort queries — morsel splits of scan,
//! filter and projection forced on (tiny cost-gate threshold) so the
//! process-wide helper budget is contended by several front-end threads.
//!
//! The storm must finish (no self-deadlock, no lock-order inversion
//! between the catalog, the view registry, and the scheduler), no query
//! or batch may fail, and afterwards:
//!
//! * every metrics counter invariant still holds (`query.planned`
//!   partitions into rewrite outcomes, executed == issued, batch totals
//!   match what the writer applied);
//! * every view body equals a from-scratch rematerialization of the
//!   final base table — the storm cannot corrupt view state.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use rfv_core::{BatchOp, Database, MaintBatch};
use rfv_exec::sched;

const N_ROWS: usize = 64;
const READERS: usize = 4;
const QUERIES_PER_READER: usize = 24;
const BATCHES: usize = 24;
const OPS_PER_BATCH: usize = 6;

fn knob_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

struct KnobReset;

impl Drop for KnobReset {
    fn drop(&mut self) {
        sched::set_threads(0);
        sched::set_parallel_threshold(usize::MAX);
    }
}

fn create_views(db: &Database) {
    for sql in [
        "CREATE MATERIALIZED VIEW mv_sum AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM seq",
        "CREATE MATERIALIZED VIEW mv_cum AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS s FROM seq",
        "CREATE MATERIALIZED VIEW mv_max AS SELECT pos, MAX(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM seq",
    ] {
        db.execute(sql).unwrap();
    }
}

fn db_with(vals: &[f64]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    let tuples: Vec<String> = vals
        .iter()
        .enumerate()
        .map(|(i, v)| format!("({}, {v:?})", i + 1))
        .collect();
    db.execute(&format!("INSERT INTO seq VALUES {}", tuples.join(", ")))
        .unwrap();
    create_views(&db);
    db
}

fn view_body(db: &Database, view: &str) -> Vec<(i64, Option<f64>)> {
    db.execute(&format!("SELECT pos, val FROM {view} ORDER BY pos"))
        .unwrap_or_else(|e| panic!("reading {view} failed: {e}"))
        .rows()
        .iter()
        .map(|r| {
            (
                r.get(0).as_int().unwrap().unwrap(),
                r.get(1).as_f64().unwrap(),
            )
        })
        .collect()
}

/// The deterministic update stream: batch `b`, op `j` updates position
/// `(b·OPS + j) mod N + 1`. Applied by one writer thread in order, so the
/// final base state is independent of reader interleaving.
fn batch(b: usize) -> MaintBatch {
    let mut out = MaintBatch::new();
    for j in 0..OPS_PER_BATCH {
        let k = ((b * OPS_PER_BATCH + j) % N_ROWS) as i64 + 1;
        out.push(BatchOp::Update {
            k,
            val: (b * 100 + j) as f64,
        });
    }
    out
}

#[test]
fn reader_storm_races_batched_maintenance() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    // Force every scan, filter and projection to split, with more
    // front-end threads than helpers so the budget is contended.
    sched::set_parallel_threshold(4);
    sched::set_threads(4);

    let vals: Vec<f64> = (0..N_ROWS).map(|i| (i % 17) as f64).collect();
    let db = db_with(&vals);

    // The cumulative-sum mirror's row count is fixed for the storm's
    // update-only op stream; measure it once before racing.
    let mv_cum_rows = db
        .execute("SELECT pos, val FROM mv_cum ORDER BY pos")
        .unwrap()
        .rows()
        .len();

    let planned_before = db.metrics().counter_value("query.planned");
    let executed_before = db.metrics().counter_value("query.executed");
    let batch_before = db.metrics().counter_value("maintenance.batch");
    let batch_rows_before = db.metrics().counter_value("maintenance.batch_rows");

    std::thread::scope(|s| {
        let writer_db = &db;
        s.spawn(move || {
            for b in 0..BATCHES {
                writer_db
                    .apply_batch("seq", &batch(b))
                    .unwrap_or_else(|e| panic!("batch {b} failed mid-storm: {e}"));
            }
        });
        for reader in 0..READERS {
            let reader_db = &db;
            s.spawn(move || {
                for q in 0..QUERIES_PER_READER {
                    // A mix of shapes: the split operators (scan, filter,
                    // project) under sort, aggregate and window, plus the
                    // view-rewrite path (mv_sum answers the first shape).
                    let sql = match q % 4 {
                        0 => "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS \
                              BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM seq"
                            .to_string(),
                        1 => format!(
                            "SELECT pos, val FROM seq WHERE val > {} ORDER BY val DESC, pos",
                            reader
                        ),
                        2 => "SELECT COUNT(*) AS n, SUM(val) AS s FROM seq".to_string(),
                        _ => "SELECT pos, val FROM mv_cum ORDER BY pos".to_string(),
                    };
                    let result = reader_db
                        .execute(&sql)
                        .unwrap_or_else(|e| panic!("reader {reader} query {q} failed: {e}"));
                    // Scans are not snapshot-isolated, but every row
                    // *count* is stable under the update-only storm.
                    let got = result.rows().len();
                    let expect = match q % 4 {
                        0 => Some(N_ROWS),
                        2 => Some(1),
                        3 => Some(mv_cum_rows),
                        _ => None, // filter output varies with the data
                    };
                    if let Some(expect) = expect {
                        assert_eq!(
                            got, expect,
                            "reader {reader} query {q}: row count drifted mid-storm"
                        );
                    } else {
                        assert!(got <= N_ROWS, "reader {reader} query {q}: {got} rows");
                    }
                    // A rewritten read is the window node over the base
                    // scan, whatever the writer does to the view meanwhile:
                    // every position once, in order.
                    if q % 4 == 0 {
                        let positions: Vec<i64> = (result.rows().iter())
                            .map(|r| r.get(0).as_int().unwrap().unwrap())
                            .collect();
                        assert_eq!(
                            positions,
                            (1..=got as i64).collect::<Vec<_>>(),
                            "reader {reader} query {q}: a gap or a repeat in a rewritten read"
                        );
                    }
                }
            });
        }
    });

    // Counter invariants after the storm.
    let planned = db.metrics().counter_value("query.planned");
    let executed = db.metrics().counter_value("query.executed");
    assert_eq!(
        executed - executed_before,
        (READERS * QUERIES_PER_READER) as u64,
        "every reader query is counted exactly once"
    );
    assert_eq!(
        planned - planned_before,
        (READERS * QUERIES_PER_READER) as u64,
        "every reader query is planned exactly once"
    );
    let snapshot = db.metrics().counters_snapshot();
    let outcome_sum = snapshot.get("rewrite.rewritten").copied().unwrap_or(0)
        + snapshot.get("rewrite.fallback").copied().unwrap_or(0)
        + snapshot.get("rewrite.disabled").copied().unwrap_or(0);
    assert_eq!(
        planned, outcome_sum,
        "rewrite outcomes partition planned queries even under races"
    );
    assert_eq!(
        db.metrics().counter_value("maintenance.batch") - batch_before,
        BATCHES as u64
    );
    assert_eq!(
        db.metrics().counter_value("maintenance.batch_rows") - batch_rows_before,
        (BATCHES * OPS_PER_BATCH) as u64
    );
    // Splits actually ran (tiny threshold + 4 threads): the process-wide
    // scheduler counters are mirrored into this registry.
    assert!(
        db.metrics().counter_value("sched.tasks") > 0,
        "storm at threshold 4 must have scheduled pool tasks"
    );

    // State invariant: views equal a from-scratch rematerialization of
    // the final base table.
    let final_raw: Vec<f64> = db
        .execute("SELECT pos, val FROM seq ORDER BY pos")
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(1).as_f64().unwrap().unwrap())
        .collect();
    assert_eq!(final_raw.len(), N_ROWS, "storm only updates, never resizes");
    let oracle = db_with(&final_raw);
    for view in ["mv_sum", "mv_cum", "mv_max"] {
        assert_eq!(
            view_body(&db, view),
            view_body(&oracle, view),
            "{view} diverged from rematerialization after the storm"
        );
    }
}

/// Concurrent readers alone, all forcing parallel plans from different
/// front-end threads: their splits must share the helper budget without
/// deadlock and every result must be byte-identical to the serial answer.
#[test]
fn parallel_queries_from_many_threads_match_serial() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    sched::set_parallel_threshold(4);

    let vals: Vec<f64> = (0..N_ROWS).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
    let db = db_with(&vals);
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";

    sched::set_threads(1);
    let serial: Vec<(Option<i64>, Option<f64>)> = db
        .execute(sql)
        .unwrap()
        .rows()
        .iter()
        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_f64().unwrap()))
        .collect();

    sched::set_threads(4);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let db = &db;
            let serial = &serial;
            s.spawn(move || {
                for _ in 0..10 {
                    let got: Vec<(Option<i64>, Option<f64>)> = db
                        .execute(sql)
                        .unwrap()
                        .rows()
                        .iter()
                        .map(|r| (r.get(0).as_int().unwrap(), r.get(1).as_f64().unwrap()))
                        .collect();
                    assert_eq!(&got, serial, "parallel result drifted from serial");
                }
            });
        }
    });
}

/// The recorded storm: the flight recorder stays on while readers and
/// the maintenance writer race, and a dumper thread concurrently
/// exports + validates the trace mid-storm. Recording must never block
/// a query (writers `try_lock` and drop on contention) and never
/// corrupt the buffer: every export — including the mid-storm ones
/// racing active writers — must parse as valid Chrome Trace Event JSON,
/// and the accounting `recorded + dropped == attempts` is monotone.
#[test]
fn recorder_never_blocks_or_corrupts_under_reader_storm() {
    struct RecorderOff;
    impl Drop for RecorderOff {
        fn drop(&mut self) {
            let rec = rfv_obs::recorder();
            rec.set_enabled(false);
            rec.clear();
        }
    }

    let _guard = knob_guard();
    let _reset = KnobReset;
    let _rec_reset = RecorderOff;
    sched::set_parallel_threshold(4);
    sched::set_threads(4);

    let vals: Vec<f64> = (0..N_ROWS).map(|i| (i % 11) as f64).collect();
    let db = db_with(&vals);
    db.clear_recording();
    db.set_recording(true);

    let executed_before = db.metrics().counter_value("query.executed");

    std::thread::scope(|s| {
        let writer_db = &db;
        s.spawn(move || {
            for b in 0..BATCHES {
                writer_db
                    .apply_batch("seq", &batch(b))
                    .unwrap_or_else(|e| panic!("batch {b} failed mid-storm: {e}"));
            }
        });
        for reader in 0..READERS {
            let reader_db = &db;
            s.spawn(move || {
                for q in 0..QUERIES_PER_READER {
                    let sql = match q % 3 {
                        0 => {
                            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS \
                              BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM seq"
                        }
                        1 => "SELECT COUNT(*) AS n, SUM(val) AS s FROM seq",
                        _ => "SELECT pos, val FROM mv_cum ORDER BY pos",
                    };
                    reader_db
                        .execute(sql)
                        .unwrap_or_else(|e| panic!("reader {reader} query {q} failed: {e}"));
                }
            });
        }
        // Mid-storm exports race the writers; each one must validate.
        let dump_db = &db;
        s.spawn(move || {
            for i in 0..6 {
                let text = dump_db.trace_json();
                rfv_obs::validate_chrome_trace(&text)
                    .unwrap_or_else(|e| panic!("mid-storm trace dump {i} invalid: {e}"));
            }
        });
    });

    db.set_recording(false);
    // Every query completed (recording never blocked one into failure).
    assert_eq!(
        db.metrics().counter_value("query.executed") - executed_before,
        (READERS * QUERIES_PER_READER) as u64
    );
    // The recorder saw traffic and its accounting is consistent: the
    // buffer holds at most capacity events, all accepted ones counted.
    let stats = db.recorder_stats();
    assert!(stats.recorded > 0, "storm must have recorded events");
    let summary =
        rfv_obs::validate_chrome_trace(&db.trace_json()).expect("post-storm trace must validate");
    assert!(summary.complete + summary.instant > 0);
    assert!(
        summary.complete + summary.instant <= stats.capacity,
        "ring can never hold more than capacity events"
    );
}

/// The cache-enabled storm: readers hammer cacheable SELECTs while the
/// writer applies maintenance batches, with the result cache explicitly
/// on (so this also runs on the `RFV_CACHE_BYTES=0` CI leg).
///
/// Staleness probe: after *every* batch the writer immediately reads
/// back a position it just changed through the SQL surface. Generation
/// bumps make any cached pre-batch answer unreachable, so read-your-
/// writes must hold even while readers keep re-populating the cache
/// concurrently. Afterwards, the accounting invariant holds: every
/// cacheable SELECT issued during the storm was either a cache hit or a
/// cache miss, exactly once.
#[test]
fn cached_reader_storm_never_serves_stale_results() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    sched::set_parallel_threshold(4);
    sched::set_threads(4);

    let vals: Vec<f64> = (0..N_ROWS).map(|i| (i % 13) as f64).collect();
    let db = db_with(&vals);
    db.set_result_cache(16 << 20);

    let hits_before = db.metrics().counter_value("cache.hits");
    let misses_before = db.metrics().counter_value("cache.misses");

    std::thread::scope(|s| {
        let writer_db = &db;
        s.spawn(move || {
            for b in 0..BATCHES {
                writer_db
                    .apply_batch("seq", &batch(b))
                    .unwrap_or_else(|e| panic!("batch {b} failed mid-storm: {e}"));
                // Read-your-writes through the cache: the batch's last op
                // set position k to this exact value.
                let j = OPS_PER_BATCH - 1;
                let k = ((b * OPS_PER_BATCH + j) % N_ROWS) as i64 + 1;
                let want = (b * 100 + j) as f64;
                let got = writer_db
                    .execute(&format!("SELECT val FROM seq WHERE pos = {k}"))
                    .unwrap_or_else(|e| panic!("writer probe {b} failed: {e}"))
                    .column_f64(0)
                    .unwrap();
                assert_eq!(
                    got,
                    vec![Some(want)],
                    "stale cached read after batch {b}: position {k}"
                );
            }
        });
        for reader in 0..READERS {
            let reader_db = &db;
            s.spawn(move || {
                for q in 0..QUERIES_PER_READER {
                    let sql = match q % 3 {
                        0 => "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS \
                              BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM seq"
                            .to_string(),
                        1 => "SELECT COUNT(*) AS n, SUM(val) AS s FROM seq".to_string(),
                        _ => "SELECT pos, val FROM mv_cum ORDER BY pos".to_string(),
                    };
                    let result = reader_db
                        .execute(&sql)
                        .unwrap_or_else(|e| panic!("reader {reader} query {q} failed: {e}"));
                    let expect = match q % 3 {
                        1 => 1,
                        _ => N_ROWS,
                    };
                    assert_eq!(
                        result.rows().len(),
                        expect,
                        "reader {reader} query {q}: row count drifted mid-storm"
                    );
                }
            });
        }
    });

    // Accounting: every cacheable SELECT in the storm (reader queries
    // plus writer probes) is exactly one hit or one miss.
    let hits = db.metrics().counter_value("cache.hits") - hits_before;
    let misses = db.metrics().counter_value("cache.misses") - misses_before;
    assert_eq!(
        hits + misses,
        (READERS * QUERIES_PER_READER + BATCHES) as u64,
        "hits + misses must equal cacheable SELECTs served"
    );

    // Quiescent check: the cache now answers from the *final* state. A
    // repeat must hit and be row-identical to a fresh rematerialization.
    let final_raw: Vec<f64> = db
        .execute("SELECT pos, val FROM seq ORDER BY pos")
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(1).as_f64().unwrap().unwrap())
        .collect();
    let oracle = db_with(&final_raw);
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING \
               AND 2 FOLLOWING) AS s FROM seq";
    let first = db.execute(sql).unwrap();
    let hits_after_first = db.metrics().counter_value("cache.hits");
    let second = db.execute(sql).unwrap();
    assert_eq!(
        db.metrics().counter_value("cache.hits"),
        hits_after_first + 1,
        "quiescent repeat must be served from the cache"
    );
    assert_eq!(first.rows(), second.rows(), "cached repeat differs");
    assert_eq!(
        first.rows(),
        oracle.execute(sql).unwrap().rows(),
        "cached answer diverged from rematerialized oracle"
    );
}

/// A statement's rewrite report is its own, not the engine-global
/// "last" one: while another thread keeps planning a query the rewriter
/// cannot answer, every `EXPLAIN` of a view-rewritten query must print
/// the decisions of *that* query.
#[test]
fn concurrent_explain_prints_its_own_rewrite_report() {
    const ROUNDS: usize = 300;
    let vals: Vec<f64> = (0..N_ROWS).map(|i| (i % 13) as f64).collect();
    let db = db_with(&vals);
    let rewritten = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
                     AND 1 FOLLOWING) AS s FROM seq";
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for i in 0..ROUNDS {
                // A fresh literal per round keeps this thread planning
                // (and publishing its fallback report) the whole time.
                db.execute(&format!("SELECT pos FROM seq WHERE pos > {i}"))
                    .unwrap();
            }
        });
        start.wait();
        for round in 0..ROUNDS {
            let text = db.explain(rewritten).unwrap();
            assert!(
                text.contains("== physical (view rewrite) ==")
                    && text.contains("answered from materialized views")
                    && text.contains("<- view `mv_")
                    && !text.contains("fallback to native window operator"),
                "round {round}: EXPLAIN printed another statement's rewrite report:\n{text}"
            );
        }
    });
}
