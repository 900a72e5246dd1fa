//! Differential cancellation fuzzing of the governed query path.
//!
//! The governance contract is that a statement aborted at *any* operator
//! checkpoint — first morsel, deep inside a sort, mid window fold —
//! unwinds with a clean [`RfvError::Cancelled`] and leaves the engine
//! exactly as if the statement had never run: tables untouched, no
//! partial result-cache entry, views still consistent, and an immediate
//! re-run byte-identical to a fresh oracle database. Each case derives a
//! deterministic [`CancelSchedule`] from the testkit seed, arms the
//! process-global injector in `rfv_types::governance`, runs one random
//! query, and then proves the recovery property at threads 1 and 8 (the
//! 8-thread leg doubles as a deadlock check: a cancelled morsel must not
//! strand the split that forked it).
//!
//! The injector, thread count, and parallel threshold are process-wide
//! knobs, so every test serializes on [`knob_guard`] and restores all
//! three on drop.
//!
//! Replay a failure with `RFV_SEED=0x… cargo test -q --test fuzz_cancel`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use rfv_core::Database;
use rfv_exec::sched;
use rfv_testkit::{check_config, gen, CancelSchedule, Rng};
use rfv_types::{governance, RfvError, Value};

/// Thread counts every case must recover at (8 also probes for deadlock).
const THREAD_MATRIX: [usize; 2] = [1, 8];

/// Forced-down cost gate so fuzz-sized inputs actually parallelize.
const TINY_THRESHOLD: usize = 4;

/// Upper bound on the injected checkpoint countdown. Fuzz inputs reach a
/// few dozen governance checks per query, so log-uniform draws below this
/// land both mid-query (cancellation observed) and past the end (the
/// statement completes — also a legal outcome the test must accept).
const MAX_CHECKPOINTS: u64 = 64;

fn knob_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Reset the global knobs on drop, so a panicking case does not leak an
/// armed injector or a tiny threshold into the next test.
struct KnobReset;

impl Drop for KnobReset {
    fn drop(&mut self) {
        governance::reset_injection();
        governance::clear_interrupt();
        sched::set_threads(0);
        sched::set_parallel_threshold(usize::MAX);
    }
}

/// A `(pos, grp, val)` table: `pos` is the 1-based sequence position,
/// `grp` a low-cardinality partition key, `val` the payload.
fn db_with(rows: &[(i64, i64, f64)]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (pos BIGINT PRIMARY KEY, grp BIGINT NOT NULL, val DOUBLE NOT NULL)")
        .unwrap();
    if rows.is_empty() {
        return db;
    }
    let tuples: Vec<String> = rows
        .iter()
        .map(|(p, g, v)| format!("({p}, {g}, {v:?})"))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(", ")))
        .unwrap();
    db
}

/// An exact fingerprint of a result set: every value rendered to bits
/// (floats via `to_bits`, so `-0.0` vs `0.0` or a ULP of drift fails).
fn fingerprint(db: &Database, sql: &str, context: &str) -> Vec<Vec<String>> {
    let result = db
        .execute(sql)
        .unwrap_or_else(|e| panic!("{context}: `{sql}` failed: {e}"));
    result
        .rows()
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v.as_f64() {
                    Ok(Some(f)) => format!("f{:016x}", f.to_bits()),
                    Ok(None) => "null".to_string(),
                    Err(_) => format!("s{v}"),
                })
                .collect()
        })
        .collect()
}

fn random_rows(rng: &mut Rng, vals: Vec<f64>) -> Vec<(i64, i64, f64)> {
    let groups = rng.i64_in(1, 5);
    vals.into_iter()
        .enumerate()
        .map(|(i, v)| (i as i64 + 1, rng.i64_in(0, groups), v))
        .collect()
}

/// One random query per case, spanning every governed operator: scans,
/// filters, projections, sorts, hash aggregates, windows, and joins.
fn random_query(rng: &mut Rng) -> String {
    let cut = rng.i64_in(-50, 50);
    let (l, h) = gen::window(3)(rng);
    let shapes = [
        format!(
            "SELECT pos, grp, val * 2.0 + 1.0 AS v2 FROM t \
             WHERE val > {cut} ORDER BY pos"
        ),
        "SELECT pos, grp, val FROM t ORDER BY grp, val DESC".to_string(),
        "SELECT grp, COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a, \
         MIN(val) AS lo, MAX(val) AS hi FROM t GROUP BY grp ORDER BY grp"
            .to_string(),
        format!(
            "SELECT pos, grp, SUM(val) OVER (PARTITION BY grp ORDER BY pos \
             ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING) AS s FROM t"
        ),
        "SELECT pos, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC) AS r FROM t"
            .to_string(),
        // Self-join: the build side charges the budget, the probe side
        // checkpoints per pair.
        "SELECT a.pos, b.pos FROM t a, t b \
         WHERE a.grp = b.grp AND a.pos < b.pos ORDER BY a.pos, b.pos"
            .to_string(),
    ];
    let i = rng.usize_in(0, shapes.len() - 1);
    shapes[i].clone()
}

/// The core differential property: cancel at a seeded checkpoint, then
/// the same database must serve the exact fresh-oracle answer, with no
/// result-cache entry left behind by the aborted run.
#[test]
fn cancelled_statement_leaves_engine_equivalent_to_fresh_oracle() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    sched::set_parallel_threshold(TINY_THRESHOLD);
    check_config(
        60,
        "cancel at a seeded checkpoint, then re-run ≡ fresh oracle",
        |rng| {
            let vals = gen::int_values(0, 40)(rng);
            let rows = random_rows(rng, vals);
            let sql = random_query(rng);
            let schedule = CancelSchedule::derive(rng.u64_below(u64::MAX), 0, MAX_CHECKPOINTS);
            (rows, sql, schedule.checkpoint)
        },
        |(rows, sql, checkpoint)| {
            for &threads in &THREAD_MATRIX {
                sched::set_threads(threads);
                let oracle = db_with(rows);
                let expected = fingerprint(&oracle, sql, "fresh oracle");

                let db = db_with(rows);
                let cached_before = db.cache_stats().result_entries;
                governance::arm_cancel_after(*checkpoint);
                let injured = db.execute(sql);
                governance::reset_injection();
                match injured {
                    // Countdown outlived the query: completing is legal.
                    Ok(_) => {}
                    Err(RfvError::Cancelled(_)) => {
                        assert_eq!(
                            db.cache_stats().result_entries,
                            cached_before,
                            "a cancelled statement must not install a result-cache entry"
                        );
                    }
                    Err(other) => panic!(
                        "checkpoint {checkpoint} at threads={threads}: injection must \
                         surface as Cancelled, got: {other}"
                    ),
                }

                let rerun = fingerprint(&db, sql, "re-run after cancellation");
                assert_eq!(
                    expected, rerun,
                    "threads={threads} checkpoint={checkpoint}: a cancelled `{sql}` \
                     must leave the engine equivalent to a fresh database"
                );
            }
        },
    );
}

/// Cancellation mid-query must not disturb materialized views, already
/// cached results, or subsequent incremental maintenance.
#[test]
fn cancellation_leaves_views_and_caches_consistent() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    sched::set_parallel_threshold(TINY_THRESHOLD);
    sched::set_threads(2);

    let mk = || {
        let db = Database::new();
        db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
            .unwrap();
        let tuples: Vec<String> = (1..=256)
            .map(|i| format!("({i}, {:?})", f64::from(i * 37 % 23)))
            .collect();
        db.execute(&format!("INSERT INTO seq VALUES {}", tuples.join(", ")))
            .unwrap();
        db
    };
    let db = mk();
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();

    // Warm the result cache with a view-derivable query.
    let warm = "SELECT pos, SUM(val) OVER (ORDER BY pos \
                ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq";
    let warm_fp = fingerprint(&db, warm, "warm");

    // A distinct query (the warm one would be a cache hit and never reach
    // a checkpoint), cancelled at its very first governance check.
    let victim = "SELECT pos, SUM(val) OVER (ORDER BY pos \
                  ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq";
    governance::arm_cancel_after(1);
    let err = db.execute(victim).unwrap_err();
    governance::reset_injection();
    assert!(
        matches!(err, RfvError::Cancelled(_)),
        "first-checkpoint injection must cancel, got: {err}"
    );

    // The cached entry still serves, bit-identical.
    assert_eq!(warm_fp, fingerprint(&db, warm, "warm after cancel"));

    // The victim now runs clean and matches a database that never saw a
    // cancellation (view rewrite included).
    let oracle = mk();
    assert_eq!(
        fingerprint(&oracle, victim, "victim oracle"),
        fingerprint(&db, victim, "victim re-run"),
    );

    // Incremental maintenance still works after the aborted statement.
    db.execute("INSERT INTO seq VALUES (257, 9.5)").unwrap();
    oracle.execute("INSERT INTO seq VALUES (257, 9.5)").unwrap();
    assert_eq!(
        fingerprint(&oracle, warm, "maintained oracle"),
        fingerprint(&db, warm, "maintained after cancel"),
    );
}

/// The CI low-budget leg: a small memory budget (from `RFV_MEM_BUDGET`
/// when the environment sets one, otherwise applied via the runtime
/// setter) trips a clean `ResourceExhausted` on a large window query,
/// the failure is visible in `rfv_stat_resources`, and the engine keeps
/// serving small statements afterwards.
#[test]
fn low_budget_trips_clean_resource_exhausted_and_engine_recovers() {
    let _guard = knob_guard();
    let _reset = KnobReset;

    let db = Database::new();
    db.execute("CREATE TABLE big (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    let vals: Vec<f64> = (0..60_000).map(|i| f64::from(i % 97)).collect();
    db.sequence_append_bulk("big", &vals).unwrap();
    if std::env::var("RFV_MEM_BUDGET").is_err() {
        db.set_mem_budget(Some(4 << 20));
    }

    let err = db
        .execute(
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN \
             100 PRECEDING AND 100 FOLLOWING) AS s FROM big",
        )
        .unwrap_err();
    assert!(
        matches!(err, RfvError::ResourceExhausted(_)),
        "a 60k-row window under a 4 MiB budget must exhaust, got: {err}"
    );

    // The failure is attributed in the resource stats…
    let r = db
        .execute("SELECT value FROM rfv_stat_resources WHERE name = 'oom'")
        .unwrap();
    assert_eq!(r.rows()[0].get(0), &Value::Int(1), "oom counter");

    // …and the engine still answers small statements under the same budget.
    let r = db.execute("SELECT val FROM big WHERE pos = 17").unwrap();
    assert_eq!(r.rows().len(), 1);
    assert_eq!(r.rows()[0].get(0), &Value::Float(16.0));
}

/// The CI low-budget leg, on a scan: a table whose full copy is more than
/// twice a 4 MiB budget (160 000 `(pos, val)` rows, 56 B each as the
/// executor prices them) cannot be read whole under it, but a `WHERE`
/// that keeps 1 % of it can — the scan evaluates the predicate on the
/// stored rows and copies, and charges, only the rows it keeps.
#[test]
fn low_budget_filtered_scan_charges_only_what_it_keeps() {
    let _guard = knob_guard();
    let _reset = KnobReset;

    let db = Database::new();
    db.execute("CREATE TABLE big (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    let vals: Vec<f64> = (0..160_000).map(|i| f64::from(i % 100)).collect();
    db.sequence_append_bulk("big", &vals).unwrap();
    if std::env::var("RFV_MEM_BUDGET").is_err() {
        db.set_mem_budget(Some(4 << 20));
    }

    let err = db.execute("SELECT pos, val FROM big").unwrap_err();
    assert!(
        matches!(err, RfvError::ResourceExhausted(_)),
        "a 160k-row scan under a 4 MiB budget must exhaust, got: {err}"
    );
    let r = db
        .execute("SELECT pos, val FROM big WHERE val < 1")
        .unwrap();
    assert_eq!(r.rows().len(), 1_600);
    assert_eq!(r.rows()[1].get(0), &Value::Int(101));
}
