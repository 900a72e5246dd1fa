//! Thread-matrix differential fuzzing of the parallel executor.
//!
//! The scheduler's contract is that parallel execution is **byte-identical**
//! to serial execution at every thread count — not "close", identical,
//! float bits included. Each case here builds one database from random
//! testkit data, then runs the same query at `threads ∈ {1, 2, 8}` with
//! the parallel threshold forced down to a few rows (so even small fuzz
//! inputs split into morsels) and asserts the three result sets have the
//! same `f64::to_bits` fingerprint row for row.
//!
//! What splits is each statement's scan, filter and projection, through
//! the one morsel driver (`rfv_exec::sched::morsels`). `Sort`,
//! `HashAggregate` and `Window` run one algorithm at every thread count;
//! for them the matrix checks that the thread setting does not reach them
//! and that the split operators below hand them the same rows.
//!
//! The thread count and threshold are process-wide knobs, so every test
//! serializes on [`knob_guard`] and restores the defaults before
//! releasing it.
//!
//! Replay a failure with `RFV_SEED=0x… cargo test -q --test fuzz_parallel`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use rfv_core::Database;
use rfv_exec::sched;
use rfv_testkit::{check_config, gen, DiffMatrix, Rng};

/// Thread counts every case must agree across (1 is the serial baseline).
const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

/// Forced-down cost gate so fuzz-sized inputs actually parallelize.
const TINY_THRESHOLD: usize = 4;

fn knob_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Reset the global knobs on drop, so a panicking case does not leak a
/// tiny threshold into the next test.
struct KnobReset;

impl Drop for KnobReset {
    fn drop(&mut self) {
        sched::set_threads(0);
        sched::set_parallel_threshold(usize::MAX);
    }
}

/// A `(pos, grp, val)` table: `pos` is the 1-based sequence position,
/// `grp` a low-cardinality partition key, `val` the payload.
fn db_with(rows: &[(i64, i64, f64)]) -> Database {
    let db = Database::new();
    // Every thread count must execute the statement, not read a cached result.
    db.set_result_cache(0);
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
    outcome(db, sql).unwrap_or_else(|e| panic!("{context}: `{sql}` failed: {e}"))
}

/// [`fingerprint`] of a statement that may fail: its error as text.
fn outcome(db: &Database, sql: &str) -> Result<Vec<Vec<String>>, String> {
    let result = db.execute(sql).map_err(|e| e.to_string())?;
    Ok(result
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
        .collect())
}

/// Run `sql` across the thread matrix and assert all fingerprints equal
/// the serial (threads=1) baseline.
fn assert_thread_matrix_identical(db: &Database, sql: &str, context: &str) {
    let mut baseline: Option<Vec<Vec<String>>> = None;
    for &threads in &THREAD_MATRIX {
        sched::set_threads(threads);
        let fp = fingerprint(db, sql, context);
        match &baseline {
            None => baseline = Some(fp),
            Some(serial) => assert_eq!(
                serial, &fp,
                "{context}: `{sql}` diverged at threads={threads} \
                 (parallel execution must be byte-identical to serial)"
            ),
        }
    }
}

fn random_rows(rng: &mut Rng, vals: Vec<f64>) -> Vec<(i64, i64, f64)> {
    let groups = rng.i64_in(1, 5);
    vals.into_iter()
        .enumerate()
        .map(|(i, v)| (i as i64 + 1, rng.i64_in(0, groups), v))
        .collect()
}

/// The query shapes under test: every parallel operator (morsel scan,
/// filter, project, sort + merge, partitioned aggregate, partition-parallel
/// window) appears in at least one of them.
fn queries(rng: &mut Rng) -> Vec<String> {
    let cut = rng.i64_in(-50, 50);
    let (l, h) = gen::window(3)(rng);
    vec![
        // Scan → filter → project, ordered output.
        format!(
            "SELECT pos, grp, val * 2.0 + 1.0 AS v2 FROM t \
             WHERE val > {cut} ORDER BY pos"
        ),
        // Parallel sort with duplicate keys (stability is part of the
        // contract; grp has heavy ties).
        "SELECT pos, grp, val FROM t ORDER BY grp, val DESC".to_string(),
        // Partitioned hash aggregate with float SUM/AVG (Kahan bits must
        // survive the stratum fold) plus HAVING on top.
        "SELECT grp, COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a, \
         MIN(val) AS lo, MAX(val) AS hi FROM t GROUP BY grp ORDER BY grp"
            .to_string(),
        // Partition-parallel window operator.
        format!(
            "SELECT pos, grp, SUM(val) OVER (PARTITION BY grp ORDER BY pos \
             ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING) AS s FROM t"
        ),
        // Ranking over partitions (order-key path in the window operator).
        "SELECT pos, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val DESC) AS r FROM t"
            .to_string(),
        // Two partition columns and about one row per partition: almost
        // every row is a partition boundary and a group boundary.
        format!(
            "SELECT pos, SUM(val) OVER (PARTITION BY grp, pos / 2 ORDER BY pos \
             ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING) AS s, \
             RANK() OVER (PARTITION BY grp, pos / 2 ORDER BY val) AS r FROM t"
        ),
    ]
}

#[test]
fn random_queries_byte_identical_across_thread_matrix_integers() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    sched::set_parallel_threshold(TINY_THRESHOLD);
    check_config(
        120,
        "thread matrix {1,2,8} ≡ serial (integer data)",
        |rng| {
            let vals = gen::int_values(0, 48)(rng);
            let rows = random_rows(rng, vals);
            let qs = queries(rng);
            (rows, qs)
        },
        |(rows, qs)| {
            let db = db_with(rows);
            for sql in qs {
                assert_thread_matrix_identical(&db, sql, "int case");
            }
        },
    );
}

#[test]
fn random_queries_byte_identical_across_thread_matrix_floats() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    sched::set_parallel_threshold(TINY_THRESHOLD);
    check_config(
        80,
        "thread matrix {1,2,8} ≡ serial (cancellation floats, exact bits)",
        |rng| {
            // Cancellation-adversarial floats: any reassociation in the
            // parallel aggregate or window fold changes the output bits.
            let vals = gen::cancellation_values(0, 32)(rng);
            let rows = random_rows(rng, vals);
            let qs = queries(rng);
            (rows, qs)
        },
        |(rows, qs)| {
            let db = db_with(rows);
            for sql in qs {
                assert_thread_matrix_identical(&db, sql, "float case");
            }
        },
    );
}

/// The [`DiffMatrix`] harness with one strategy per thread count: every
/// strategy computes the `(l, h)` sliding SUM through the full SQL window
/// path, so each is checked against the brute-force oracle *and* the
/// strategies are checked against each other bit-for-bit.
#[test]
fn window_sum_diff_matrix_across_thread_counts() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    sched::set_parallel_threshold(TINY_THRESHOLD);

    let engine_at = |threads: usize| {
        move |raw: &[f64], l: i64, h: i64| -> Result<Vec<f64>, String> {
            sched::set_threads(threads);
            let db = Database::new();
            db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
                .map_err(|e| e.to_string())?;
            for (i, v) in raw.iter().enumerate() {
                db.execute(&format!("INSERT INTO seq VALUES ({}, {v:?})", i + 1))
                    .map_err(|e| e.to_string())?;
            }
            let sql = format!(
                "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN \
                 {l} PRECEDING AND {h} FOLLOWING) AS s FROM seq"
            );
            let result = db.execute(&sql).map_err(|e| e.to_string())?;
            Ok(result
                .rows()
                .iter()
                .map(|r| r.get(1).as_f64().unwrap().unwrap_or(0.0))
                .collect())
        }
    };

    let matrix = DiffMatrix::new()
        .strategy("sql window, threads=1", engine_at(1))
        .strategy("sql window, threads=2", engine_at(2))
        .strategy("sql window, threads=8", engine_at(8));

    check_config(
        48,
        "DiffMatrix: window SUM vs oracle at threads {1,2,8}",
        |rng| {
            let raw = gen::int_values(0, 40)(rng);
            let (l, h) = gen::window(4)(rng);
            (raw, l, h)
        },
        |(raw, l, h)| {
            let ran = matrix.check(raw, *l, *h);
            assert_eq!(ran, 3, "all three thread-count strategies must run");
            // Stronger than the oracle tolerance: the three thread counts
            // must agree to the bit.
            let bits: Vec<Vec<u64>> = THREAD_MATRIX
                .iter()
                .map(|&t| {
                    engine_at(t)(raw, *l, *h)
                        .unwrap()
                        .into_iter()
                        .map(f64::to_bits)
                        .collect()
                })
                .collect();
            assert_eq!(bits[0], bits[1], "threads=2 drifted from serial bits");
            assert_eq!(bits[0], bits[2], "threads=8 drifted from serial bits");
        },
    );
}

/// Oversubscription sanity: more threads than rows, thresholds of 0-ish
/// sizes, empty tables — the gate and morsel splitter must degrade to
/// serial without panicking or duplicating rows.
#[test]
fn degenerate_inputs_survive_every_thread_count() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    sched::set_parallel_threshold(TINY_THRESHOLD);
    for rows in [0usize, 1, 2, 3, 5] {
        let data: Vec<(i64, i64, f64)> = (0..rows)
            .map(|i| (i as i64 + 1, i as i64 % 2, i as f64))
            .collect();
        let db = db_with(&data);
        for sql in [
            "SELECT pos, val FROM t ORDER BY val",
            "SELECT grp, SUM(val) AS s FROM t GROUP BY grp ORDER BY grp",
            "SELECT pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos \
             ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM t",
        ] {
            assert_thread_matrix_identical(&db, sql, &format!("degenerate n={rows}"));
        }
    }
}

/// A fact table `f (pos, grp, sub, val)` and a dimension table
/// `d (id, grp, sub, tag)` with no index, so joins on them hash. `sub` is
/// NULL where the generator drew 0; `d.id` is its insertion order.
fn fact_and_dim(fact: &[(i64, i64, f64)], dim: &[(i64, i64, i64)]) -> Database {
    let db = Database::new();
    // Every thread count must execute the statement, not read a cached result.
    db.set_result_cache(0);
    db.execute(
        "CREATE TABLE f (pos BIGINT PRIMARY KEY, grp BIGINT NOT NULL, sub BIGINT, \
         val DOUBLE NOT NULL)",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE d (id BIGINT NOT NULL, grp BIGINT NOT NULL, sub BIGINT, tag BIGINT NOT NULL)",
    )
    .unwrap();
    let sub = |s: i64| {
        if s == 0 {
            "NULL".to_string()
        } else {
            s.to_string()
        }
    };
    let facts: Vec<String> = (fact.iter().enumerate())
        .map(|(i, (g, s, v))| format!("({}, {g}, {}, {v:?})", i + 1, sub(*s)))
        .collect();
    let dims: Vec<String> = (dim.iter().enumerate())
        .map(|(i, (g, s, t))| format!("({}, {g}, {}, {t})", i + 1, sub(*s)))
        .collect();
    for (table, tuples) in [("f", facts), ("d", dims)] {
        if !tuples.is_empty() {
            let sql = format!("INSERT INTO {table} VALUES {}", tuples.join(", "));
            db.execute(&sql).unwrap();
        }
    }
    db
}

/// The filtered-scan paths, where the filter runs inside the scan's morsel
/// loop and the hash join and aggregate read what it keeps: the benchmark's
/// three report shapes (filtered hash join + GROUP BY, 2-key GROUP BY,
/// top-k), a 2-key join, a LEFT OUTER join over NULL and duplicate keys
/// (checked against a nested-loop oracle, so matches come out in build
/// order), and a predicate that fails at a random row — division by zero
/// at `pos = k1`, `+` overflow from `pos = k2` — whose error must be the
/// serial one, the first failing row's, at every thread count.
#[test]
fn fused_scan_join_and_aggregate_byte_identical_across_thread_matrix() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    sched::set_parallel_threshold(TINY_THRESHOLD);
    check_config(
        60,
        "fused scan shapes: thread matrix {1,2,8} ≡ serial, errors included",
        |rng| {
            let n = rng.i64_in(0, 64) as usize;
            let fact: Vec<(i64, i64, f64)> = (0..n)
                .map(|_| {
                    (
                        rng.i64_in(0, 3),
                        rng.i64_in(0, 3),
                        rng.i64_in(-99, 99) as f64,
                    )
                })
                .collect();
            let m = rng.i64_in(0, 12) as usize;
            let dim: Vec<(i64, i64, i64)> = (0..m)
                .map(|_| (rng.i64_in(0, 4), rng.i64_in(0, 3), rng.i64_in(0, 2)))
                .collect();
            let cut = rng.i64_in(-100, 100);
            let (k1, k2) = (rng.i64_in(1, n as i64 + 2), rng.i64_in(1, n as i64 + 2));
            (fact, dim, (cut, k1, k2))
        },
        |(fact, dim, (cut, k1, k2))| {
            let db = fact_and_dim(fact, dim);
            let overflow_at_k2 = i64::MAX - k2 + 1;
            let fails = format!("10 / (f.pos - {k1}) + (f.pos + {overflow_at_k2}) > 0");
            let joins = [
                format!(
                    "SELECT d.tag, COUNT(*) AS c, SUM(f.val) AS s FROM f JOIN d \
                     ON f.grp = d.grp WHERE f.val > {cut} GROUP BY d.tag ORDER BY d.tag"
                ),
                format!(
                    "SELECT f.pos, d.id, d.tag FROM f JOIN d \
                     ON f.grp = d.grp AND f.sub = d.sub WHERE f.val > {cut}"
                ),
                format!(
                    "SELECT f.pos, d.id FROM f LEFT JOIN d ON f.sub = d.sub WHERE f.val > {cut}"
                ),
                format!(
                    "SELECT d.tag, COUNT(*) AS c FROM f JOIN d ON f.grp = d.grp \
                     WHERE {fails} GROUP BY d.tag"
                ),
            ];
            for sql in &joins {
                let plan = db.explain(sql).unwrap();
                assert!(plan.contains("HashJoin"), "`{sql}` must hash: {plan}");
            }
            let scans = [
                format!(
                    "SELECT grp, sub, COUNT(*) AS c, SUM(val) AS s, MIN(val) AS lo, \
                     MAX(val) AS hi FROM f WHERE val > {cut} GROUP BY grp, sub"
                ),
                format!(
                    "SELECT pos, grp, val FROM f WHERE val > {cut} \
                     ORDER BY val DESC, pos LIMIT 7"
                ),
                format!("SELECT f.pos FROM f WHERE {fails}"),
            ];
            let splits = sched::metrics().parallel_ops.get();
            for sql in joins.iter().chain(&scans) {
                let mut serial = None;
                for &threads in &THREAD_MATRIX {
                    sched::set_threads(threads);
                    let got = outcome(&db, sql);
                    match &serial {
                        None => serial = Some(got),
                        Some(serial) => assert_eq!(
                            serial, &got,
                            "`{sql}` diverged at threads={threads} from serial"
                        ),
                    }
                }
            }
            if fact.len() >= TINY_THRESHOLD {
                assert!(
                    sched::metrics().parallel_ops.get() > splits,
                    "nothing split"
                );
            }

            // The LEFT OUTER join against its oracle: left rows in slot
            // order, each one's matches in build (`d.id`) order, a NULL key
            // matching nothing.
            let mut expected = Vec::new();
            for (pos, (_, s, v)) in (1..).zip(fact) {
                if *v <= *cut as f64 {
                    continue;
                }
                let ids: Vec<i64> = (1..)
                    .zip(dim)
                    .filter(|(_, (_, ds, _))| *s != 0 && ds == s)
                    .map(|(id, _)| id)
                    .collect();
                if ids.is_empty() {
                    expected.push(format!("{pos} NULL"));
                }
                expected.extend(ids.iter().map(|id| format!("{pos} {id}")));
            }
            let got: Vec<String> = (db.execute(&joins[2]).unwrap().rows().iter())
                .map(|r| format!("{} {}", r.get(0), r.get(1)))
                .collect();
            assert_eq!(got, expected, "LEFT OUTER join order");

            // The error is the first failing row's, at every thread count.
            let n = fact.len() as i64;
            let err = outcome(&db, &scans[2]).err();
            let want = if *k1 <= n && k1 <= k2 {
                Some("division by zero")
            } else if *k2 <= n {
                Some("overflow")
            } else {
                None
            };
            match (want, &err) {
                (None, None) => {}
                (Some(w), Some(e)) => assert!(e.contains(w), "want {w}, got {e}"),
                _ => panic!("want {want:?}, got {err:?}"),
            }
        },
    );
}
