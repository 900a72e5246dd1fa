//! Engine-level differential fuzzing of the view rewriter.
//!
//! Each case builds a fresh database, populates it with a random integer
//! sequence, registers a random catalog of materialized sequence views
//! (sliding/cumulative SUM, MIN, MAX — or partitioned sliding SUM), and
//! runs a random multi-expression reporting-function query twice: once
//! with view rewriting enabled and once against the raw table. The two
//! answers must agree row for row — in number and in `Value` variant, over
//! BIGINT and DOUBLE value columns alike — and neither path may panic — query
//! execution is wrapped in `catch_unwind` so a panic anywhere on the
//! rewrite/derivation path is reported as a property failure with the
//! offending SQL, not as a test-harness abort.
//!
//! This is the regression harness for the multi-reporting-function
//! rewrite panic (the derived-column offset bug in the join/projection
//! assembly of `Rewriter::rewrite_window`): queries here carry 1–3
//! window expressions with mixed aggregates and mixed frames, which is
//! exactly the shape that used to slice out of bounds.
//!
//! Replay a failure with `RFV_SEED=0x… cargo test -q --test fuzz_rewrite`;
//! soak with `RFV_CASES=200` (what CI runs).

use std::panic::{catch_unwind, AssertUnwindSafe};

use rfv_core::Database;
use rfv_testkit::{check, gen, Frame, Rng};
use rfv_types::Value;

/// A materialized view to register: `(kind, l, h)`. Kind selects
/// sliding SUM / cumulative SUM / sliding MIN / sliding MAX; for
/// partitioned scenarios every kind maps to partitioned sliding SUM
/// (the only partitioned view shape the engine materializes).
type ViewSpec = (u8, i64, i64);

/// One window expression in the SELECT list: `(agg, frame)`. Agg selects
/// SUM / COUNT(*) / COUNT(val) / AVG / MIN / MAX.
type ExprSpec = (u8, Frame);

/// `(values, views, window expressions, partitioned?, BIGINT value column?)`.
type Scenario = (Vec<i64>, Vec<ViewSpec>, Vec<ExprSpec>, bool, bool);

fn scenario(rng: &mut Rng) -> Scenario {
    let vals = gen::vec_of(gen::i64_in(-50, 50), 1, 40)(rng);
    let views = gen::vec_of(
        |rng: &mut Rng| (rng.u64_below(4) as u8, rng.i64_in(0, 4), rng.i64_in(0, 4)),
        0,
        3,
    )(rng);
    let exprs = gen::vec_of(
        |rng: &mut Rng| (rng.u64_below(6) as u8, gen::frame(4)(rng)),
        1,
        3,
    )(rng);
    (vals, views, exprs, rng.bool(), rng.bool())
}

/// The value column's SQL type. Values are written as bare integer
/// literals into either: a DOUBLE column stores them as floats.
fn val_column(int_col: bool) -> &'static str {
    if int_col {
        "BIGINT"
    } else {
        "DOUBLE"
    }
}

fn agg_sql(agg: u8, over: &str) -> String {
    let func = match agg % 6 {
        0 => "SUM(val)",
        1 => "COUNT(*)",
        2 => "COUNT(val)",
        3 => "AVG(val)",
        4 => "MIN(val)",
        _ => "MAX(val)",
    };
    format!("{func} OVER ({over})")
}

fn select_list(exprs: &[ExprSpec], partition: &str) -> String {
    exprs
        .iter()
        .enumerate()
        .map(|(i, (agg, frame))| {
            let over = format!("{partition}ORDER BY pos {}", frame.sql());
            format!("{} AS a{i}", agg_sql(*agg, &over))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Execute under `catch_unwind`, panicking (so the runner records a
/// failure and shrinks) on either a panic or an `Err` from the engine —
/// the whole point of this PR is that neither may happen.
fn run_query(db: &Database, sql: &str, rewrite: bool, ncols: usize) -> Vec<Vec<Value>> {
    db.set_view_rewrite(rewrite);
    let outcome = catch_unwind(AssertUnwindSafe(|| db.execute(sql)));
    let result = match outcome {
        Ok(Ok(r)) => r,
        Ok(Err(e)) => panic!("query failed (rewrite={rewrite}): {e}\nsql: {sql}"),
        Err(_) => panic!("query PANICKED (rewrite={rewrite})\nsql: {sql}"),
    };
    result
        .rows()
        .iter()
        .map(|row| (0..ncols).map(|c| row.get(c).clone()).collect())
        .collect()
}

/// The engine's rewrite counters must stay internally consistent no
/// matter what query shapes the fuzzer throws at it: every planned
/// window expression lands in exactly one strategy counter or the
/// expression-fallback counter, and every planned query lands in
/// exactly one report-level outcome.
fn assert_counter_invariants(db: &Database, sql: &str) {
    let snapshot = db.metrics().counters_snapshot();
    let get = |k: &str| snapshot.get(k).copied().unwrap_or(0);
    let strategy_total: u64 = snapshot
        .iter()
        .filter(|(k, _)| k.starts_with("rewrite.strategy."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(
        get("rewrite.expressions"),
        strategy_total + get("rewrite.expr_fallback"),
        "strategy counters must sum to expressions planned\nsql: {sql}"
    );
    assert_eq!(
        get("query.planned"),
        get("rewrite.rewritten") + get("rewrite.fallback") + get("rewrite.disabled"),
        "outcomes must partition planned queries\nsql: {sql}"
    );
}

fn assert_rows_match(on: &[Vec<Value>], off: &[Vec<Value>], sql: &str) {
    assert_eq!(
        on.len(),
        off.len(),
        "row count differs: views-on {} vs views-off {}\nsql: {sql}",
        on.len(),
        off.len()
    );
    for (r, (a, b)) in on.iter().zip(off).enumerate() {
        for (c, (x, y)) in a.iter().zip(b).enumerate() {
            let close = match (x.as_f64().ok().flatten(), y.as_f64().ok().flatten()) {
                (None, None) => true,
                (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
                _ => false,
            };
            // `Int(3) == Float(3.0)` as values; a derived column must also
            // have the native column's type.
            let same_type = std::mem::discriminant(x) == std::mem::discriminant(y);
            assert!(
                close && same_type,
                "mismatch at row {r} col {c}: views-on {x:?} vs views-off {y:?}\nsql: {sql}"
            );
        }
    }
}

fn check_unpartitioned(vals: &[i64], views: &[ViewSpec], exprs: &[ExprSpec], int_col: bool) {
    let db = Database::new();
    db.execute(&format!(
        "CREATE TABLE seq (pos BIGINT PRIMARY KEY, val {} NOT NULL)",
        val_column(int_col)
    ))
    .unwrap();
    for (i, v) in vals.iter().enumerate() {
        db.execute(&format!("INSERT INTO seq VALUES ({}, {v})", i + 1))
            .unwrap();
    }
    for (i, (kind, l, h)) in views.iter().enumerate() {
        let (func, frame) = match kind % 4 {
            0 => (
                "SUM",
                format!("ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING"),
            ),
            1 => ("SUM", "ROWS UNBOUNDED PRECEDING".to_string()),
            2 => (
                "MIN",
                format!("ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING"),
            ),
            _ => (
                "MAX",
                format!("ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING"),
            ),
        };
        db.execute(&format!(
            "CREATE MATERIALIZED VIEW v{i} AS SELECT pos, {func}(val) OVER \
             (ORDER BY pos {frame}) AS s FROM seq"
        ))
        .unwrap_or_else(|e| panic!("view v{i} creation failed: {e}"));
    }
    let sql = format!(
        "SELECT pos, {} FROM seq ORDER BY pos",
        select_list(exprs, "")
    );
    let ncols = exprs.len() + 1;
    let on = run_query(&db, &sql, true, ncols);
    let off = run_query(&db, &sql, false, ncols);
    assert_rows_match(&on, &off, &sql);
    assert_counter_invariants(&db, &sql);
}

fn check_partitioned(vals: &[i64], views: &[ViewSpec], exprs: &[ExprSpec], int_col: bool) {
    let db = Database::new();
    db.execute(&format!(
        "CREATE TABLE pseq (g BIGINT NOT NULL, pos BIGINT NOT NULL, val {} NOT NULL)",
        val_column(int_col)
    ))
    .unwrap();
    // Up to three dense partitions: per-partition positions restart at 1.
    let chunk = vals.len().div_ceil(3).max(1);
    for (g, part) in vals.chunks(chunk).enumerate() {
        for (i, v) in part.iter().enumerate() {
            db.execute(&format!("INSERT INTO pseq VALUES ({g}, {}, {v})", i + 1))
                .unwrap();
        }
    }
    for (i, (_, l, h)) in views.iter().enumerate() {
        db.execute(&format!(
            "CREATE MATERIALIZED VIEW v{i} AS SELECT g, pos, SUM(val) OVER \
             (PARTITION BY g ORDER BY pos ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING) \
             AS s FROM pseq"
        ))
        .unwrap_or_else(|e| panic!("partitioned view v{i} creation failed: {e}"));
    }
    let sql = format!(
        "SELECT g, pos, {} FROM pseq ORDER BY g, pos",
        select_list(exprs, "PARTITION BY g ")
    );
    let ncols = exprs.len() + 2;
    let on = run_query(&db, &sql, true, ncols);
    let off = run_query(&db, &sql, false, ncols);
    assert_rows_match(&on, &off, &sql);
    assert_counter_invariants(&db, &sql);
}

#[test]
fn random_window_queries_agree_with_and_without_views() {
    check(
        "views-on ≡ views-off for random multi-expression window queries",
        scenario,
        |(vals, views, exprs, partitioned, int_col)| {
            if exprs.is_empty() {
                // Vec shrinking can empty the SELECT list; nothing to test.
                return;
            }
            if *partitioned {
                check_partitioned(vals, views, exprs, *int_col);
            } else {
                check_unpartitioned(vals, views, exprs, *int_col);
            }
        },
    );
}

/// Same views-on ≡ views-off property over cancellation-adversarial float
/// data. The comparison tolerance scales with the *input* magnitude (the
/// window sums themselves can be arbitrarily close to zero while their
/// operands are ~1e15 — a result-scaled tolerance would be meaninglessly
/// tight there).
#[test]
fn float_cancellation_queries_agree_with_and_without_views() {
    check(
        "views-on ≡ views-off under catastrophic cancellation",
        |rng| {
            let vals = gen::cancellation_values(1, 30)(rng);
            let views = gen::vec_of(
                |rng: &mut Rng| (rng.u64_below(4) as u8, rng.i64_in(0, 3), rng.i64_in(0, 3)),
                0,
                2,
            )(rng);
            let (l, h) = gen::window(3)(rng);
            (vals, views, l, h)
        },
        |(vals, views, l, h)| {
            let db = Database::new();
            db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
                .unwrap();
            for (i, v) in vals.iter().enumerate() {
                db.execute(&format!("INSERT INTO seq VALUES ({}, {v:?})", i + 1))
                    .unwrap();
            }
            for (i, (kind, vl, vh)) in views.iter().enumerate() {
                let (func, frame) = match kind % 4 {
                    0 => (
                        "SUM",
                        format!("ROWS BETWEEN {vl} PRECEDING AND {vh} FOLLOWING"),
                    ),
                    1 => ("SUM", "ROWS UNBOUNDED PRECEDING".to_string()),
                    2 => (
                        "MIN",
                        format!("ROWS BETWEEN {vl} PRECEDING AND {vh} FOLLOWING"),
                    ),
                    _ => (
                        "MAX",
                        format!("ROWS BETWEEN {vl} PRECEDING AND {vh} FOLLOWING"),
                    ),
                };
                db.execute(&format!(
                    "CREATE MATERIALIZED VIEW v{i} AS SELECT pos, {func}(val) OVER \
                     (ORDER BY pos {frame}) AS s FROM seq"
                ))
                .unwrap_or_else(|e| panic!("view v{i} creation failed: {e}"));
            }
            let sql = format!(
                "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN {l} PRECEDING \
                 AND {h} FOLLOWING) AS s FROM seq ORDER BY pos"
            );
            let on = run_query(&db, &sql, true, 2);
            let off = run_query(&db, &sql, false, 2);
            let scale = rfv_testkit::oracle::input_scale(vals);
            assert_eq!(on.len(), off.len(), "row count differs\nsql: {sql}");
            for (r, (a, b)) in on.iter().zip(&off).enumerate() {
                let (x, y) = (
                    a[1].as_f64().unwrap().unwrap(),
                    b[1].as_f64().unwrap().unwrap(),
                );
                assert!(
                    (x - y).abs() <= 1e-9 * scale,
                    "row {r}: views-on {x} vs views-off {y} (input scale {scale})\nsql: {sql}"
                );
            }
        },
    );
}

/// Frame offsets at and beyond the 2^40 bind-time cap: in-range extremes
/// must execute without panicking (and equal the unbounded result when
/// they cover the whole sequence); out-of-range ones must fail cleanly
/// with the binder's "frame offset" error, never wrap or panic.
#[test]
fn extreme_frame_offsets_never_panic_or_wrap() {
    check(
        "extreme frame offsets bind or reject cleanly",
        |rng| {
            let vals = gen::vec_of(gen::i64_in(-50, 50), 1, 12)(rng);
            let l = gen::extreme_offset()(rng);
            let h = gen::extreme_offset()(rng);
            (vals, l, h)
        },
        |(vals, l, h)| {
            let db = Database::new();
            db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
                .unwrap();
            for (i, v) in vals.iter().enumerate() {
                db.execute(&format!(
                    "INSERT INTO seq VALUES ({}, {})",
                    i + 1,
                    *v as f64
                ))
                .unwrap();
            }
            let sql = format!(
                "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN {l} PRECEDING \
                 AND {h} FOLLOWING) AS s FROM seq ORDER BY pos"
            );
            const CAP: i64 = 1 << 40;
            let outcome = catch_unwind(AssertUnwindSafe(|| db.execute(&sql)));
            match outcome {
                Err(_) => panic!("query PANICKED\nsql: {sql}"),
                Ok(Ok(result)) => {
                    assert!(
                        *l <= CAP && *h <= CAP,
                        "offset beyond the cap was accepted\nsql: {sql}"
                    );
                    // Any in-range frame covering all of 1..=n must equal
                    // the total sum at every position.
                    if *l >= vals.len() as i64 && *h >= vals.len() as i64 {
                        let total: f64 = vals.iter().map(|&v| v as f64).sum();
                        for row in result.rows() {
                            let s = row.get(1).as_f64().unwrap().unwrap();
                            assert!(
                                (s - total).abs() < 1e-6,
                                "full-coverage frame ≠ total: {s} vs {total}\nsql: {sql}"
                            );
                        }
                    }
                }
                Ok(Err(e)) => {
                    assert!(
                        *l > CAP || *h > CAP,
                        "in-range offsets rejected: {e}\nsql: {sql}"
                    );
                    assert!(
                        e.to_string().contains("frame offset"),
                        "unexpected error shape: {e}\nsql: {sql}"
                    );
                }
            }
        },
    );
}

/// No statement — DDL, DML, repeated queries — may panic with the
/// result cache explicitly enabled, and a repeat of the same query
/// (served from the cache) must return exactly what the first run
/// returned. The cache is enabled via `set_result_cache` so the
/// property also holds on the `RFV_CACHE_BYTES=0` CI leg.
#[test]
fn no_statement_panics_with_cache_enabled() {
    check(
        "cache-enabled execution is panic-free and repeat-stable",
        scenario,
        |(vals, views, exprs, _, _)| {
            if exprs.is_empty() {
                return;
            }
            let db = Database::new();
            db.set_result_cache(8 << 20);
            db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
                .unwrap();
            for (i, v) in vals.iter().enumerate() {
                db.execute(&format!(
                    "INSERT INTO seq VALUES ({}, {})",
                    i + 1,
                    *v as f64
                ))
                .unwrap();
            }
            for (i, (_, l, h)) in views.iter().enumerate() {
                db.execute(&format!(
                    "CREATE MATERIALIZED VIEW v{i} AS SELECT pos, SUM(val) OVER \
                     (ORDER BY pos ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING) \
                     AS s FROM seq"
                ))
                .unwrap_or_else(|e| panic!("view v{i} creation failed: {e}"));
            }
            let sql = format!(
                "SELECT pos, {} FROM seq ORDER BY pos",
                select_list(exprs, "")
            );
            let ncols = exprs.len() + 1;
            // First run populates the cache, second must be served from it.
            let first = run_query(&db, &sql, true, ncols);
            let repeat = run_query(&db, &sql, true, ncols);
            assert_eq!(first, repeat, "cached repeat differs\nsql: {sql}");
            assert_counter_invariants(&db, &sql);
            // DML through the non-view path invalidates; the re-run must
            // see the new data, not the cached rows (and must not panic).
            let n = vals.len();
            let tail = format!("INSERT INTO seq VALUES ({}, {})", n + 1, (n + 1) as f64);
            let outcome = catch_unwind(AssertUnwindSafe(|| db.execute(&tail)));
            match outcome {
                Err(_) => panic!("DML PANICKED\nsql: {tail}"),
                // Appends at the tail position are always legal, view or no view.
                Ok(r) => {
                    r.unwrap_or_else(|e| panic!("tail append failed: {e}\nsql: {tail}"));
                }
            }
            let after = run_query(&db, &sql, true, ncols);
            assert_eq!(
                after.len(),
                first.len() + 1,
                "stale cached result served after DML\nsql: {sql}"
            );
            assert_counter_invariants(&db, &sql);
        },
    );
}

/// One window expression of a nested-shape query: `(kind, frame)`. Kind
/// selects SUM / COUNT(*) / COUNT(val) / MIN / MAX / RANK() / ROW_NUMBER();
/// the ranking functions take no frame.
type NestedExpr = (u8, Frame);

/// `(values, views, window expressions, shape, constant)`: shape 0 puts
/// the windows at the top of the statement, 1 in a derived table under a
/// filter (`pos > constant`), 2 under an aggregate, 3 in a join with the
/// base table shifted by `constant` positions.
type NestedScenario = (Vec<i64>, Vec<ViewSpec>, Vec<NestedExpr>, u8, i64);

fn nested_expr_sql((kind, frame): &NestedExpr) -> String {
    let func = match kind % 7 {
        0 => "SUM(val)",
        1 => "COUNT(*)",
        2 => "COUNT(val)",
        3 => "MIN(val)",
        4 => "MAX(val)",
        5 => return "RANK() OVER (ORDER BY pos)".into(),
        _ => return "ROW_NUMBER() OVER (ORDER BY pos)".into(),
    };
    format!("{func} OVER (ORDER BY pos {})", frame.sql())
}

/// The statement of a nested scenario and its column count.
fn nested_sql(exprs: &[NestedExpr], shape: u8, k: i64) -> (String, usize) {
    let inner = format!(
        "SELECT pos, {} FROM seq",
        (exprs.iter().enumerate())
            .map(|(i, e)| format!("{} AS a{i}", nested_expr_sql(e)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let cols: Vec<String> = (0..exprs.len()).map(|i| format!("a{i}")).collect();
    match shape % 4 {
        0 => (format!("{inner} ORDER BY pos"), exprs.len() + 1),
        1 => (
            format!("SELECT * FROM ({inner}) x WHERE pos > {k} ORDER BY pos"),
            exprs.len() + 1,
        ),
        2 => {
            let aggs: Vec<String> = (cols.iter().enumerate())
                .map(|(i, c)| format!("SUM({c}) AS t{i}, MAX({c}) AS m{i}"))
                .collect();
            (
                format!("SELECT COUNT(*) AS n, {} FROM ({inner}) x", aggs.join(", ")),
                2 * exprs.len() + 1,
            )
        }
        _ => (
            format!(
                "SELECT x.pos, {}, t.val FROM ({inner}) x JOIN seq t ON t.pos = x.pos + {k} \
                 ORDER BY x.pos",
                (cols.iter().map(|c| format!("x.{c}")))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            exprs.len() + 2,
        ),
    }
}

/// Windows anywhere in the plan — inside a derived table under a filter,
/// an aggregate or a join — and derivable aggregates beside RANK /
/// ROW_NUMBER in one SELECT list. Views-on ≡ views-off, bit-exact: the
/// value column is BIGINT and every result column is an integer. And the
/// sources EXPLAIN prints are exactly the expressions the strategy
/// counters account as derived.
#[test]
fn windows_anywhere_in_the_plan_agree_with_and_without_views() {
    check(
        "views-on ≡ views-off for windows under filters, aggregates and joins",
        |rng| {
            let vals = gen::vec_of(gen::i64_in(-50, 50), 1, 30)(rng);
            let views = gen::vec_of(
                |rng: &mut Rng| (rng.u64_below(4) as u8, rng.i64_in(0, 3), rng.i64_in(0, 3)),
                0,
                3,
            )(rng);
            let exprs = gen::vec_of(
                |rng: &mut Rng| (rng.u64_below(7) as u8, gen::frame(3)(rng)),
                1,
                3,
            )(rng);
            let shape = rng.u64_below(4) as u8;
            let k = rng.i64_in(0, 5);
            (vals, views, exprs, shape, k)
        },
        |(vals, views, exprs, shape, k): &NestedScenario| {
            if exprs.is_empty() {
                return;
            }
            let db = Database::new();
            db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val BIGINT NOT NULL)")
                .unwrap();
            let rows: Vec<String> = (vals.iter().enumerate())
                .map(|(i, v)| format!("({}, {v})", i + 1))
                .collect();
            db.execute(&format!("INSERT INTO seq VALUES {}", rows.join(", ")))
                .unwrap();
            for (i, (kind, l, h)) in views.iter().enumerate() {
                let sliding = format!("ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING");
                let (func, frame) = match kind % 4 {
                    0 => ("SUM", sliding),
                    1 => ("SUM", "ROWS UNBOUNDED PRECEDING".to_string()),
                    2 => ("MIN", sliding),
                    _ => ("MAX", sliding),
                };
                db.execute(&format!(
                    "CREATE MATERIALIZED VIEW v{i} AS SELECT pos, {func}(val) OVER \
                     (ORDER BY pos {frame}) AS s FROM seq"
                ))
                .unwrap_or_else(|e| panic!("view v{i} creation failed: {e}"));
            }
            let (sql, ncols) = nested_sql(exprs, *shape, *k);
            let on = run_query(&db, &sql, true, ncols);
            let off = run_query(&db, &sql, false, ncols);
            assert_eq!(on.len(), off.len(), "row count differs\nsql: {sql}");
            for (r, (a, b)) in on.iter().zip(&off).enumerate() {
                for (c, (x, y)) in a.iter().zip(b).enumerate() {
                    assert!(
                        matches!((x, y), (Value::Int(p), Value::Int(q)) if p == q),
                        "row {r} col {c}: views-on {x:?} vs views-off {y:?}\nsql: {sql}"
                    );
                }
            }
            assert_counter_invariants(&db, &sql);

            db.set_view_rewrite(true);
            let derived = || -> u64 {
                let snapshot = db.metrics().counters_snapshot();
                (snapshot.iter())
                    .filter(|(k, _)| k.starts_with("rewrite.strategy."))
                    .map(|(_, v)| *v)
                    .sum()
            };
            let before = derived();
            let explain = db.explain(&sql).unwrap();
            let sources = explain
                .lines()
                .skip_while(|l| !l.starts_with("== physical"))
                .take_while(|l| !l.starts_with("== rewrite"))
                .map(|l| l.matches(" <- ").count() as u64)
                .sum::<u64>();
            assert_eq!(
                derived() - before,
                sources,
                "strategy counters vs EXPLAIN sources\nsql: {sql}\n{explain}"
            );
        },
    );
}
