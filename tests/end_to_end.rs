//! End-to-end integration tests: SQL text in, verified rows out, across the
//! whole stack (parser → binder → optimizer → planner/rewriter → executor →
//! storage), including materialized-view lifecycles.

use rfv_core::patterns::{self, PatternVariant};
use rfv_core::Database;
use rfv_exec::WindowMode;
use rfv_types::Value;

fn seq_db(n: i64, f: impl Fn(i64) -> f64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    for i in 1..=n {
        db.execute(&format!("INSERT INTO seq VALUES ({i}, {})", f(i)))
            .unwrap();
    }
    db
}

fn col_f64(db: &Database, sql: &str, col: usize) -> Vec<f64> {
    db.execute(sql)
        .unwrap()
        .column_f64(col)
        .unwrap()
        .into_iter()
        .map(|v| v.unwrap())
        .collect()
}

#[test]
fn full_warehouse_scenario() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE f_sales (day BIGINT PRIMARY KEY, revenue DOUBLE NOT NULL, \
         store VARCHAR(10) NOT NULL);
         INSERT INTO f_sales VALUES (1, 100.0, 'a'), (2, 150.0, 'b'), (3, 120.0, 'a'),
            (4, 90.0, 'b'), (5, 200.0, 'a'), (6, 170.0, 'b'), (7, 130.0, 'a');",
    )
    .unwrap();

    // Grouping + windows over the aggregate.
    let r = db
        .execute(
            "SELECT store, SUM(revenue) AS total, \
             SUM(SUM(revenue)) OVER (ORDER BY store ROWS UNBOUNDED PRECEDING) AS running \
             FROM f_sales GROUP BY store ORDER BY store",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(r.rows()[0].get(1), &Value::Float(550.0));
    assert_eq!(r.rows()[1].get(2), &Value::Float(960.0));

    // Join + window + filter.
    let r = db
        .execute(
            "SELECT s1.day, s1.revenue, AVG(s1.revenue) OVER (ORDER BY s1.day \
             ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS smooth \
             FROM f_sales s1 WHERE s1.store = 'a' ORDER BY s1.day",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 4);
    // day 3: avg(100, 120, 200) — positions within the filtered partition.
    assert_eq!(r.rows()[1].get(2), &Value::Float(140.0));
}

#[test]
fn every_window_query_matches_with_and_without_views() {
    let db = seq_db(60, |i| ((i * 37) % 23) as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW mv21 AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    db.execute(
        "CREATE MATERIALIZED VIEW cum AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq",
    )
    .unwrap();

    let frames = [
        "ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING",
        "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING", // exact view match
        "ROWS BETWEEN 1 PRECEDING AND 0 FOLLOWING", // narrower than the view
        "ROWS BETWEEN 9 PRECEDING AND 6 FOLLOWING", // much wider
        "ROWS UNBOUNDED PRECEDING",                 // cumulative target
        "ROWS BETWEEN 0 PRECEDING AND 0 FOLLOWING", // identity
    ];
    for frame in frames {
        let sql = format!("SELECT pos, SUM(val) OVER (ORDER BY pos {frame}) AS s FROM seq");
        db.set_view_rewrite(true);
        let derived = col_f64(&db, &sql, 1);
        db.set_view_rewrite(false);
        let direct = col_f64(&db, &sql, 1);
        assert_eq!(derived, direct, "frame: {frame}");
    }

    // Multi-expression queries: several reporting functions in one SELECT,
    // with mixed aggregates and mixed frames. Regression for the derived-
    // column offset bug in the rewriter's join/projection assembly, which
    // used to panic ("range end index out of range") on any query with
    // more than one derivable window expression.
    let multi = [
        "SELECT pos, \
         SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS a, \
         SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 0 FOLLOWING) AS b \
         FROM seq",
        "SELECT pos, \
         SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS a, \
         COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS b, \
         AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS c \
         FROM seq",
        "SELECT pos, \
         SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS a, \
         SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS b, \
         COUNT(*) OVER (ORDER BY pos ROWS BETWEEN 0 PRECEDING AND 1 FOLLOWING) AS c \
         FROM seq",
    ];
    for sql in multi {
        let ncols = sql.matches(" AS ").count();
        for col in 1..=ncols {
            db.set_view_rewrite(true);
            let derived = col_f64(&db, sql, col);
            db.set_view_rewrite(false);
            let direct = col_f64(&db, sql, col);
            assert_eq!(derived, direct, "col {col} of: {sql}");
        }
    }
}

#[test]
fn explain_names_view_and_strategy_per_expression() {
    let db = seq_db(30, |i| (i % 7) as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();

    let sql = "SELECT pos, \
               SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS a, \
               AVG(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS b \
               FROM seq";
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("== rewrite =="), "{plan}");
    assert!(plan.contains("`mv`"), "{plan}");
    assert!(plan.contains("MinOA"), "{plan}");
    assert!(plan.contains("closed-form cardinality"), "{plan}");

    // The same trace is available programmatically after execution.
    db.execute(sql).unwrap();
    let report = db.last_rewrite_report().expect("report recorded");
    assert!(report.rewritten);
    assert_eq!(report.decisions.len(), 2);

    // A non-derivable expression is reported with a fallback reason.
    let plan = db
        .explain("SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS m FROM seq")
        .unwrap();
    assert!(plan.contains("no derivation"), "{plan}");
    assert!(plan.contains("(direct)"), "{plan}");
}

/// A derived column has the type its schema declares, which is the type
/// the native operator returns: `Int` SUM/MIN/MAX/COUNT over a BIGINT
/// column, `Float` AVG. (Values compare equal across `Int`/`Float`, so the
/// variants are compared explicitly.)
#[test]
fn derived_columns_have_their_declared_type() {
    use std::mem::discriminant;

    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val BIGINT NOT NULL)")
        .unwrap();
    for i in 1..=12 {
        db.execute(&format!("INSERT INTO seq VALUES ({i}, {})", i * i % 7))
            .unwrap();
    }
    for (name, agg, frame) in [
        ("mv_sum", "SUM", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"),
        ("mv_max", "MAX", "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"),
    ] {
        db.execute(&format!(
            "CREATE MATERIALIZED VIEW {name} AS SELECT pos, {agg}(val) OVER \
             (ORDER BY pos {frame}) AS s FROM seq"
        ))
        .unwrap();
    }
    for (agg, frame) in [
        ("SUM(val)", "ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING"), // MinOA
        ("SUM(val)", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"), // exact
        ("SUM(val)", "ROWS UNBOUNDED PRECEDING"),                 // strided prefix
        ("AVG(val)", "ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING"),
        ("COUNT(val)", "ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING"),
        ("MAX(val)", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"), // MaxOA
        ("MAX(val)", "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"), // exact
    ] {
        let sql = format!("SELECT pos, {agg} OVER (ORDER BY pos {frame}) AS s FROM seq");
        db.set_view_rewrite(true);
        let derived = db.execute(&sql).unwrap();
        assert!(db.last_rewrite_report().unwrap().rewritten, "{sql}");
        db.set_view_rewrite(false);
        let native = db.execute(&sql).unwrap();
        let declared = derived.schema().fields()[1].data_type;
        assert_eq!(derived.rows().len(), 12);
        for (d, n) in derived.rows().iter().zip(native.rows()) {
            assert_eq!(d, n, "{sql}");
            assert_eq!(discriminant(d.get(1)), discriminant(n.get(1)), "{sql}");
            assert!(declared.admits(d.get(1)) && d.get(1).data_type() == Some(declared));
        }
    }
    assert_eq!(
        db.metrics().counter_value("rewrite.derive_native_fallback"),
        0
    );

    // A sum past 2^53 is not an integer f64 carries exactly: the source
    // steps aside and the native kernel's i128 accumulator answers.
    let big = Database::new();
    big.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val BIGINT NOT NULL)")
        .unwrap();
    for i in 1..=6 {
        big.execute(&format!(
            "INSERT INTO seq VALUES ({i}, {})",
            (1i64 << 52) + i
        ))
        .unwrap();
    }
    big.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let derived = big.execute(sql).unwrap();
    assert!(big.last_rewrite_report().unwrap().rewritten);
    assert_eq!(
        big.metrics()
            .counter_value("rewrite.derive_native_fallback"),
        1
    );
    assert_eq!(derived.rows()[3].get(1), &Value::Int((1i64 << 54) + 14));

    // So do results that fit while the running totals behind them do not:
    // 40 values near 10^15 sum to 4·10^16 > 2^53, every frame to 5·10^15.
    let wide = Database::new();
    wide.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val BIGINT NOT NULL)")
        .unwrap();
    for i in 1..=40i64 {
        wide.execute(&format!(
            "INSERT INTO seq VALUES ({i}, {})",
            1_000_000_000_000_000 + i * i
        ))
        .unwrap();
    }
    wide.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let derived = wide.execute(sql).unwrap();
    assert!(wide.last_rewrite_report().unwrap().rewritten);
    wide.set_view_rewrite(false);
    let native = wide.execute(sql).unwrap();
    for (d, n) in derived.rows().iter().zip(native.rows()) {
        assert_eq!(d.get(1).as_int().unwrap(), n.get(1).as_int().unwrap());
    }
}

/// The report names the candidates that lost, and why.
#[test]
fn rewrite_report_lists_candidates_passed_over() {
    let db = seq_db(20, |i| (i % 5) as f64);
    for (name, agg, frame) in [
        ("mv_sum", "SUM", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"),
        ("mv_cum", "SUM", "ROWS UNBOUNDED PRECEDING"),
        ("mv_max", "MAX", "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"),
        ("mv_wide", "MAX", "ROWS BETWEEN 4 PRECEDING AND 4 FOLLOWING"),
    ] {
        db.execute(&format!(
            "CREATE MATERIALIZED VIEW {name} AS SELECT pos, {agg}(val) OVER \
             (ORDER BY pos {frame}) AS s FROM seq"
        ))
        .unwrap();
    }
    let text = db
        .explain(
            "SELECT pos, \
             SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS a, \
             MAX(val) OVER (ORDER BY pos ROWS BETWEEN 5 PRECEDING AND 5 FOLLOWING) AS b \
             FROM seq",
        )
        .unwrap();
    assert!(text.contains("<- view `mv_cum` via"), "{text}");
    assert!(text.contains("two-point"), "{text}");
    assert!(
        text.contains("passed over `mv_sum`: sliding(2,1); cumulative `mv_cum` preferred"),
        "{text}"
    );
    assert!(text.contains("<- view `mv_wide` via MaxOA"), "{text}");
    assert!(text.contains("passed over `mv_max`: "), "{text}");
    assert!(text.contains("Δl=4"), "{text}");
    let report = db.last_rewrite_report().unwrap();
    assert_eq!(report.decisions[0].passed_over.len(), 1);
    assert_eq!(report.decisions[1].passed_over.len(), 1);
}

/// The engine's derived answer, the three Fig. 13 join-pattern variants
/// run over the view's mirror table in the engine's own catalog, and the
/// native operator in both window modes all agree.
#[test]
fn all_pattern_variants_and_window_modes_agree() {
    let db = seq_db(50, |i| (i % 11) as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 5 PRECEDING \
               AND 4 FOLLOWING) AS s FROM seq";

    let derived = col_f64(&db, sql, 1);
    assert!(db.last_rewrite_report().unwrap().rewritten);
    for variant in [
        PatternVariant::Disjunctive,
        PatternVariant::UnionSimple,
        PatternVariant::UnionHash,
    ] {
        let plan = patterns::minoa_pattern(db.catalog(), "mv", 3, 2, 5, 4, 50, variant).unwrap();
        let mut rows = plan.execute().unwrap();
        rows.sort_by_key(|r| r.get(0).as_int().unwrap());
        let pattern: Vec<f64> = rows
            .iter()
            .map(|r| r.get(1).as_f64().unwrap().unwrap())
            .collect();
        assert_eq!(pattern, derived, "{variant:?}");
    }
    db.set_view_rewrite(false);
    for mode in [WindowMode::Naive, WindowMode::Pipelined] {
        db.set_window_mode(mode);
        assert_eq!(col_f64(&db, sql, 1), derived, "{mode:?}");
    }
}

#[test]
fn min_max_views_and_queries() {
    let db = seq_db(40, |i| ((i * 17) % 29) as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW vmin AS SELECT pos, MIN(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS m FROM seq",
    )
    .unwrap();
    for frame in [
        "ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING",
        "ROWS BETWEEN 2 PRECEDING AND 4 FOLLOWING",
        "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING",
    ] {
        let sql = format!("SELECT pos, MIN(val) OVER (ORDER BY pos {frame}) AS m FROM seq");
        db.set_view_rewrite(true);
        let derived = col_f64(&db, &sql, 1);
        db.set_view_rewrite(false);
        let direct = col_f64(&db, &sql, 1);
        assert_eq!(derived, direct, "frame: {frame}");
    }
    // A MIN query too wide for MaxOA coverage silently falls back.
    let sql = "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 20 PRECEDING \
               AND 0 FOLLOWING) AS m FROM seq";
    db.set_view_rewrite(true);
    let wide = col_f64(&db, sql, 1);
    db.set_view_rewrite(false);
    assert_eq!(wide, col_f64(&db, sql, 1));
}

#[test]
fn avg_queries_from_sum_views() {
    let db = seq_db(25, |i| (i * 3 % 13) as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    for frame in [
        "ROWS BETWEEN 4 PRECEDING AND 2 FOLLOWING",
        "ROWS UNBOUNDED PRECEDING",
    ] {
        let sql = format!("SELECT pos, AVG(val) OVER (ORDER BY pos {frame}) AS a FROM seq");
        db.set_view_rewrite(true);
        let derived = col_f64(&db, &sql, 1);
        db.set_view_rewrite(false);
        let direct = col_f64(&db, &sql, 1);
        assert_eq!(derived.len(), direct.len());
        for (a, b) in derived.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9, "frame {frame}: {a} vs {b}");
        }
    }
}

#[test]
fn maintenance_storm_keeps_all_views_consistent() {
    let db = seq_db(30, |i| i as f64);
    for (name, frame) in [
        ("v1", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"),
        ("v2", "ROWS BETWEEN 0 PRECEDING AND 3 FOLLOWING"),
        ("v3", "ROWS UNBOUNDED PRECEDING"),
    ] {
        db.execute(&format!(
            "CREATE MATERIALIZED VIEW {name} AS SELECT pos, SUM(val) OVER \
             (ORDER BY pos {frame}) AS s FROM seq"
        ))
        .unwrap();
    }
    // A mixed batch of maintenance operations.
    db.sequence_update("seq", 10, -5.0).unwrap();
    db.sequence_insert("seq", 1, 42.0).unwrap();
    db.sequence_insert("seq", 16, 7.5).unwrap();
    db.sequence_delete("seq", 30).unwrap();
    db.sequence_delete("seq", 2).unwrap();
    db.sequence_update("seq", 30, 0.25).unwrap();
    db.execute("INSERT INTO seq VALUES (31, 3.5)").unwrap();

    for frame in [
        "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING",
        "ROWS BETWEEN 0 PRECEDING AND 3 FOLLOWING",
        "ROWS UNBOUNDED PRECEDING",
        "ROWS BETWEEN 5 PRECEDING AND 2 FOLLOWING", // derived via MinOA
    ] {
        let sql = format!("SELECT pos, SUM(val) OVER (ORDER BY pos {frame}) AS s FROM seq");
        db.set_view_rewrite(true);
        let derived = col_f64(&db, &sql, 1);
        db.set_view_rewrite(false);
        let direct = col_f64(&db, &sql, 1);
        assert_eq!(derived, direct, "frame {frame}");
    }
    // The maintenance counters saw every operation of the storm.
    let m = db.metrics();
    assert_eq!(m.counter_value("maintenance.update"), 2);
    assert_eq!(m.counter_value("maintenance.insert"), 3); // 2 sequence + 1 SQL
    assert_eq!(m.counter_value("maintenance.delete"), 2);
    assert_eq!(m.counter_value("view.created"), 3);
}

#[test]
fn queries_that_must_not_be_rewritten() {
    let db = seq_db(20, |i| i as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    // WHERE clause changes the base data set → rewrite must not fire, and
    // results must still be correct.
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq WHERE pos > 5";
    let explain = db.explain(sql).unwrap();
    assert!(explain.contains("(direct)"), "{explain}");
    let r = db.execute(sql).unwrap();
    assert_eq!(r.rows().len(), 15);
    // DESC ordering is outside the view model.
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos DESC ROWS BETWEEN 2 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    assert!(db.explain(sql).unwrap().contains("(direct)"));
    // Partitioned windows are outside the (simple) view model.
    let sql = "SELECT pos, SUM(val) OVER (PARTITION BY pos % 2 ORDER BY pos \
               ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq";
    assert!(db.explain(sql).unwrap().contains("(direct)"));
}

#[test]
fn view_mirror_tables_are_directly_queryable() {
    let db = seq_db(10, |i| i as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    // Header rows (pos ≤ 0) and trailer rows (pos > n) are visible.
    let r = db
        .execute("SELECT pos, val FROM mv WHERE pos <= 0 ORDER BY pos")
        .unwrap();
    assert_eq!(r.rows().len(), 1, "h = 1 header row (pos 0)");
    let r = db
        .execute("SELECT pos, val FROM mv WHERE pos > 10 ORDER BY pos")
        .unwrap();
    assert_eq!(r.rows().len(), 2, "l = 2 trailer rows");
    // Completeness: header value equals the clipped window sum.
    let r = db.execute("SELECT val FROM mv WHERE pos = 0").unwrap();
    assert_eq!(
        r.rows()[0].get(0),
        &Value::Float(1.0),
        "window [-2,1] clips to x1"
    );
}

#[test]
fn plain_tables_and_views_coexist() {
    let db = seq_db(8, |i| i as f64);
    db.execute("CREATE TABLE other (k BIGINT PRIMARY KEY, tag VARCHAR(5))")
        .unwrap();
    db.execute("INSERT INTO other VALUES (1, 'x'), (2, 'y')")
        .unwrap();
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    // Join the view mirror with a plain table.
    let r = db
        .execute("SELECT o.tag, m.val FROM other o JOIN mv m ON m.pos = o.k ORDER BY o.k")
        .unwrap();
    assert_eq!(r.rows().len(), 2);
    assert_eq!(r.rows()[0].get(1), &Value::Float(3.0));
}

#[test]
fn ranking_functions_row_number_rank_dense_rank() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE scores (id BIGINT PRIMARY KEY, team VARCHAR(5) NOT NULL, \
                pts BIGINT NOT NULL)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO scores VALUES (1, 'a', 10), (2, 'a', 20), (3, 'a', 20), \
         (4, 'a', 30), (5, 'b', 5), (6, 'b', 5)",
    )
    .unwrap();
    let r = db
        .execute(
            "SELECT team, pts, ROW_NUMBER() OVER (PARTITION BY team ORDER BY pts) AS rn, \
             RANK() OVER (PARTITION BY team ORDER BY pts) AS rk, \
             DENSE_RANK() OVER (PARTITION BY team ORDER BY pts) AS dr \
             FROM scores ORDER BY team, pts, rn",
        )
        .unwrap();
    let got: Vec<(String, i64, i64, i64, i64)> = r
        .rows()
        .iter()
        .map(|row| {
            (
                row.get(0).to_string(),
                row.get(1).as_int().unwrap().unwrap(),
                row.get(2).as_int().unwrap().unwrap(),
                row.get(3).as_int().unwrap().unwrap(),
                row.get(4).as_int().unwrap().unwrap(),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            ("a".into(), 10, 1, 1, 1),
            ("a".into(), 20, 2, 2, 2),
            ("a".into(), 20, 3, 2, 2),
            ("a".into(), 30, 4, 4, 3),
            ("b".into(), 5, 1, 1, 1),
            ("b".into(), 5, 2, 1, 1),
        ]
    );
}

#[test]
fn top_n_per_group_via_rank_subquery() {
    // The TOP(n) analysis from the paper's abstract, as a derived table.
    let db = Database::new();
    db.execute(
        "CREATE TABLE sales (id BIGINT PRIMARY KEY, store VARCHAR(5) NOT NULL, \
                rev BIGINT NOT NULL)",
    )
    .unwrap();
    for (id, store, rev) in [
        (1, "x", 100),
        (2, "x", 300),
        (3, "x", 200),
        (4, "y", 50),
        (5, "y", 70),
        (6, "y", 60),
    ] {
        db.execute(&format!(
            "INSERT INTO sales VALUES ({id}, '{store}', {rev})"
        ))
        .unwrap();
    }
    let r = db
        .execute(
            "SELECT t.store, t.rev FROM (SELECT store, rev, \
             RANK() OVER (PARTITION BY store ORDER BY rev DESC) AS rk FROM sales) t \
             WHERE t.rk <= 2 ORDER BY t.store, t.rev DESC",
        )
        .unwrap();
    let got: Vec<(String, i64)> = r
        .rows()
        .iter()
        .map(|row| {
            (
                row.get(0).to_string(),
                row.get(1).as_int().unwrap().unwrap(),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            ("x".into(), 300),
            ("x".into(), 200),
            ("y".into(), 70),
            ("y".into(), 60)
        ]
    );
}

#[test]
fn ranking_functions_reject_frames_and_unknown_names() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT)").unwrap();
    let err = db
        .execute("SELECT RANK() OVER (ORDER BY a ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM t")
        .unwrap_err();
    assert!(err.to_string().contains("frame"), "{err}");
    let err = db
        .execute("SELECT RANK() OVER (PARTITION BY a) FROM t")
        .unwrap_err();
    assert!(err.to_string().contains("ORDER BY"), "{err}");
    assert!(db
        .execute("SELECT NTILE() OVER (ORDER BY a) FROM t")
        .is_err());
}

#[test]
fn partitioned_views_same_partitioning_rewrite() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE pseq (region VARCHAR(8) NOT NULL, pos BIGINT NOT NULL, \
         val DOUBLE NOT NULL)",
    )
    .unwrap();
    for (region, n) in [("north", 12i64), ("south", 7), ("west", 20)] {
        for pos in 1..=n {
            db.execute(&format!(
                "INSERT INTO pseq VALUES ('{region}', {pos}, {})",
                ((pos * 13) % 9) as f64
            ))
            .unwrap();
        }
    }
    db.execute(
        "CREATE MATERIALIZED VIEW pmv AS SELECT region, pos, SUM(val) OVER \
         (PARTITION BY region ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) \
         AS s FROM pseq",
    )
    .unwrap();
    assert!(db.registry().get("pmv").unwrap().is_partitioned());

    for frame in [
        "ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING",
        "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING", // exact
        "ROWS BETWEEN 6 PRECEDING AND 4 FOLLOWING", // wide
        "ROWS BETWEEN 1 PRECEDING AND 0 FOLLOWING", // narrower
    ] {
        let sql = format!(
            "SELECT region, pos, SUM(val) OVER (PARTITION BY region ORDER BY pos \
             {frame}) AS s FROM pseq"
        );
        db.set_view_rewrite(true);
        let derived = col_f64(&db, &sql, 2);
        assert!(
            db.explain(&sql).unwrap().contains("(view rewrite)"),
            "{}",
            db.explain(&sql).unwrap()
        );
        db.set_view_rewrite(false);
        let direct = col_f64(&db, &sql, 2);
        assert_eq!(derived, direct, "frame {frame}");
    }
}

#[test]
fn partitioned_views_partitioning_reduction_rewrite() {
    let db = Database::new();
    db.execute("CREATE TABLE months (m BIGINT NOT NULL, pos BIGINT NOT NULL, val DOUBLE NOT NULL)")
        .unwrap();
    for m in 1..=4i64 {
        for pos in 1..=5i64 {
            db.execute(&format!(
                "INSERT INTO months VALUES ({m}, {pos}, {})",
                (m * 10 + pos) as f64
            ))
            .unwrap();
        }
    }
    db.execute(
        "CREATE MATERIALIZED VIEW mmv AS SELECT m, pos, SUM(val) OVER \
         (PARTITION BY m ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) \
         AS s FROM months",
    )
    .unwrap();
    // §6.2: drop the partitioning — order globally by (m, pos).
    let sql = "SELECT m, pos, SUM(val) OVER (ORDER BY m, pos \
               ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS s FROM months";
    db.set_view_rewrite(true);
    let derived = col_f64(&db, sql, 2);
    assert!(db.explain(sql).unwrap().contains("(view rewrite)"));
    db.set_view_rewrite(false);
    let direct = col_f64(&db, sql, 2);
    assert_eq!(derived, direct);
}

#[test]
fn partitioned_view_stays_fresh_under_inserts() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE pseq (g VARCHAR(4) NOT NULL, pos BIGINT NOT NULL, val DOUBLE NOT NULL)",
    )
    .unwrap();
    for pos in 1..=6i64 {
        db.execute(&format!(
            "INSERT INTO pseq VALUES ('a', {pos}, {})",
            pos as f64
        ))
        .unwrap();
    }
    db.execute(
        "CREATE MATERIALIZED VIEW pmv AS SELECT g, pos, SUM(val) OVER \
         (PARTITION BY g ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s \
         FROM pseq",
    )
    .unwrap();
    // New partition + extension of the existing one through plain INSERT
    // (partitioned views are rematerialized).
    db.execute("INSERT INTO pseq VALUES ('b', 1, 100.0), ('b', 2, 200.0)")
        .unwrap();
    db.execute("INSERT INTO pseq VALUES ('a', 7, 7.0)").unwrap();
    let sql = "SELECT g, pos, SUM(val) OVER (PARTITION BY g ORDER BY pos \
               ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM pseq";
    db.set_view_rewrite(true);
    let derived = col_f64(&db, sql, 2);
    db.set_view_rewrite(false);
    let direct = col_f64(&db, sql, 2);
    assert_eq!(derived, direct);
}

#[test]
fn sql_update_and_delete() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT NOT NULL)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
        .unwrap();

    let r = db.execute("UPDATE t SET v = v + 1 WHERE id >= 3").unwrap();
    assert_eq!(r.command_tag(), Some("UPDATE"));
    assert_eq!(r.affected_rows(), Some(2), "UPDATE reports affected rows");
    let r = db.execute("SELECT v FROM t ORDER BY id").unwrap();
    let vals: Vec<i64> = r
        .rows()
        .iter()
        .map(|x| x.get(0).as_int().unwrap().unwrap())
        .collect();
    assert_eq!(vals, vec![10, 20, 31, 41]);
    // Queries and DDL carry no command tag.
    assert_eq!(r.command_tag(), None);
    assert_eq!(r.affected_rows(), None);

    let r = db.execute("DELETE FROM t WHERE v > 30").unwrap();
    assert_eq!(
        (r.command_tag(), r.affected_rows()),
        (Some("DELETE"), Some(2)),
        "31 and 41 both exceed 30"
    );
    assert_eq!(db.execute("SELECT id FROM t").unwrap().rows().len(), 2);

    // A no-op UPDATE still reports (zero) affected rows.
    let r = db.execute("UPDATE t SET v = 0 WHERE id > 999").unwrap();
    assert_eq!(r.affected_rows(), Some(0));

    // UPDATE without WHERE touches everything; multi-assignment works.
    let r = db.execute("UPDATE t SET v = 0, id = id + 100").unwrap();
    assert_eq!(r.affected_rows(), Some(2));
    let r = db.execute("SELECT id, v FROM t ORDER BY id").unwrap();
    assert!(r.rows().iter().all(|x| x.get(1) == &Value::Int(0)));
    assert_eq!(r.rows()[0].get(0), &Value::Int(101));

    // INSERT reports how many rows landed.
    let r = db.execute("INSERT INTO t VALUES (5, 50), (6, 60)").unwrap();
    assert_eq!(
        (r.command_tag(), r.affected_rows()),
        (Some("INSERT"), Some(2))
    );

    // DELETE without WHERE empties the table.
    let r = db.execute("DELETE FROM t").unwrap();
    assert_eq!(r.affected_rows(), Some(4));
    assert!(db.execute("SELECT * FROM t").unwrap().rows().is_empty());
}

#[test]
fn dml_on_simple_view_bases_is_guarded() {
    let db = seq_db(5, |i| i as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let err = db
        .execute("UPDATE seq SET val = 0.0 WHERE pos = 2")
        .unwrap_err();
    assert!(err.to_string().contains("sequence_update"), "{err}");
    let err = db.execute("DELETE FROM seq WHERE pos = 2").unwrap_err();
    assert!(err.to_string().contains("sequence_update"), "{err}");
}

#[test]
fn dml_on_partitioned_view_bases_rematerializes() {
    let db = Database::new();
    db.execute("CREATE TABLE p (g BIGINT NOT NULL, pos BIGINT NOT NULL, val DOUBLE NOT NULL)")
        .unwrap();
    for g in 1..=2i64 {
        for pos in 1..=5i64 {
            db.execute(&format!(
                "INSERT INTO p VALUES ({g}, {pos}, {})",
                (g * pos) as f64
            ))
            .unwrap();
        }
    }
    db.execute(
        "CREATE MATERIALIZED VIEW pv AS SELECT g, pos, SUM(val) OVER \
         (PARTITION BY g ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s \
         FROM p",
    )
    .unwrap();
    db.execute("UPDATE p SET val = 99.0 WHERE g = 1 AND pos = 3")
        .unwrap();
    let sql = "SELECT g, pos, SUM(val) OVER (PARTITION BY g ORDER BY pos \
               ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM p";
    db.set_view_rewrite(true);
    let derived = col_f64(&db, sql, 2);
    db.set_view_rewrite(false);
    let direct = col_f64(&db, sql, 2);
    assert_eq!(derived, direct);
}

#[test]
fn count_queries_use_closed_form_position_arithmetic() {
    let db = seq_db(20, |i| (i % 7) as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    for (func, frame) in [
        ("COUNT(val)", "ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING"),
        ("COUNT(*)", "ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING"),
        ("COUNT(*)", "ROWS UNBOUNDED PRECEDING"),
    ] {
        let sql = format!("SELECT pos, {func} OVER (ORDER BY pos {frame}) AS c FROM seq");
        db.set_view_rewrite(true);
        let derived = db.execute(&sql).unwrap();
        assert!(
            db.explain(&sql).unwrap().contains("(view rewrite)"),
            "{func} {frame} not rewritten:\n{}",
            db.explain(&sql).unwrap()
        );
        db.set_view_rewrite(false);
        let direct = db.execute(&sql).unwrap();
        let a: Vec<i64> = derived
            .rows()
            .iter()
            .map(|r| r.get(1).as_int().unwrap().unwrap())
            .collect();
        let b: Vec<i64> = direct
            .rows()
            .iter()
            .map(|r| r.get(1).as_int().unwrap().unwrap())
            .collect();
        assert_eq!(a, b, "{func} {frame}");
    }
}

#[test]
fn count_over_nullable_column_is_not_rewritten() {
    let db = Database::new();
    // `val` is nullable here: COUNT(val) must fall back to the window
    // operator because the closed form would overcount NULLs.
    db.execute("CREATE TABLE nseq (pos BIGINT PRIMARY KEY, val DOUBLE)")
        .unwrap();
    for i in 1..=6 {
        if i == 3 {
            db.execute(&format!("INSERT INTO nseq VALUES ({i}, NULL)"))
                .unwrap();
        } else {
            db.execute(&format!("INSERT INTO nseq VALUES ({i}, {i}.0)"))
                .unwrap();
        }
    }
    let sql = "SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING \
               AND 1 FOLLOWING) AS c FROM nseq";
    assert!(db.explain(sql).unwrap().contains("(direct)"));
    let r = db.execute(sql).unwrap();
    // Around the NULL at pos 3, counts drop.
    let c: Vec<i64> = r
        .rows()
        .iter()
        .map(|x| x.get(1).as_int().unwrap().unwrap())
        .collect();
    assert_eq!(c, vec![2, 2, 2, 2, 3, 2]);
}

#[test]
fn multi_column_partitioning_and_prefix_reduction() {
    // §6.2 in full: a view partitioned by (region, month); queries at every
    // reduction level — same partitioning, partial reduction (keep region),
    // and full reduction — all answered from the one view.
    let db = Database::new();
    db.execute(
        "CREATE TABLE m (region VARCHAR(8) NOT NULL, mth BIGINT NOT NULL, \
         pos BIGINT NOT NULL, val DOUBLE NOT NULL)",
    )
    .unwrap();
    for region in ["east", "west"] {
        for mth in 1..=3i64 {
            for pos in 1..=4i64 {
                db.execute(&format!(
                    "INSERT INTO m VALUES ('{region}', {mth}, {pos}, {})",
                    (mth * 10 + pos) as f64
                ))
                .unwrap();
            }
        }
    }
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT region, mth, pos, SUM(val) OVER \
         (PARTITION BY region, mth ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 \
         FOLLOWING) AS s FROM m",
    )
    .unwrap();
    let view = db.registry().get("mv").unwrap();
    assert_eq!(
        view.partition_columns,
        vec!["region".to_string(), "mth".to_string()]
    );

    let queries = [
        // Same partitioning, wider window.
        "SELECT region, mth, pos, SUM(val) OVER (PARTITION BY region, mth \
         ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM m",
        // Partial reduction: keep region, months merge into the ordering.
        "SELECT region, mth, pos, SUM(val) OVER (PARTITION BY region \
         ORDER BY mth, pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS s FROM m",
        // Full reduction: global ordering over (region, mth, pos).
        "SELECT region, mth, pos, SUM(val) OVER (ORDER BY region, mth, pos \
         ROWS BETWEEN 5 PRECEDING AND 2 FOLLOWING) AS s FROM m",
    ];
    for sql in queries {
        db.set_view_rewrite(true);
        let derived = col_f64(&db, sql, 3);
        assert!(
            db.explain(sql).unwrap().contains("(view rewrite)"),
            "not rewritten: {sql}\n{}",
            db.explain(sql).unwrap()
        );
        db.set_view_rewrite(false);
        let direct = col_f64(&db, sql, 3);
        assert_eq!(derived, direct, "{sql}");
    }

    // A query partitioned by a non-prefix column set must NOT be rewritten
    // (mth alone is not a prefix of (region, mth)).
    let sql = "SELECT mth, pos, SUM(val) OVER (PARTITION BY mth ORDER BY region, pos \
               ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM m";
    assert!(
        db.explain(sql).unwrap().contains("(direct)"),
        "{}",
        db.explain(sql).unwrap()
    );
}

#[test]
fn refresh_views_after_bulk_load() {
    let db = seq_db(5, |i| i as f64);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    // Bulk-load new rows directly through the catalog (bypassing the
    // engine's maintenance hooks), then refresh wholesale.
    {
        let t = db.catalog().table("seq").unwrap();
        let mut g = t.write();
        for i in 6..=12i64 {
            g.insert(rfv_types::Row::new(vec![
                Value::Int(i),
                Value::Float((i * 2) as f64),
            ]))
            .unwrap();
        }
    }
    db.refresh_views("seq").unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    db.set_view_rewrite(true);
    let derived = col_f64(&db, sql, 1);
    assert_eq!(derived.len(), 12);
    db.set_view_rewrite(false);
    assert_eq!(derived, col_f64(&db, sql, 1));
}

/// `t(id BIGINT PRIMARY KEY, x DOUBLE)` with x = 1.0, 2.0, 2.6, 3.2, 4.0, 5.5.
fn float_key_db() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, x DOUBLE);
         INSERT INTO t VALUES (1, 1.0), (2, 2.0), (3, 2.6), (4, 3.2), (5, 4.0), (6, 5.5);",
    )
    .unwrap();
    db
}

fn explain(db: &Database, sql: &str) -> String {
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    let lines: Vec<String> = plan.rows().iter().map(|r| r.get(0).to_string()).collect();
    lines.join("\n")
}

/// A strict bound on an indexed column is not `± 1`: between 1.5 and 3.5
/// lie 2.0, 2.6 and 3.2, index or no index — in a scan and in a join probe.
#[test]
fn strict_bounds_on_an_indexed_float_column_keep_their_rows() {
    let scan = "SELECT id, x FROM t WHERE x > 1.5 AND x < 3.5 ORDER BY id";
    let join = "SELECT a.id, b.id FROM t a JOIN t b ON b.x > a.x AND b.x < a.x + 1.5 \
                ORDER BY a.id, b.id";
    let plain = float_key_db();
    let indexed = float_key_db();
    indexed.execute("CREATE INDEX ix ON t (x)").unwrap();

    let plan = explain(&indexed, scan);
    assert!(
        plan.contains("IndexRangeScan: t col#1 (1.5 .. 3.5)"),
        "{plan}"
    );
    let rows = indexed.execute(scan).unwrap();
    assert_eq!(col_f64(&indexed, scan, 1), vec![2.0, 2.6, 3.2]);
    assert_eq!(rows.rows(), plain.execute(scan).unwrap().rows());

    let plan = explain(&indexed, join);
    assert!(plan.contains("IndexNestedLoopJoin"), "{plan}");
    assert!(plan.contains("key in (#1 .. (#1 + 1.5))"), "{plan}");
    let pairs = indexed.execute(join).unwrap();
    assert_eq!(pairs.rows(), plain.execute(join).unwrap().rows());
    // 1.0 → 2.0; 2.0 → 2.6, 3.2; 2.6 → 3.2, 4.0; 3.2 → 4.0; 4.0 → (5.5 is 1.5 away).
    assert_eq!(pairs.rows().len(), 6);

    // Inclusive and half-open ranges print as what they are.
    for (predicate, range) in [
        ("x >= 2 AND x <= 3", "[2 .. 3]"),
        ("x <= 2.6", "(-inf .. 2.6]"),
        ("x > 4", "(4 .. +inf)"),
    ] {
        let sql = format!("SELECT id FROM t WHERE {predicate}");
        let plan = explain(&indexed, &sql);
        assert!(
            plan.contains(&format!("col#1 {range}")),
            "{predicate}: {plan}"
        );
        let (got, want) = (indexed.execute(&sql).unwrap(), plain.execute(&sql).unwrap());
        assert_eq!(got.rows().len(), want.rows().len(), "{predicate}");
    }
}

/// A conjunct only leaves the residual when the index probe implies all of
/// it: `id >= 1` takes the low end, so `BETWEEN 5 AND 7` must still filter.
#[test]
fn a_half_absorbed_between_still_filters() {
    let db = float_key_db();
    db.execute("INSERT INTO t VALUES (7, 7.0), (8, 8.0)")
        .unwrap();
    let sql = "SELECT id FROM t WHERE id >= 1 AND id BETWEEN 5 AND 7 ORDER BY id";
    let ids = db.execute(sql).unwrap();
    let ids: Vec<i64> = (ids.rows().iter())
        .map(|r| r.get(0).as_int().unwrap().unwrap())
        .collect();
    assert_eq!(ids, vec![5, 6, 7], "{}", explain(&db, sql));
}

/// One random key table, twice: key kind, nullability, index kind, rows
/// `(key choice, deleted afterwards)`, and reads `(shape, lo, hi, ordered)`.
type IndexCase = (bool, bool, bool, Vec<(u8, bool)>, Vec<(u8, u8, u8, bool)>);

/// Differential test of index use on the read path: every constant range
/// predicate (one- or two-sided, strict or inclusive, integer, float, zero
/// or NULL bounds), with and without `ORDER BY key`, reads the same rows
/// from an indexed table as from its index-less twin — in the same order
/// when ordered, as multisets otherwise.
#[test]
fn index_reads_match_an_index_less_twin() {
    use rfv_testkit::{check, gen, Rng};

    const INT_KEYS: [&str; 8] = ["-3", "-1", "0", "1", "2", "3", "5", "8"];
    const FLOAT_KEYS: [&str; 8] = ["-1.5", "-0.0", "0.0", "0.5", "1.0", "2.5", "2.6", "3.0"];
    const BOUNDS: [&str; 10] = [
        "-2", "0", "0.0", "-0.0", "1", "2.5", "2.6", "3", "6", "NULL",
    ];

    let case = |rng: &mut Rng| -> IndexCase {
        let rows = gen::vec_of(|r: &mut Rng| (r.u64_below(10) as u8, r.chance(1, 5)), 0, 14)(rng);
        let read = |r: &mut Rng| {
            let bound = |r: &mut Rng| r.u64_below(BOUNDS.len() as u64) as u8;
            (r.u64_below(9) as u8, bound(r), bound(r), r.bool())
        };
        (
            rng.bool(),
            rng.bool(),
            rng.bool(),
            rows,
            gen::vec_of(read, 1, 8)(rng),
        )
    };
    check(
        "index reads ≡ index-less twin",
        case,
        |(floats, nullable, unique, rows, reads)| {
            let keys = if *floats { FLOAT_KEYS } else { INT_KEYS };
            let build = |index: bool| {
                let db = Database::new();
                db.execute(&format!(
                    "CREATE TABLE t (k {}{}, v BIGINT NOT NULL)",
                    if *floats { "DOUBLE" } else { "BIGINT" },
                    if *nullable { "" } else { " NOT NULL" },
                ))
                .unwrap();
                if index {
                    let kind = if *unique { "UNIQUE INDEX" } else { "INDEX" };
                    db.execute(&format!("CREATE {kind} ON t (k)")).unwrap();
                }
                let mut seen = std::collections::HashSet::new();
                for (v, &(choice, deleted)) in rows.iter().enumerate() {
                    let key = match keys.get(choice as usize) {
                        Some(key) if !*unique || seen.insert(*key) => *key,
                        Some(_) => continue,
                        None if *nullable => "NULL",
                        None => continue,
                    };
                    db.execute(&format!("INSERT INTO t VALUES ({key}, {v})"))
                        .unwrap();
                    if deleted {
                        db.execute(&format!("DELETE FROM t WHERE v = {v}")).unwrap();
                    }
                }
                db
            };
            let (indexed, plain) = (build(true), build(false));
            for &(shape, lo, hi, ordered) in reads {
                let (lo, hi) = (BOUNDS[lo as usize], BOUNDS[hi as usize]);
                let predicate = match shape {
                    0 => format!("k > {lo}"),
                    1 => format!("k >= {lo}"),
                    2 => format!("k < {hi}"),
                    3 => format!("{hi} >= k"),
                    4 => format!("k > {lo} AND k < {hi}"),
                    5 => format!("k >= {lo} AND k < {hi}"),
                    6 => format!("k BETWEEN {lo} AND {hi}"),
                    7 => format!("k = {lo}"),
                    _ => format!("k >= {lo} AND k BETWEEN {lo} AND {hi} AND v <> 3"),
                };
                let order = if ordered { " ORDER BY k" } else { "" };
                let sql = format!("SELECT k, v FROM t WHERE {predicate}{order}");
                let read = |db: &Database| -> Vec<String> {
                    let rows = db.execute(&sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
                    rows.rows()
                        .iter()
                        .map(|r| format!("{:?}", r.values()))
                        .collect()
                };
                let (mut got, mut want) = (read(&indexed), read(&plain));
                if !ordered {
                    got.sort();
                    want.sort();
                }
                assert_eq!(got, want, "{sql}\n{}", explain(&indexed, &sql));
            }
            // Whole-table reads in key order (NULL keys first, if any).
            let sql = "SELECT k, v FROM t ORDER BY k";
            let all = |db: &Database| format!("{:?}", db.execute(sql).unwrap().rows());
            assert_eq!(all(&indexed), all(&plain), "{}", explain(&indexed, sql));
        },
    );
}
