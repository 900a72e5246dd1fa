use super::*;
use crate::maintenance::{BatchOp, MaintBatch};
use crate::patterns::{minoa_pattern, PatternVariant};
use rfv_types::Value;

fn db_with_seq(n: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    for i in 1..=n {
        db.execute(&format!("INSERT INTO seq VALUES ({i}, {})", i as f64))
            .unwrap();
    }
    db
}

fn vals(r: &QueryResult, col: usize) -> Vec<f64> {
    r.column_f64(col)
        .unwrap()
        .into_iter()
        .map(|v| v.unwrap())
        .collect()
}

#[test]
fn ddl_dml_query_round_trip() {
    let db = db_with_seq(5);
    let r = db.execute("SELECT pos, val FROM seq ORDER BY pos").unwrap();
    assert_eq!(r.rows().len(), 5);
    assert_eq!(vals(&r, 1), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
}

#[test]
fn window_query_without_views() {
    let db = db_with_seq(5);
    db.set_view_rewrite(false);
    let r = db
        .execute(
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING \
             AND 1 FOLLOWING) AS s FROM seq",
        )
        .unwrap();
    assert_eq!(vals(&r, 1), vec![3.0, 6.0, 9.0, 12.0, 9.0]);
}

#[test]
fn materialized_view_is_recognized_and_mirrored() {
    let db = db_with_seq(6);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    assert!(db.registry().get("mv").is_some());
    // Mirror table queryable, includes header/trailer rows.
    let r = db.execute("SELECT pos, val FROM mv ORDER BY pos").unwrap();
    assert_eq!(r.rows().len(), 6 + 2 + 1); // body + l trailer + h header
}

#[test]
fn query_answered_from_view_matches_direct() {
    let db = db_with_seq(30);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let rewritten = db.execute(sql).unwrap();
    db.set_view_rewrite(false);
    let direct = db.execute(sql).unwrap();
    assert_eq!(vals(&rewritten, 1), vals(&direct, 1));
    db.set_view_rewrite(true);
    let explain = db.explain(sql).unwrap();
    assert!(explain.contains("view rewrite"), "{explain}");
}

#[test]
fn exact_match_reads_view_body() {
    let db = db_with_seq(10);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let r = db.execute(sql).unwrap();
    db.set_view_rewrite(false);
    let direct = db.execute(sql).unwrap();
    assert_eq!(vals(&r, 1), vals(&direct, 1));
}

#[test]
fn cumulative_view_answers_sliding_queries() {
    let db = db_with_seq(12);
    db.execute(
        "CREATE MATERIALIZED VIEW cv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING \
               AND 2 FOLLOWING) AS s FROM seq";
    let rewritten = db.execute(sql).unwrap();
    db.set_view_rewrite(false);
    let direct = db.execute(sql).unwrap();
    assert_eq!(vals(&rewritten, 1), vals(&direct, 1));
}

#[test]
fn minmax_views() {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    for (i, v) in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0].iter().enumerate() {
        db.execute(&format!("INSERT INTO seq VALUES ({}, {v})", i + 1))
            .unwrap();
    }
    db.execute(
        "CREATE MATERIALIZED VIEW mx AS SELECT pos, MAX(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS m FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
               AND 2 FOLLOWING) AS m FROM seq";
    let rewritten = db.execute(sql).unwrap();
    db.set_view_rewrite(false);
    let direct = db.execute(sql).unwrap();
    assert_eq!(vals(&rewritten, 1), vals(&direct, 1));
}

#[test]
fn avg_from_sum_view() {
    let db = db_with_seq(15);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
               AND 1 FOLLOWING) AS a FROM seq";
    let rewritten = db.execute(sql).unwrap();
    db.set_view_rewrite(false);
    let direct = db.execute(sql).unwrap();
    let (a, b) = (vals(&rewritten, 1), vals(&direct, 1));
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
    }
}

#[test]
fn incremental_maintenance_keeps_views_fresh() {
    let db = db_with_seq(10);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    db.sequence_update("seq", 5, 50.0).unwrap();
    db.sequence_insert("seq", 3, 30.0).unwrap();
    db.sequence_delete("seq", 1).unwrap();
    // Append through SQL is also maintained.
    db.execute("INSERT INTO seq VALUES (11, 110.0)").unwrap();

    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let from_view = db.execute(sql).unwrap();
    db.set_view_rewrite(false);
    let direct = db.execute(sql).unwrap();
    assert_eq!(vals(&from_view, 1), vals(&direct, 1));
}

#[test]
fn sql_mid_insert_on_viewed_table_is_rejected() {
    let db = db_with_seq(5);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let err = db.execute("INSERT INTO seq VALUES (3, 9.0)").unwrap_err();
    assert!(err.to_string().contains("sequence_insert"), "{err}");
}

#[test]
fn drop_protection_and_view_drop() {
    let db = db_with_seq(3);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    assert!(db.execute("DROP TABLE seq").is_err());
    db.execute("DROP TABLE mv").unwrap();
    assert!(db.registry().get("mv").is_none());
    db.execute("DROP TABLE seq").unwrap();
}

#[test]
fn non_sequence_view_falls_back_to_snapshot() {
    let db = db_with_seq(4);
    db.execute("CREATE MATERIALIZED VIEW snap AS SELECT pos FROM seq WHERE pos > 2")
        .unwrap();
    assert!(db.registry().get("snap").is_none());
    let r = db.execute("SELECT pos FROM snap ORDER BY pos").unwrap();
    assert_eq!(r.rows().len(), 2);
}

/// The Fig. 13 join patterns are off the query path; run over the view's
/// mirror table in the engine's own catalog, every variant still equals
/// the engine's derived answer and the native one.
#[test]
fn pattern_variants_agree() {
    let db = db_with_seq(40);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING \
               AND 2 FOLLOWING) AS s FROM seq";
    let derived = vals(&db.execute(sql).unwrap(), 1);
    assert!(db.last_rewrite_report().unwrap().rewritten);
    for variant in [
        PatternVariant::Disjunctive,
        PatternVariant::UnionSimple,
        PatternVariant::UnionHash,
    ] {
        let plan = minoa_pattern(db.catalog(), "mv", 2, 1, 4, 2, 40, variant).unwrap();
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
        assert_eq!(vals(&db.execute(sql).unwrap(), 1), derived, "{mode:?}");
    }
}

/// A row lands in the base table behind the engine's back — no
/// maintenance, so the view still holds 20 positions. The plan made before
/// it still returns every base row: its source does not recognize the
/// 21-row partition and the native kernel answers.
#[test]
fn a_source_that_lost_its_sequence_hands_over_to_the_native_kernel() {
    let db = db_with_seq(20);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let rfv_sql::Statement::Query(query) = rfv_sql::parse_statement(sql).unwrap() else {
        panic!("not a query");
    };
    let entry = db.plan_query(&query).unwrap();
    assert_eq!(entry.outcome, crate::cache::PlanOutcome::Rewritten);
    let fallbacks = || db.metrics().counter_value("rewrite.derive_native_fallback");
    assert_eq!(entry.physical.execute().unwrap().len(), 20);
    assert_eq!(fallbacks(), 0);

    let base = db.catalog().table("seq").unwrap();
    base.write()
        .insert(rfv_types::row![21i64, 21.0f64])
        .unwrap();
    let rows = entry.physical.execute().unwrap();
    assert_eq!(fallbacks(), 1);
    db.set_view_rewrite(false);
    let native = db.execute(sql).unwrap();
    assert_eq!(native.rows().len(), 21);
    assert_eq!(rows, native.rows());
}

#[test]
fn query_result_display_renders_table() {
    let db = db_with_seq(2);
    let out = db
        .execute("SELECT pos, val FROM seq ORDER BY pos")
        .unwrap()
        .to_string();
    assert!(out.contains("pos"), "{out}");
    assert!(out.lines().count() >= 4);
}

#[test]
fn execute_script_runs_all() {
    let db = Database::new();
    let results = db
        .execute_script(
            "CREATE TABLE t (a BIGINT); INSERT INTO t VALUES (1), (2); \
             SELECT a FROM t ORDER BY a;",
        )
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(results[2].rows().len(), 2);
}

/// Every dependent view (sliding SUM, cumulative SUM, MAX) stays
/// consistent through a multi-row SQL append, which takes the batched
/// maintenance path and its counters.
#[test]
fn multi_row_sql_insert_takes_batched_path() {
    let db = db_with_seq(5);
    db.execute_script(
        "CREATE MATERIALIZED VIEW mv_sum AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq; \
         CREATE MATERIALIZED VIEW mv_cum AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS s FROM seq; \
         CREATE MATERIALIZED VIEW mv_max AS SELECT pos, MAX(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq;",
    )
    .unwrap();
    let inserts_before = db.metrics().counter_value("maintenance.insert");
    db.execute("INSERT INTO seq VALUES (6, 60.0), (7, 70.0), (8, 80.0)")
        .unwrap();
    assert_eq!(db.metrics().counter_value("maintenance.batch"), 1);
    assert_eq!(db.metrics().counter_value("maintenance.batch_rows"), 3);
    assert_eq!(db.metrics().counter_value("maintenance.batch_fallback"), 0);
    assert!(db.metrics().counter_value("maintenance.batch_coalesced") > 0);
    // The per-row counter is untouched by the batched path.
    assert_eq!(
        db.metrics().counter_value("maintenance.insert"),
        inserts_before
    );
    for frame in [
        "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING",
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
    ] {
        let sql = format!("SELECT pos, SUM(val) OVER (ORDER BY pos {frame}) AS s FROM seq");
        let from_view = db.execute(&sql).unwrap();
        db.set_view_rewrite(false);
        let direct = db.execute(&sql).unwrap();
        db.set_view_rewrite(true);
        assert_eq!(vals(&from_view, 1), vals(&direct, 1), "{frame}");
    }
    let max_sql = "SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 1 \
                   PRECEDING AND 1 FOLLOWING) AS s FROM seq";
    let from_view = db.execute(max_sql).unwrap();
    db.set_view_rewrite(false);
    let direct = db.execute(max_sql).unwrap();
    assert_eq!(vals(&from_view, 1), vals(&direct, 1));
}

#[test]
fn sequence_append_bulk_matches_row_at_a_time() {
    let mk = |db: &Database| {
        db.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
             (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
        )
        .unwrap();
    };
    let bulk_db = db_with_seq(8);
    mk(&bulk_db);
    let row_db = db_with_seq(8);
    mk(&row_db);

    let vals_in: Vec<f64> = (1..=10).map(|i| (i * i) as f64).collect();
    let stats = bulk_db.sequence_append_bulk("seq", &vals_in).unwrap();
    // One coalesced pass: m + l + h recomputed, m − 1 ops coalesced.
    assert_eq!(stats.recomputed, 10 + 2 + 1);
    assert_eq!(stats.coalesced, 9);
    for (j, &v) in vals_in.iter().enumerate() {
        row_db.sequence_insert("seq", 9 + j as i64, v).unwrap();
    }

    let sql = "SELECT pos, val FROM mv ORDER BY pos";
    assert_eq!(
        vals(&bulk_db.execute(sql).unwrap(), 1),
        vals(&row_db.execute(sql).unwrap(), 1)
    );
    assert_eq!(
        vals(
            &bulk_db
                .execute("SELECT pos, val FROM seq ORDER BY pos")
                .unwrap(),
            1
        ),
        vals(
            &row_db
                .execute("SELECT pos, val FROM seq ORDER BY pos")
                .unwrap(),
            1
        )
    );
}

#[test]
fn apply_batch_update_set_coalesces_and_fallback_is_counted() {
    let db = db_with_seq(12);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    // Pure update set: coalesced, no fallback.
    let mut batch = MaintBatch::new();
    batch.push(BatchOp::Update { k: 4, val: 40.0 });
    batch.push(BatchOp::Update { k: 5, val: 50.0 });
    batch.push(BatchOp::Update { k: 11, val: -1.0 });
    let stats = db.apply_batch("seq", &batch).unwrap();
    assert!(stats.coalesced > 0);
    assert_eq!(db.metrics().counter_value("maintenance.batch_fallback"), 0);

    // Interleaved edits: fall back, still correct.
    let mut batch = MaintBatch::new();
    batch.push(BatchOp::Insert { k: 2, val: 7.0 });
    batch.push(BatchOp::Delete { k: 9 });
    batch.push(BatchOp::Update { k: 1, val: 0.5 });
    let stats = db.apply_batch("seq", &batch).unwrap();
    assert_eq!(stats.coalesced, 0);
    assert_eq!(db.metrics().counter_value("maintenance.batch_fallback"), 1);

    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let from_view = db.execute(sql).unwrap();
    db.set_view_rewrite(false);
    let direct = db.execute(sql).unwrap();
    assert_eq!(vals(&from_view, 1), vals(&direct, 1));
}

#[test]
fn bad_batch_leaves_base_and_views_untouched() {
    let db = db_with_seq(4);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let before = vals(
        &db.execute("SELECT pos, val FROM seq ORDER BY pos").unwrap(),
        1,
    );
    // Second op's position is invalid under sequential semantics:
    // validation must reject the batch before the first op lands.
    let mut batch = MaintBatch::new();
    batch.push(BatchOp::Update { k: 1, val: 99.0 });
    batch.push(BatchOp::Delete { k: 40 });
    assert!(db.apply_batch("seq", &batch).is_err());
    let after = vals(
        &db.execute("SELECT pos, val FROM seq ORDER BY pos").unwrap(),
        1,
    );
    assert_eq!(before, after);
    // A mis-positioned multi-row INSERT is also rejected atomically.
    let err = db
        .execute("INSERT INTO seq VALUES (5, 5.0), (9, 9.0)")
        .unwrap_err();
    assert!(err.to_string().contains("sequence_insert"), "{err}");
    assert_eq!(db.execute("SELECT pos FROM seq").unwrap().rows().len(), 4);
}

#[test]
fn multi_row_insert_on_plain_table_is_atomic() {
    let db = Database::new();
    db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 1.0)").unwrap();
    // Intra-statement duplicate key: nothing lands.
    assert!(db
        .execute("INSERT INTO t VALUES (2, 2.0), (2, 9.0)")
        .is_err());
    assert_eq!(db.execute("SELECT a FROM t").unwrap().rows().len(), 1);
    db.execute("INSERT INTO t VALUES (2, 2.0), (3, 3.0)")
        .unwrap();
    assert_eq!(db.execute("SELECT a FROM t").unwrap().rows().len(), 3);
}

#[test]
fn multi_row_insert_on_partitioned_views_refreshes_once() {
    let db = Database::new();
    db.execute("CREATE TABLE pt (grp BIGINT, pos BIGINT, val DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO pt VALUES (1, 1, 10.0), (2, 1, 20.0)")
        .unwrap();
    db.execute(
        "CREATE MATERIALIZED VIEW pv AS SELECT grp, pos, SUM(val) OVER \
         (PARTITION BY grp ORDER BY pos ROWS BETWEEN 1 PRECEDING AND \
         0 FOLLOWING) AS s FROM pt",
    )
    .unwrap();
    db.execute("INSERT INTO pt VALUES (1, 2, 11.0), (2, 2, 21.0), (1, 3, 12.0)")
        .unwrap();
    let sql = "SELECT grp, pos, SUM(val) OVER (PARTITION BY grp ORDER BY pos \
               ROWS BETWEEN 1 PRECEDING AND 0 FOLLOWING) AS s FROM pt";
    let from_view = db.execute(sql).unwrap();
    db.set_view_rewrite(false);
    let direct = db.execute(sql).unwrap();
    assert_eq!(vals(&from_view, 2), vals(&direct, 2));
}

/// The bench's four views over a sequence of `n` rows, loaded through the
/// catalog in one storage call (the SQL path is per statement).
fn db_with_bench_views(n: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    let rows = (1..=n).map(|i| rfv_types::row![i, (i % 97) as f64]);
    let table = db.catalog().table("seq").unwrap();
    table.write().insert_many(rows.collect()).unwrap();
    for (name, agg, frame) in [
        (
            "mv_narrow",
            "SUM",
            "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING",
        ),
        ("mv_wide", "SUM", "ROWS BETWEEN 8 PRECEDING AND 4 FOLLOWING"),
        ("mv_cum", "SUM", "ROWS UNBOUNDED PRECEDING"),
        ("mv_max", "MAX", "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING"),
    ] {
        db.execute(&format!(
            "CREATE MATERIALIZED VIEW {name} AS SELECT pos, {agg}(val) OVER \
             (ORDER BY pos {frame}) AS s FROM seq"
        ))
        .unwrap();
    }
    db
}

/// §2.3 locality by counting: what a write reads from the base table and
/// writes into the mirrors depends on the windows — and on the cumulative
/// view's suffix — never on the length of the sequence.
#[test]
fn a_write_reads_and_writes_what_it_touches_at_any_length() {
    let counts = |n: i64| {
        let db = db_with_bench_views(n);
        let counter = |name: &str| db.metrics().counter_value(name);
        let delta = |write: &dyn Fn()| {
            let before = (
                counter("maintenance.base_rows_read"),
                counter("maintenance.mirror_rows_written"),
            );
            write();
            (
                counter("maintenance.base_rows_read") - before.0,
                counter("maintenance.mirror_rows_written") - before.1,
            )
        };
        // No reader holds a view: a patch edits the registry's own copy.
        let body = |name: &str| std::sync::Arc::as_ptr(&db.registry().get(name).unwrap());
        let bodies = || ["mv_narrow", "mv_wide", "mv_cum", "mv_max"].map(body);
        let in_place = bodies();

        let k = n - 40;
        let suffix = (n - k + 1) as u64;
        let (read, written) = delta(&|| db.sequence_update("seq", k, 3.5).unwrap());
        assert!(
            read >= suffix && written >= suffix,
            "n={n}: the cumulative suffix"
        );
        // [k−12, k+12] for the widest window, through to n for the cumulative view.
        assert!(
            read <= 2 * (8 + 4) + 1 + suffix,
            "n={n}: update read {read} base rows"
        );
        assert!(
            written <= 4 + 13 + suffix + 5,
            "n={n}: update wrote {written} mirror rows"
        );
        let update = (read - suffix, written - suffix);

        let tuples: Vec<String> = (1..=10).map(|j| format!("({}, {j}.0)", n + j)).collect();
        let sql = format!("INSERT INTO seq VALUES {}", tuples.join(", "));
        let append = delta(&|| drop(db.execute(&sql).unwrap()));
        // Σ (m + l + h) over the sliding views, m for the cumulative one.
        assert!(
            append.1 <= 13 + 22 + 10 + 14,
            "n={n}: append wrote {append:?}"
        );
        assert!(append.0 <= 12 + 10, "n={n}: append read {append:?}");
        assert_eq!(bodies(), in_place, "n={n}: a view body was copied");
        assert_eq!(counter("maintenance.mirror_healed"), 0);

        // The patched views are the views a rematerialization gives.
        for (view, agg, frame) in [
            ("mv_wide", "SUM", "ROWS BETWEEN 8 PRECEDING AND 4 FOLLOWING"),
            ("mv_cum", "SUM", "ROWS UNBOUNDED PRECEDING"),
            ("mv_max", "MAX", "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING"),
        ] {
            let tail = n - 100;
            let body = db
                .execute(&format!(
                    "SELECT pos, val FROM {view} WHERE pos > {tail} AND pos <= {} ORDER BY pos",
                    n + 10
                ))
                .unwrap();
            db.set_view_rewrite(false);
            let native = db
                .execute(&format!(
                    "SELECT pos, {agg}(val) OVER (ORDER BY pos {frame}) AS s FROM seq ORDER BY pos"
                ))
                .unwrap();
            db.set_view_rewrite(true);
            let native = vals(&native, 1);
            for (got, want) in vals(&body, 1).iter().zip(&native[tail as usize..]) {
                assert!(
                    (got - want).abs() <= 1e-6 * want.abs().max(1.0),
                    "{view}: {got} vs {want}"
                );
            }
        }
        (update, append)
    };
    let small = counts(1_000);
    assert_eq!(
        small,
        counts(100_000),
        "row counts depend on the sequence length"
    );
}

/// An integer written into a DOUBLE column is stored as the float of that
/// value — by INSERT and by UPDATE, live and after recovery (the WAL
/// record is built from the stored row) — so the column holds one variant
/// and a native SUM over it has the schema's type.
#[test]
fn an_integer_written_into_a_double_column_is_stored_as_a_float() {
    let dir = std::env::temp_dir().join(format!("rfv-engine-coerce-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, x DOUBLE, n BIGINT)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 5, 5), (2, 2.5, 2), (3, NULL, 3)")
        .unwrap();
    db.execute("INSERT INTO t (x, id) VALUES (4, 4)").unwrap();
    db.execute("UPDATE t SET x = 7 WHERE id = 2").unwrap();
    let check = |db: &Database, when: &str| {
        let r = db.execute("SELECT x, n FROM t ORDER BY id").unwrap();
        let xs: Vec<&Value> = r.rows().iter().map(|row| row.get(0)).collect();
        assert!(
            matches!(
                xs[..],
                [Value::Float(a), Value::Float(b), Value::Null, Value::Float(c)]
                    if *a == 5.0 && *b == 7.0 && *c == 4.0
            ),
            "{when}: {xs:?}"
        );
        assert_eq!(xs[0].to_string(), "5.0", "{when}");
        // A BIGINT column keeps its integers.
        assert!(matches!(r.rows()[0].get(1), Value::Int(5)), "{when}");
        let r = db
            .execute("SELECT SUM(x) OVER (ORDER BY id ROWS UNBOUNDED PRECEDING) AS s FROM t")
            .unwrap();
        assert!(
            matches!(r.rows()[3].get(0), Value::Float(s) if *s == 16.0),
            "{when}: {:?}",
            r.rows()[3]
        );
    };
    check(&db, "live");
    drop(db);
    check(&Database::open(&dir).unwrap(), "recovered");
    let _ = std::fs::remove_dir_all(&dir);
}
