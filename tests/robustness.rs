//! Robustness tests: error propagation through deep plans, engine-level
//! failure modes, and concurrent use of a shared database.

use std::sync::Arc;

use rfv_core::Database;

fn seq_db(n: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    for i in 1..=n {
        db.execute(&format!("INSERT INTO seq VALUES ({i}, {})", i as f64))
            .unwrap();
    }
    db
}

#[test]
fn runtime_errors_propagate_with_context() {
    let db = seq_db(5);
    // Division by zero deep inside a projection over a join.
    let err = db
        .execute("SELECT s1.pos / (s2.pos - s2.pos) FROM seq s1 JOIN seq s2 ON s1.pos = s2.pos")
        .unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
    // Type error in a predicate.
    let err = db
        .execute("SELECT pos FROM seq WHERE val = 'abc'")
        .unwrap_err();
    assert!(err.to_string().contains("compare"), "{err}");
    // MOD by zero inside a window partition expression.
    let err = db
        .execute("SELECT SUM(val) OVER (PARTITION BY pos % 0 ORDER BY pos) FROM seq")
        .unwrap_err();
    assert!(err.to_string().contains("modulo by zero"), "{err}");
}

#[test]
fn planning_errors_are_reported_not_panicked() {
    let db = seq_db(2);
    for bad in [
        "SELECT unknown_col FROM seq",
        "SELECT pos FROM missing_table",
        "SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 FOLLOWING AND 1 PRECEDING) FROM seq",
        "SELECT MEDIAN(val) OVER (ORDER BY pos) FROM seq",
        "SELECT pos FROM seq ORDER BY 99",
        "SELECT pos, SUM(val) FROM seq",
        "INSERT INTO seq VALUES (1)",
        "INSERT INTO seq VALUES ('x', 1.0)",
        "CREATE TABLE seq (a BIGINT)",
    ] {
        let err = db.execute(bad);
        assert!(err.is_err(), "`{bad}` should fail");
    }
}

#[test]
fn extreme_frame_offsets_error_cleanly_not_wrap() {
    let db = seq_db(8);
    let max = i64::MAX as u64;
    // Offsets at and around i64::MAX (and just past the accepted bound)
    // must be rejected at bind time with a plan error — in release builds
    // the old code wrapped `i + offset + 1` and returned garbage frames.
    // Offsets past i64 range never survive the lexer in the first place.
    let err = db
        .execute(&format!(
            "SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN {} PRECEDING \
             AND CURRENT ROW) FROM seq",
            u64::MAX / 2 + 1
        ))
        .unwrap_err();
    assert!(err.to_string().contains("too large"), "{err}");
    for n in [max, max - 1, (1u64 << 40) + 1] {
        for shape in [
            format!(
                "SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN {n} PRECEDING \
                 AND CURRENT ROW) FROM seq"
            ),
            format!(
                "SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN CURRENT ROW \
                 AND {n} FOLLOWING) FROM seq"
            ),
            format!(
                "SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN {n} PRECEDING \
                 AND {n} FOLLOWING) FROM seq"
            ),
        ] {
            match db.execute(&shape) {
                Err(e) => assert!(
                    e.to_string().contains("frame offset"),
                    "`{shape}` gave unexpected error: {e}"
                ),
                Ok(_) => panic!("`{shape}` should have been rejected"),
            }
        }
    }
    // The largest *accepted* offset (2^40) behaves exactly like UNBOUNDED.
    let wide = db
        .execute(&format!(
            "SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN {w} PRECEDING \
             AND {w} FOLLOWING) FROM seq",
            w = 1u64 << 40
        ))
        .unwrap();
    let unbounded = db
        .execute(
            "SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING \
             AND UNBOUNDED FOLLOWING) FROM seq",
        )
        .unwrap();
    assert_eq!(wide.rows(), unbounded.rows());
    // Materialized views with absurd frames are rejected the same way.
    assert!(db
        .execute(&format!(
            "CREATE MATERIALIZED VIEW huge AS SELECT pos, SUM(val) OVER \
             (ORDER BY pos ROWS BETWEEN {max} PRECEDING AND 1 FOLLOWING) AS s FROM seq"
        ))
        .is_err());
}

/// A MIN/MAX view whose frame reaches the largest accepted offset would
/// store `n + 2⁴⁰` positions: it is refused with the same derivation error
/// as a SUM view, before anything is allocated, and the engine goes on.
#[test]
fn minmax_views_with_huge_frames_are_refused_not_aborted() {
    let db = seq_db(3);
    let w = 1u64 << 40;
    for func in ["MIN", "MAX"] {
        for frame in [
            format!("{w} PRECEDING AND CURRENT ROW"),
            format!("CURRENT ROW AND {w} FOLLOWING"),
        ] {
            let sql = format!(
                "CREATE MATERIALIZED VIEW mv AS SELECT pos, {func}(val) OVER \
                 (ORDER BY pos ROWS BETWEEN {frame}) AS s FROM seq"
            );
            match db.execute(&sql) {
                Err(rfv_types::RfvError::Derivation(m)) => {
                    assert!(m.contains("would store"), "{func} {frame}: {m}")
                }
                other => panic!("{func} {frame}: expected a derivation error, got {other:?}"),
            }
        }
    }
    let maxes = db
        .execute("SELECT pos, MAX(val) OVER (ORDER BY pos ROWS 1 PRECEDING) FROM seq")
        .unwrap()
        .column_f64(1)
        .unwrap();
    assert_eq!(maxes, [Some(1.0), Some(2.0), Some(3.0)]);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, MAX(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS s FROM seq",
    )
    .unwrap();
}

#[test]
fn integer_sum_overflow_errors_instead_of_wrapping() {
    let db = Database::new();
    db.execute("CREATE TABLE big (pos BIGINT PRIMARY KEY, val BIGINT NOT NULL)")
        .unwrap();
    db.execute(&format!(
        "INSERT INTO big VALUES (1, {m}), (2, {m}), (3, -{m})",
        m = i64::MAX
    ))
    .unwrap();
    // The i128 accumulator survives transient overflow: the full-table
    // total is MAX + MAX − MAX = MAX, which fits.
    let r = db
        .execute(
            "SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING \
             AND UNBOUNDED FOLLOWING) FROM big",
        )
        .unwrap();
    assert_eq!(r.rows()[0].get(0).as_int().unwrap(), Some(i64::MAX));
    assert_eq!(
        db.execute("SELECT SUM(val) FROM big").unwrap().rows()[0]
            .get(0)
            .as_int()
            .unwrap(),
        Some(i64::MAX)
    );
    // But a window whose true total exceeds i64 reports overflow instead
    // of wrapping (row 2's frame covers both MAX values).
    let err = db
        .execute(
            "SELECT SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND \
             CURRENT ROW) FROM big",
        )
        .unwrap_err();
    assert!(err.to_string().contains("overflow"), "{err}");
    // Plain aggregate over the two MAX rows too.
    let err = db
        .execute("SELECT SUM(val) FROM big WHERE pos <= 2")
        .unwrap_err();
    assert!(err.to_string().contains("overflow"), "{err}");
}

#[test]
fn view_creation_failure_modes() {
    let db = Database::new();
    db.execute("CREATE TABLE gaps (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    db.execute("INSERT INTO gaps VALUES (1, 1.0), (3, 3.0)")
        .unwrap();
    // Sparse positions violate the sequence-model invariant.
    let err = db
        .execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
             (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM gaps",
        )
        .unwrap_err();
    assert!(err.to_string().contains("dense"), "{err}");

    // NULL values violate it too.
    db.execute("CREATE TABLE nully (pos BIGINT PRIMARY KEY, val DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO nully VALUES (1, NULL)").unwrap();
    let err = db
        .execute(
            "CREATE MATERIALIZED VIEW mv2 AS SELECT pos, SUM(val) OVER \
             (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM nully",
        )
        .unwrap_err();
    assert!(err.to_string().contains("NULL"), "{err}");

    // Duplicate view names.
    let db = seq_db(3);
    let mv = "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
              (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq";
    db.execute(mv).unwrap();
    assert!(db.execute(mv).is_err());
}

#[test]
fn maintenance_errors_leave_views_consistent() {
    let db = seq_db(5);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    // Out-of-range maintenance ops fail cleanly…
    assert!(db.sequence_update("seq", 0, 1.0).is_err());
    assert!(db.sequence_update("seq", 99, 1.0).is_err());
    assert!(db.sequence_delete("seq", 99).is_err());
    assert!(db.sequence_insert("seq", 99, 1.0).is_err());
    // …and the view still answers correctly afterwards.
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let a: Vec<_> = db.execute(sql).unwrap().column_f64(1).unwrap();
    db.set_view_rewrite(false);
    let b: Vec<_> = db.execute(sql).unwrap().column_f64(1).unwrap();
    assert_eq!(a, b);
}

#[test]
fn concurrent_readers_and_maintainer() {
    let db = Arc::new(seq_db(200));
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();

    let mut handles = Vec::new();
    // Four readers hammer window queries (mix of rewritten and plain).
    for t in 0..4 {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                let l = (t + i) % 4 + 1;
                let r = db
                    .execute(&format!(
                        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN {l} \
                         PRECEDING AND 1 FOLLOWING) AS s FROM seq"
                    ))
                    .unwrap();
                assert_eq!(r.rows().len(), 200);
            }
        }));
    }
    // One maintainer mutates the sequence concurrently.
    {
        let db = Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..20 {
                db.sequence_update("seq", (i % 200) + 1, i as f64).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Final consistency: view answers equal direct recomputation.
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let derived: Vec<_> = db.execute(sql).unwrap().column_f64(1).unwrap();
    db.set_view_rewrite(false);
    let direct: Vec<_> = db.execute(sql).unwrap().column_f64(1).unwrap();
    assert_eq!(derived, direct);
}

#[test]
fn empty_and_single_row_sequences() {
    // Single-row sequence: every machinery path must handle n = 1.
    let db = seq_db(1);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let r = db
        .execute(
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 5 PRECEDING \
             AND 5 FOLLOWING) AS s FROM seq",
        )
        .unwrap();
    assert_eq!(r.rows().len(), 1);
    assert_eq!(r.rows()[0].get(1).as_f64().unwrap(), Some(1.0));

    // Empty table: window queries return nothing, views materialize empty.
    let db = Database::new();
    db.execute("CREATE TABLE e (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    let r = db
        .execute("SELECT pos, SUM(val) OVER (ORDER BY pos) AS s FROM e")
        .unwrap();
    assert!(r.rows().is_empty());
    db.execute(
        "CREATE MATERIALIZED VIEW emv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM e",
    )
    .unwrap();
    assert_eq!(db.registry().get("emv").unwrap().n(), 0);
}

#[test]
fn drop_table_invalidates_cached_plans_and_results() {
    let db = seq_db(5);
    // Warm the plan and result caches on both a plain scan and a
    // windowed query.
    let scan = "SELECT pos, val FROM seq ORDER BY pos";
    let windowed = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN \
                    UNBOUNDED PRECEDING AND CURRENT ROW) FROM seq";
    let before = db.execute(scan).unwrap();
    assert_eq!(before.rows().len(), 5);
    db.execute(windowed).unwrap();
    db.execute(scan).unwrap(); // second run may be served from cache

    // Dropping the table must evict everything that depends on it:
    // the same query text now errors instead of replaying stale rows.
    db.execute("DROP TABLE seq").unwrap();
    let err = db.execute(scan).unwrap_err();
    assert!(err.to_string().contains("seq"), "{err}");
    assert!(db.execute(windowed).is_err());

    // Re-creating the name with a *different* schema must not resurrect
    // the old plan: a stale plan would project the dropped `val` column
    // or read stale pages.
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL, tag VARCHAR(8))")
        .unwrap();
    db.execute("INSERT INTO seq VALUES (10, 99.5, 'new')")
        .unwrap();
    let after = db.execute(scan).unwrap();
    assert_eq!(after.rows().len(), 1, "only the new table's single row");
    assert_eq!(
        after.rows()[0].get(0),
        &rfv_types::Value::Int(10),
        "rows come from the re-created table, not a stale cache"
    );
    let wide = db.execute("SELECT pos, val, tag FROM seq").unwrap();
    assert_eq!(wide.rows()[0].get(2), &rfv_types::Value::Str("new".into()));
}

#[test]
fn drop_table_restricts_on_dependent_views_then_cleans_up() {
    let db = seq_db(4);
    db.execute(
        "CREATE MATERIALIZED VIEW mv_rob AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS s FROM seq",
    )
    .unwrap();
    assert_eq!(
        db.execute("SELECT pos, val FROM mv_rob")
            .unwrap()
            .rows()
            .len(),
        4
    );

    // RESTRICT semantics: the base cannot vanish under its views.
    let err = db.execute("DROP TABLE seq").unwrap_err();
    assert!(err.to_string().contains("depend"), "{err}");
    // The refused drop must not have invalidated anything.
    assert_eq!(
        db.execute("SELECT pos, val FROM seq").unwrap().rows().len(),
        4
    );

    // Dropping the view first unblocks the base; afterwards both names
    // error instead of serving orphaned state.
    db.execute("DROP TABLE mv_rob").unwrap();
    db.execute("DROP TABLE seq").unwrap();
    assert!(db.execute("SELECT pos, val FROM seq").is_err());
    assert!(db.execute("SELECT pos, val FROM mv_rob").is_err());
}

/// The bench's four views over `seq`, with the frame each was defined by.
const FOUR_VIEWS: [(&str, &str, &str); 4] = [
    (
        "mv_narrow",
        "SUM",
        "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING",
    ),
    ("mv_wide", "SUM", "ROWS BETWEEN 8 PRECEDING AND 4 FOLLOWING"),
    ("mv_cum", "SUM", "ROWS UNBOUNDED PRECEDING"),
    ("mv_max", "MAX", "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING"),
];

fn create_four_views(db: &Database) {
    for (name, agg, frame) in FOUR_VIEWS {
        db.execute(&format!(
            "CREATE MATERIALIZED VIEW {name} AS SELECT pos, {agg}(val) OVER \
             (ORDER BY pos {frame}) AS s FROM seq"
        ))
        .unwrap();
    }
}

fn body(db: &Database, sql: &str) -> Vec<(i64, Option<f64>)> {
    let rows = db.execute(sql).unwrap_or_else(|e| panic!("{e}: {sql}"));
    let cell = |r: &rfv_types::Row| {
        (
            r.get(0).as_int().unwrap().unwrap(),
            r.get(1).as_f64().unwrap(),
        )
    };
    rows.rows().iter().map(cell).collect()
}

/// Every view body (positions `1..=n`) equals the native window operator's
/// recomputation from the base table; integer data, so to the bit.
fn assert_views_match_native(db: &Database, context: &str) {
    let n = body(db, "SELECT pos, val FROM seq").len();
    db.set_view_rewrite(false);
    for (view, agg, frame) in FOUR_VIEWS {
        let stored = body(
            db,
            &format!("SELECT pos, val FROM {view} WHERE pos >= 1 AND pos <= {n} ORDER BY pos"),
        );
        let native = body(
            db,
            &format!(
                "SELECT pos, {agg}(val) OVER (ORDER BY pos {frame}) AS s FROM seq ORDER BY pos"
            ),
        );
        assert_eq!(stored, native, "{context}: {view}");
    }
    db.set_view_rewrite(true);
}

/// Mirrors are plain tables, and SQL may tamper with them. A write whose
/// neighbourhood covers a tampered row must not fail with the base already
/// changed: the mirror is refilled from the patched sequence and the write
/// is logged like any other.
#[test]
fn a_tampered_mirror_is_healed_by_the_next_write_not_an_error() {
    let dir = std::env::temp_dir().join(format!("rfv-robustness-heal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).unwrap();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    let tuples: Vec<String> = (1..=30)
        .map(|i| format!("({i}, {}.0)", i * 7 % 11))
        .collect();
    db.execute(&format!("INSERT INTO seq VALUES {}", tuples.join(", ")))
        .unwrap();
    create_four_views(&db);
    let healed = || db.metrics().counter_value("maintenance.mirror_healed");

    // A deleted row: the index probe comes back one row short.
    db.execute("DELETE FROM mv_wide WHERE pos = 12").unwrap();
    db.sequence_update("seq", 10, 5.0).unwrap();
    assert_eq!(healed(), 1, "only mv_wide was missing a row");
    assert_views_match_native(&db, "after the deleted mirror row");

    // An overwritten cell inside the neighbourhood is simply rewritten…
    db.execute("UPDATE mv_narrow SET val = -1.0 WHERE pos = 21")
        .unwrap();
    db.sequence_update("seq", 20, 6.0).unwrap();
    assert_eq!(healed(), 1);
    assert_views_match_native(&db, "after the overwritten mirror cell");

    // …and a row moved out of its position is a missing row again; an
    // append that collides with a planted row heals too.
    db.execute("UPDATE mv_max SET pos = 1000 WHERE pos = 5")
        .unwrap();
    db.sequence_update("seq", 5, 4.0).unwrap();
    db.execute("INSERT INTO mv_cum VALUES (31, 0.0)").unwrap();
    db.execute("INSERT INTO seq VALUES (31, 2.0)").unwrap();
    assert_eq!(healed(), 3);
    assert_views_match_native(&db, "after the moved and the planted row");
    let mirror_rows = body(&db, "SELECT pos, val FROM mv_max ORDER BY pos").len();
    assert_eq!(mirror_rows, 31 + 2 + 2, "the planted position is gone");

    // Every one of those writes reached the WAL: a reopened engine holds
    // the same bits, mirrors included.
    let state = |db: &Database| {
        let tables = ["seq", "mv_narrow", "mv_wide", "mv_cum", "mv_max"];
        tables.map(|t| body(db, &format!("SELECT pos, val FROM {t} ORDER BY pos")))
    };
    let live = state(&db);
    drop(db);
    let reopened = Database::open(&dir).unwrap();
    assert_eq!(state(&reopened), live);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The base table changed behind the engine's back but is still a dense
/// sequence: the next write notices (its O(1) evidence no longer holds),
/// re-reads the table, rematerializes, and carries on — and the write after
/// that is local again.
#[test]
fn a_base_table_changed_through_the_catalog_is_picked_up_by_the_next_write() {
    let db = seq_db(40);
    create_four_views(&db);
    let read = || db.metrics().counter_value("maintenance.base_rows_read");

    let table = db.catalog().table("seq").unwrap();
    let rid = table
        .read()
        .index_lookup(0, &rfv_types::Value::Int(7))
        .unwrap()[0];
    table
        .write()
        .update(rid, rfv_types::row![7i64, 70.0])
        .unwrap();
    table.write().insert(rfv_types::row![41i64, 41.0]).unwrap();

    db.sequence_update("seq", 30, 3.0).unwrap();
    assert_eq!(db.registry().get("mv_cum").unwrap().n(), 41);
    assert_views_match_native(&db, "after the slow path");

    let before = read();
    db.sequence_update("seq", 35, 4.0).unwrap();
    // [35−12, 41]: the widest window's reach, through to the end.
    assert_eq!(read() - before, 12 + 7, "evidence was not re-recorded");
    assert_views_match_native(&db, "after the next write");

    // SQL appends take the same check: the evidence covers them too.
    table.write().insert(rfv_types::row![42i64, 42.0]).unwrap();
    db.execute("INSERT INTO seq VALUES (43, 1.0)").unwrap();
    assert_views_match_native(&db, "after an append behind an append");
}
