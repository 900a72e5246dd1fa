//! Golden-plan tests: the operator patterns of Figs. 2, 4, 10, 13 must
//! keep their published shape (join strategy, predicate structure,
//! CASE-negation, grouping, final outer join). These tests pin the
//! EXPLAIN output structurally rather than byte-for-byte so cosmetic
//! changes don't break them but shape regressions do.

use rfv_core::patterns::{self, PatternVariant};
use rfv_core::Database;
use rfv_storage::Catalog;
use rfv_types::{row, DataType, Field, Schema};

fn catalog_with_view() -> Catalog {
    let catalog = Catalog::new();
    let t = catalog
        .create_table(
            "seq",
            Schema::new(vec![
                Field::not_null("pos", DataType::Int),
                Field::new("val", DataType::Float),
            ]),
        )
        .unwrap();
    {
        let mut g = t.write();
        for i in 1..=10i64 {
            g.insert(row![i, i as f64]).unwrap();
        }
        g.create_index(0, rfv_storage::IndexKind::Unique).unwrap();
    }
    patterns::materialize_view_table(&catalog, "seq", "mv", 2, 1).unwrap();
    catalog
}

#[test]
fn fig2_shape() {
    let catalog = catalog_with_view();
    let plan = patterns::self_join_window(&catalog, "seq", 1, 1, false).unwrap();
    let explain = plan.explain();
    // Self join on a BETWEEN range, grouped by position, sorted output.
    assert!(explain.contains("NestedLoopJoin"), "{explain}");
    assert!(explain.contains("BETWEEN"), "{explain}");
    assert!(explain.contains("HashAggregate"), "{explain}");
    assert!(explain.contains("SUM"), "{explain}");
    assert!(explain.trim_start().starts_with("Sort"), "{explain}");
    assert_eq!(
        explain.matches("TableScan: seq").count(),
        2,
        "self join\n{explain}"
    );
}

#[test]
fn fig2_with_index_shape() {
    let catalog = catalog_with_view();
    let plan = patterns::self_join_window(&catalog, "seq", 2, 1, true).unwrap();
    let explain = plan.explain();
    assert!(explain.contains("IndexNestedLoopJoin"), "{explain}");
    assert!(
        explain.contains("key in [(#0 - 2) .. (#0 + 1)]"),
        "{explain}"
    );
}

#[test]
fn fig4_shape() {
    let catalog = catalog_with_view();
    let plan = patterns::reconstruct_raw_from_cumulative(&catalog, "mv").unwrap();
    let explain = plan.explain();
    // IN-list join, CASE negation inside the SUM.
    assert!(explain.contains("IN ("), "{explain}");
    assert!(explain.contains("CASE WHEN"), "{explain}");
    assert!(
        explain.contains("ELSE (-#3)"),
        "negated predecessor\n{explain}"
    );
}

#[test]
fn fig10_disjunctive_shape() {
    let catalog = catalog_with_view();
    let plan = patterns::maxoa_pattern(&catalog, "mv", 2, 1, 3, 1, 10, PatternVariant::Disjunctive)
        .unwrap();
    let explain = plan.explain();
    // One derivation join with an ORed MOD predicate…
    assert!(explain.contains(" OR "), "{explain}");
    assert!(explain.contains("% 4) = 0"), "stride = w = 4\n{explain}");
    assert_eq!(explain.matches("NestedLoopJoin").count(), 1, "{explain}");
    // …a signed-coefficient CASE, and the final stitch join + COALESCE.
    assert!(explain.contains("CASE WHEN"), "{explain}");
    assert!(explain.contains("HashJoin(LeftOuter)"), "{explain}");
    assert!(explain.contains("COALESCE"), "{explain}");
    // MaxOA adds the original sequence value x̃_k.
    assert!(explain.contains("(#1 + COALESCE(#3, 0.0))"), "{explain}");
}

#[test]
fn fig10_union_shape() {
    let catalog = catalog_with_view();
    let plan = patterns::maxoa_pattern(&catalog, "mv", 2, 1, 3, 1, 10, PatternVariant::UnionSimple)
        .unwrap();
    let explain = plan.explain();
    assert!(explain.contains("UnionAll"), "{explain}");
    // Single-side (Δh = 0): two branches — positive and negative series.
    assert_eq!(explain.matches("NestedLoopJoin").count(), 2, "{explain}");
    assert!(
        !explain.contains(" OR "),
        "simple predicates only\n{explain}"
    );
}

#[test]
fn fig13_disjunctive_shape() {
    let catalog = catalog_with_view();
    let plan = patterns::minoa_pattern(&catalog, "mv", 2, 1, 3, 1, 10, PatternVariant::Disjunctive)
        .unwrap();
    let explain = plan.explain();
    assert!(explain.contains(" OR "), "{explain}");
    assert_eq!(explain.matches("NestedLoopJoin").count(), 1, "{explain}");
    assert!(
        explain.contains("HashJoin(LeftOuter)"),
        "preserves first values\n{explain}"
    );
    // MinOA output is pure COALESCE(Σ terms) — no x̃_k self-term.
    assert!(explain.contains("COALESCE(#3, 0.0)"), "{explain}");
    assert!(!explain.contains("(#1 + COALESCE"), "{explain}");
}

#[test]
fn fig13_union_hash_ablation_shape() {
    let catalog = catalog_with_view();
    let plan =
        patterns::minoa_pattern(&catalog, "mv", 2, 1, 3, 1, 10, PatternVariant::UnionHash).unwrap();
    let explain = plan.explain();
    // Residue-class hash joins instead of nested loops.
    assert!(explain.matches("HashJoin(Inner)").count() >= 2, "{explain}");
    assert!(!explain.contains("NestedLoopJoin"), "{explain}");
    assert!(explain.contains("residual"), "{explain}");
}

// ---------------------------------------------------------------------------
// Golden SQL: the paper-SQL emitters must produce exactly the published
// statement shapes (Figs. 2 and 10) — byte-for-byte, since this is the text
// a query-rewrite layer would inject — and the emitted SQL must execute
// through the engine to the same answer as the plan-level builders.

#[test]
fn fig2_golden_sql() {
    assert_eq!(
        patterns::self_join_sql("seq", 2, 1),
        "SELECT s1.pos AS pos, SUM(s2.val) AS val \
         FROM seq s1, seq s2 \
         WHERE s2.pos BETWEEN s1.pos - 2 AND s1.pos + 1 \
         GROUP BY s1.pos ORDER BY s1.pos"
    );
}

#[test]
fn fig10_golden_sql() {
    // The running example x̃ = (2,1) → ỹ = (3,1): Δl = 1 ⇒ lower ± series
    // only, stride w = 4, plus the self-term and the stitching outer join.
    let sql = patterns::maxoa_sql("mv", 2, 1, 3, 1, 11).unwrap();
    assert_eq!(
        sql,
        "SELECT s.pos AS pos, s.val + COALESCE(c.val, 0) AS val \
         FROM mv s LEFT OUTER JOIN \
         (SELECT s1.pos AS pos, SUM((CASE WHEN (s1.pos - s2.pos >= 4 AND \
         MOD(s1.pos - s2.pos, 4) = 0) THEN 1 ELSE 0 END + - CASE WHEN \
         (s1.pos - 1 - s2.pos >= 4 AND MOD(s1.pos - 1 - s2.pos, 4) = 0) \
         THEN 1 ELSE 0 END) * s2.val) AS val \
         FROM mv s1, mv s2 \
         WHERE s1.pos BETWEEN 1 AND 11 AND ((s1.pos - s2.pos >= 4 AND \
         MOD(s1.pos - s2.pos, 4) = 0) OR (s1.pos - 1 - s2.pos >= 4 AND \
         MOD(s1.pos - 1 - s2.pos, 4) = 0)) \
         GROUP BY s1.pos) c \
         ON s.pos = c.pos \
         WHERE s.pos BETWEEN 1 AND 11 ORDER BY s.pos"
    );
    // MaxOA precondition still enforced at the SQL level.
    assert!(patterns::maxoa_sql("mv", 1, 1, 8, 1, 11).is_err());
    // Identity derivation collapses to a plain body SELECT.
    assert_eq!(
        patterns::maxoa_sql("mv", 2, 1, 2, 1, 11).unwrap(),
        "SELECT pos, val FROM mv WHERE pos BETWEEN 1 AND 11 ORDER BY pos"
    );
}

#[test]
fn fig13_golden_sql() {
    // MinOA on the same example: positive series anchored at Δh = 0
    // (i ≥ 0), negative at −Δl (i ≥ 1), no self-term.
    let sql = patterns::minoa_sql("mv", 2, 1, 3, 1, 11).unwrap();
    assert!(sql.starts_with("SELECT s.pos AS pos, COALESCE(c.val, 0) AS val"));
    assert!(sql.contains("(s1.pos - s2.pos >= 0 AND MOD(s1.pos - s2.pos, 4) = 0)"));
    assert!(sql.contains("(s1.pos - 1 - s2.pos >= 4 AND MOD(s1.pos - 1 - s2.pos, 4) = 0)"));
    assert!(!sql.contains("s.val +"), "no x̃_k self-term in MinOA\n{sql}");
}

/// The emitted SQL is not just a string: it parses, binds, and executes
/// through the engine to the same result as the plan-level pattern
/// builders and the brute-force recomputation.
#[test]
fn golden_sql_executes_to_same_answer() {
    let raw: Vec<f64> = (1..=11).map(|i| f64::from(i * i)).collect();
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    for (i, v) in raw.iter().enumerate() {
        db.execute(&format!("INSERT INTO seq VALUES ({}, {})", i + 1, v))
            .unwrap();
    }
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();

    let expected = rfv_core::derive::brute_force_sum(&raw, 3, 1);
    for sql in [
        patterns::maxoa_sql("mv", 2, 1, 3, 1, 11).unwrap(),
        patterns::minoa_sql("mv", 2, 1, 3, 1, 11).unwrap(),
    ] {
        let got: Vec<f64> = db
            .execute(&sql)
            .unwrap()
            .column_f64(1)
            .unwrap()
            .into_iter()
            .map(|v| v.unwrap())
            .collect();
        assert_eq!(got.len(), expected.len(), "{sql}");
        for (a, b) in got.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}\n{sql}");
        }
    }

    // Fig. 2 over the raw table agrees too.
    let got: Vec<f64> = db
        .execute(&patterns::self_join_sql("seq", 3, 1))
        .unwrap()
        .column_f64(1)
        .unwrap()
        .into_iter()
        .map(|v| v.unwrap())
        .collect();
    for (a, b) in got.iter().zip(&expected) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }
}

// ---------------------------------------------------------------------------
// Parallelism annotations: EXPLAIN marks the morsel operators (scan,
// filter, project) with `[parallel: …]`, but only when the engine is
// effectively parallel — at one thread (RFV_THREADS=1 / `\threads 1`) the
// plan text must stay byte-identical to the historical serial output.

/// Remove every ` [parallel: …]` suffix, leaving the serial plan text.
fn strip_parallel_annotations(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match line.find(" [parallel: ") {
            Some(i) => {
                let end = line[i..].find(']').map(|e| i + e + 1).unwrap_or(line.len());
                out.push_str(&line[..i]);
                out.push_str(&line[end..]);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[test]
fn parallel_annotations_appear_only_when_parallel() {
    use rfv_exec::sched;
    // The thread count is a process-wide knob; restore it even on panic.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            rfv_exec::sched::set_threads(0);
        }
    }
    let _reset = Reset;

    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    for i in 1..=8 {
        db.execute(&format!("INSERT INTO seq VALUES ({i}, {i}.5)"))
            .unwrap();
    }
    let sql = "SELECT pos, val * 2.0 AS v FROM seq WHERE val > 1.0 ORDER BY pos";

    sched::set_threads(1);
    let serial = db.explain(sql).unwrap();
    assert!(
        !serial.contains("[parallel:"),
        "serial plans carry no parallel annotations\n{serial}"
    );

    sched::set_threads(4);
    let parallel = db.explain(sql).unwrap();
    for strategy in [
        "[parallel: morsel scan]",
        "[parallel: morsel filter]",
        "[parallel: morsel project]",
    ] {
        assert!(
            parallel.contains(strategy),
            "missing {strategy}\n{parallel}"
        );
    }
    // `Sort`, `HashAggregate` and `Window` run one algorithm at every
    // thread count: their lines carry no mark.
    let agg = db
        .explain("SELECT pos, COUNT(*) AS n FROM seq GROUP BY pos")
        .unwrap();
    let win = db
        .explain(
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING \
             AND 1 FOLLOWING) AS s FROM seq",
        )
        .unwrap();
    for (text, operator) in [
        (&parallel, "Sort"),
        (&agg, "HashAggregate"),
        (&win, "Window"),
    ] {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(operator))
            .unwrap_or_else(|| panic!("no {operator} node\n{text}"));
        assert!(!line.contains("[parallel:"), "{line}");
    }

    // Stripping the annotations recovers the serial text byte for byte:
    // parallelism eligibility is the ONLY difference between the modes.
    sched::set_threads(1);
    let serial_again = db.explain(sql).unwrap();
    assert_eq!(strip_parallel_annotations(&parallel), serial_again);
}

#[test]
fn engine_explain_shows_rewrite_decision() {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    for i in 1..=5 {
        db.execute(&format!("INSERT INTO seq VALUES ({i}, {i}.0)"))
            .unwrap();
    }
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
               AND 1 FOLLOWING) AS s FROM seq";
    let explain = db.explain(sql).unwrap();
    assert!(explain.contains("== logical =="), "{explain}");
    assert!(explain.contains("Window(Pipelined)"), "{explain}");
    assert!(explain.contains("(view rewrite)"), "{explain}");
    // The derived plan is the statement's own window node with the view as
    // the expression's source; it scans the base, never the mirror.
    assert!(
        explain.contains("AND 1 FOLLOWING <- mv via minoa]"),
        "answered from the view\n{explain}"
    );
    assert!(!explain.contains("TableScan: mv"), "{explain}");

    db.set_view_rewrite(false);
    let explain = db.explain(sql).unwrap();
    assert!(explain.contains("(direct)"), "{explain}");
    assert!(!explain.contains("<- mv"), "{explain}");
}
