//! Observability integration tests: EXPLAIN ANALYZE output shape,
//! metrics-counter invariants, trace spans, and the zero-overhead
//! contract (tracing off ⇒ identical results, no spans recorded).

use std::sync::{Mutex, MutexGuard, PoisonError};

use rfv_core::Database;
use rfv_obs::Json;

/// Serializes the tests that set the scheduler's process-wide thread count
/// and parallel threshold, and those whose output depends on them.
fn knob_guard() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the scheduler knobs on drop, even when a test panics.
struct KnobReset;

impl Drop for KnobReset {
    fn drop(&mut self) {
        rfv_exec::sched::set_threads(0);
        rfv_exec::sched::set_parallel_threshold(usize::MAX);
    }
}

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

fn db_with_view(n: i64) -> Database {
    let db = db_with_seq(n);
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    db
}

const SLIDING_SQL: &str = "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 \
                           PRECEDING AND 1 FOLLOWING) AS s FROM seq";

/// Replace every `time=…)` annotation tail with `time=MASKED)` so the
/// only nondeterministic part of EXPLAIN ANALYZE output compares stably.
fn mask_times(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match line.find("time=") {
            Some(i) => {
                let tail = &line[i..];
                let end = tail.find(')').map(|e| i + e).unwrap_or(line.len());
                out.push_str(&line[..i]);
                out.push_str("time=MASKED");
                out.push_str(&line[end..]);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[test]
fn explain_analyze_masks_to_golden_shape() {
    let db = db_with_view(10);
    let text = db
        .explain(&format!("EXPLAIN ANALYZE {SLIDING_SQL}"))
        .unwrap();
    let masked = mask_times(&text);
    println!("{masked}");
    // Every physical node line carries an actuals annotation.
    let plan_lines: Vec<&str> = masked
        .lines()
        .skip(1) // "== physical … ==" header
        .take_while(|l| !l.starts_with("rows emitted"))
        .collect();
    assert!(!plan_lines.is_empty());
    for line in &plan_lines {
        assert!(
            line.contains("(actual rows=") && line.contains("time=MASKED"),
            "node line missing actuals: {line:?}"
        );
    }
    // View rewrite fired and the report names the strategy.
    assert!(masked.contains("== physical (view rewrite) =="), "{masked}");
    assert!(masked.contains("== rewrite =="), "{masked}");
    assert!(masked.contains("MinOA"), "{masked}");
    // Phase timeline is present and complete.
    for phase in ["bind", "optimize", "rewrite", "execute", "total"] {
        assert!(masked.contains(phase), "missing phase {phase}: {masked}");
    }
}

/// Plain EXPLAIN of a view-derivable statement evaluates nothing and the
/// plan holds no data: the physical section is the same text at n = 10
/// and n = 10 000 (numerals aside), has no inlined relation and no join,
/// and no row is scanned.
#[test]
fn explain_of_a_derived_plan_evaluates_nothing() {
    // The plan text carries `[parallel: …]` marks at more than one thread.
    let _guard = knob_guard();
    let sql = "SELECT pos, \
               SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS s, \
               COUNT(*) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS c \
               FROM seq";
    let physical_section = |n: usize| -> String {
        let db = Database::new();
        db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
            .unwrap();
        let vals: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
        db.sequence_append_bulk("seq", &vals).unwrap();
        db.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
             (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
        )
        .unwrap();
        let scanned = db.metrics().counter_value("exec.rows_scanned");
        let text = db.explain(sql).unwrap();
        assert_eq!(
            db.metrics().counter_value("exec.rows_scanned"),
            scanned,
            "EXPLAIN scanned rows at n = {n}"
        );
        assert!(text.contains("== physical (view rewrite) =="), "{text}");
        // The physical section, every numeral collapsed to one `N`.
        let mut masked = String::new();
        for line in text
            .lines()
            .skip_while(|l| !l.starts_with("== physical"))
            .take_while(|l| !l.starts_with("== rewrite"))
        {
            let mut in_numeral = false;
            for c in line.chars() {
                if !c.is_ascii_digit() {
                    masked.push(c);
                } else if !in_numeral {
                    masked.push('N');
                }
                in_numeral = c.is_ascii_digit();
            }
            masked.push('\n');
        }
        masked
    };
    let small = physical_section(10);
    assert_eq!(small, physical_section(10_000));
    assert!(!small.contains("Values:"), "{small}");
    assert!(!small.contains("HashJoin"), "{small}");
    assert!(small.contains("<- mv via minoa"), "{small}");
    assert!(small.contains("<- mv via closed_form_count"), "{small}");
}

#[test]
fn explain_analyze_runs_as_a_statement() {
    let db = db_with_view(8);
    let r = db
        .execute(&format!("EXPLAIN ANALYZE {SLIDING_SQL}"))
        .unwrap();
    assert_eq!(r.schema().fields()[0].name, "plan");
    let text: Vec<String> = r.rows().iter().map(|row| row.get(0).to_string()).collect();
    assert!(text.iter().any(|l| l.contains("(actual rows=")), "{text:?}");
    // Plain EXPLAIN also works as a statement and shows no actuals.
    let r = db.execute(&format!("EXPLAIN {SLIDING_SQL}")).unwrap();
    let text: Vec<String> = r.rows().iter().map(|row| row.get(0).to_string()).collect();
    assert!(text.iter().any(|l| l.contains("== logical ==")), "{text:?}");
    assert!(
        !text.iter().any(|l| l.contains("(actual rows=")),
        "{text:?}"
    );
}

/// EXPLAIN ANALYZE annotates the operators that actually split into
/// morsels with their morsel and worker counts — the `Sort` above them
/// never does — and the serial format stays exactly as it was (so
/// [`mask_times`] and historical goldens keep working).
#[test]
fn explain_analyze_annotates_parallel_morsels() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    rfv_exec::sched::set_parallel_threshold(4);
    rfv_exec::sched::set_threads(4);

    let db = db_with_seq(64);
    let sql = "EXPLAIN ANALYZE SELECT pos, val FROM seq ORDER BY val";
    let masked = mask_times(&db.explain(sql).unwrap());
    let line_of = |operator: &str| {
        masked
            .lines()
            .find(|l| l.trim_start().starts_with(operator))
            .unwrap_or_else(|| panic!("no {operator} node:\n{masked}"))
    };
    let project_line = line_of("Project");
    assert!(
        project_line.contains("morsels=") && project_line.contains("workers="),
        "a split projection must report its morsels: {project_line:?}"
    );
    assert!(
        project_line.contains("time=MASKED"),
        "time masking survives the morsel annotation: {project_line:?}"
    );
    assert!(
        project_line.contains("[parallel: morsel project]"),
        "{project_line:?}"
    );
    let sort_line = line_of("Sort");
    assert!(
        !sort_line.contains("morsels=") && !sort_line.contains("[parallel:"),
        "Sort is one algorithm at every thread count: {sort_line:?}"
    );

    // At one thread the historical annotation format returns unchanged.
    rfv_exec::sched::set_threads(1);
    let masked = mask_times(&db.explain(sql).unwrap());
    assert!(!masked.contains("morsels="), "{masked}");
    assert!(!masked.contains("[parallel:"), "{masked}");
    assert!(masked.contains("(actual rows="), "{masked}");
}

/// `EXPLAIN ANALYZE` says what each ordering operator found in its input:
/// nothing to sort, runs of an ordered key prefix to sort separately, or a
/// full sort. Plain `EXPLAIN` evaluates nothing and says nothing.
#[test]
fn explain_analyze_says_what_the_ordering_found() {
    let _guard = knob_guard();
    let db = Database::new();
    db.execute(
        "CREATE TABLE ticks (pos BIGINT PRIMARY KEY, region BIGINT NOT NULL, \
         month BIGINT NOT NULL, cust BIGINT NOT NULL, amount DOUBLE NOT NULL)",
    )
    .unwrap();
    let tuples: Vec<String> = (1..=240)
        .map(|i| {
            format!(
                "({i}, {}, {}, {}, {i}.25)",
                i * 7 % 16,
                i * 5 % 24,
                i * 11 % 90
            )
        })
        .collect();
    db.execute(&format!("INSERT INTO ticks VALUES {}", tuples.join(",")))
        .unwrap();
    // `<operator> order=<found>` of every node whose actuals carry the note.
    let orders_in = |text: &str| -> Vec<String> {
        let notes = text.lines().filter_map(|line| {
            let (at, end) = (line.rfind(" order=")?, line.find(" time=")?);
            let operator = line.trim_start().split(['(', ':']).next()?;
            Some(format!("{operator} {}", &line[at + 1..end]))
        });
        notes.collect()
    };
    let orders = |sql: &str| orders_in(&db.explain(&format!("EXPLAIN ANALYZE {sql}")).unwrap());

    // The three-OVER statement, root first: the scan's `pos` order is no
    // use to the innermost node, and each later node finds `region` done.
    let three = "SELECT pos, \
         SUM(amount) OVER (PARTITION BY region ORDER BY pos ROWS 2 PRECEDING) AS a, \
         SUM(amount) OVER (PARTITION BY region, cust ORDER BY pos ROWS 2 PRECEDING) AS b, \
         SUM(amount) OVER (PARTITION BY region ORDER BY month, pos ROWS 2 PRECEDING) AS c \
         FROM ticks";
    let three_found = [
        "Window order=runs(16) on 1 of 3 keys",
        "Window order=runs(16) on 1 of 3 keys",
        "Window order=full",
    ];
    assert_eq!(orders(three), three_found);
    // A window in scan order, and a Sort above a window that delivers it.
    assert_eq!(
        orders("SELECT pos, SUM(amount) OVER (ORDER BY pos ROWS 2 PRECEDING) AS s FROM ticks ORDER BY pos"),
        ["Sort order=input", "Window order=input"]
    );
    assert_eq!(
        orders("SELECT pos FROM ticks ORDER BY amount DESC"),
        ["Sort order=full"]
    );
    let plain = db.explain(&format!("EXPLAIN {three}")).unwrap();
    assert!(orders_in(&plain).is_empty(), "{plain}");

    // What an ordering operator finds, and so how much it sorts, does not
    // depend on the thread count — morsels split under it or not.
    let _reset = KnobReset;
    rfv_exec::sched::set_parallel_threshold(4);
    // Ordered on `region` only: the `Sort` has runs to sort, not the whole.
    let prefix = "SELECT region, pos FROM (SELECT region, pos, SUM(amount) OVER \
         (PARTITION BY region ORDER BY month ROWS 2 PRECEDING) AS s FROM ticks) t \
         ORDER BY region, pos";
    let cases = [
        (three, three_found.as_slice()),
        (
            prefix,
            &["Sort order=runs(16) on 1 of 2 keys", "Window order=full"],
        ),
    ];
    for (sql, found) in cases {
        for threads in [1, 4] {
            rfv_exec::sched::set_threads(threads);
            assert_eq!(orders(sql), found, "threads={threads}: {sql}");
        }
    }
}

/// The scheduler's process-wide counters are mirrored into every
/// engine's registry, so `\metrics` / `metrics_json` expose scheduler
/// activity without a side channel.
#[test]
fn scheduler_counters_are_mirrored_into_metrics() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    rfv_exec::sched::set_parallel_threshold(4);
    rfv_exec::sched::set_threads(4);

    let db = db_with_seq(64);
    db.execute("SELECT pos, val FROM seq ORDER BY val DESC")
        .unwrap();
    assert!(
        db.metrics().counter_value("sched.tasks") > 0,
        "forced-open morsel operators must schedule pool tasks"
    );
    assert!(db.metrics().counter_value("sched.parallel_ops") > 0);
    let parsed = Json::parse(&db.metrics_json()).unwrap();
    let counters = parsed.get("counters").expect("counters object");
    for key in ["sched.tasks", "sched.steals", "sched.parallel_ops"] {
        assert!(counters.get(key).is_some(), "missing counter {key}");
    }
    assert!(
        parsed
            .get("histograms")
            .and_then(|h| h.get("sched.busy_ns"))
            .is_some(),
        "busy-time histogram is mirrored"
    );
}

#[test]
fn disabled_tracing_is_zero_overhead_and_identical() {
    let traced = db_with_view(20);
    traced.set_tracing(true);
    let plain = db_with_view(20);
    let a = traced.execute(SLIDING_SQL).unwrap();
    let b = plain.execute(SLIDING_SQL).unwrap();
    assert_eq!(a.rows(), b.rows());
    // Traced run recorded spans; untraced run recorded none.
    let trace = traced.last_trace().expect("trace recorded");
    assert!(trace.phase_ns("bind").is_some());
    assert!(trace.phase_ns("execute").is_some());
    assert!(trace.total_ns > 0);
    assert!(plain.last_trace().is_none());
    // Counters stay on either way.
    assert_eq!(traced.metrics().counter_value("query.executed"), 1);
    assert_eq!(plain.metrics().counter_value("query.executed"), 1);
    // The histogram only fills when tracing is on.
    assert_eq!(traced.metrics().histogram("query.ns").count(), 1);
    assert_eq!(plain.metrics().histogram("query.ns").count(), 0);
}

#[test]
fn strategy_counters_sum_to_expressions_planned() {
    let db = db_with_view(30);
    for sql in [
        SLIDING_SQL,
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 \
         FOLLOWING) AS s FROM seq",
        "SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 \
         FOLLOWING) AS a FROM seq",
        "SELECT pos, val FROM seq ORDER BY pos",
    ] {
        db.execute(sql).unwrap();
    }
    let snapshot = db.metrics().counters_snapshot();
    let strategy_total: u64 = snapshot
        .iter()
        .filter(|(k, _)| k.starts_with("rewrite.strategy."))
        .map(|(_, v)| *v)
        .sum();
    let expressions = snapshot.get("rewrite.expressions").copied().unwrap_or(0);
    let expr_fallback = snapshot.get("rewrite.expr_fallback").copied().unwrap_or(0);
    assert!(expressions > 0);
    assert_eq!(expressions, strategy_total + expr_fallback);
    // Report-level outcomes partition the planned queries.
    let planned = snapshot.get("query.planned").copied().unwrap_or(0);
    let rewritten = snapshot.get("rewrite.rewritten").copied().unwrap_or(0);
    let fallback = snapshot.get("rewrite.fallback").copied().unwrap_or(0);
    let disabled = snapshot.get("rewrite.disabled").copied().unwrap_or(0);
    assert_eq!(planned, rewritten + fallback + disabled);
}

#[test]
fn maintenance_counters_track_dml_kinds() {
    let db = db_with_view(10);
    db.sequence_update("seq", 5, 50.0).unwrap();
    db.sequence_insert("seq", 3, 30.0).unwrap();
    db.sequence_delete("seq", 1).unwrap();
    db.execute("INSERT INTO seq VALUES (11, 110.0)").unwrap();
    db.refresh_views("seq").unwrap();
    let m = db.metrics();
    assert_eq!(m.counter_value("maintenance.update"), 1);
    assert_eq!(m.counter_value("maintenance.insert"), 2); // sequence_insert + SQL append
    assert_eq!(m.counter_value("maintenance.delete"), 1);
    assert_eq!(m.counter_value("maintenance.refresh"), 1);
    assert_eq!(m.counter_value("view.created"), 1);
}

#[test]
fn metrics_json_round_trips_and_is_stable() {
    let db = db_with_view(10);
    db.execute(SLIDING_SQL).unwrap();
    let text = db.metrics_json();
    let parsed = Json::parse(&text).expect("metrics JSON parses");
    // Round-trip is byte-stable (ordered objects).
    assert_eq!(parsed.to_string(), text);
    let counters = parsed.get("counters").expect("counters object");
    assert_eq!(
        counters.get("query.executed").and_then(Json::as_i64),
        Some(1)
    );
    assert!(counters.get("exec.rows_scanned").and_then(Json::as_i64) > Some(0));
    // Histograms section exists with the expected schema.
    let h = parsed
        .get("histograms")
        .and_then(|h| h.get("query.ns"))
        .expect("query.ns histogram");
    for key in ["count", "sum_ns", "min_ns", "max_ns", "p50_ns", "p95_ns"] {
        assert!(h.get(key).is_some(), "missing {key}");
    }
}

#[test]
fn failed_statements_are_accounted_calls_equals_successes_plus_failures() {
    use rfv_types::RfvError;
    let db = db_with_seq(8);
    // Two successful runs of one statement (the second is a cache hit).
    db.execute("SELECT pos FROM seq ORDER BY pos").unwrap();
    db.execute("SELECT pos FROM seq ORDER BY pos").unwrap();
    // The same statement aborted by a tiny memory budget.
    db.set_mem_budget(Some(16));
    // A fresh engine-level budget never serves from the result cache of
    // a *different* statement — use new SQL text to dodge the cache.
    let err = db
        .execute("SELECT pos FROM seq ORDER BY pos DESC")
        .unwrap_err();
    assert!(matches!(err, RfvError::ResourceExhausted(_)), "{err}");
    db.set_mem_budget(None);
    // An expired deadline trips at the first operator checkpoint.
    db.set_statement_timeout(Some(std::time::Duration::ZERO));
    let err = db.execute("SELECT val FROM seq").unwrap_err();
    assert!(matches!(err, RfvError::Timeout(_)), "{err}");
    db.set_statement_timeout(None);
    // Plan-time failures (unknown table) are recorded too.
    assert!(db.execute("SELECT x FROM no_such_table").is_err());

    let executed = db.metrics().counter_value("query.executed");
    let failed = db.metrics().counter_value("query.failed");
    assert_eq!(executed, 2, "only completed executions count as executed");
    assert_eq!(failed, 3);
    assert_eq!(db.metrics().counter_value("query.oom"), 1);
    assert_eq!(db.metrics().counter_value("query.timeout"), 1);

    // The PR-10 accounting invariant: every attempt is exactly one of
    // executed or failed, and the per-statement stats agree with the
    // engine counters.
    let stats = db.statement_stats();
    let calls: u64 = stats.iter().map(|s| s.calls).sum();
    let failures: u64 = stats.iter().map(|s| s.failures).sum();
    assert_eq!(calls, executed + failed);
    assert_eq!(failures, failed);
    for s in &stats {
        assert!(s.failures <= s.calls, "{}: failures exceed calls", s.query);
        assert!(s.total_ns >= s.max_ns, "failed calls still carry latency");
    }

    // The failures column is queryable through the system table.
    let rows = db
        .execute(
            "SELECT query, calls, failures FROM rfv_stat_statements \
             WHERE failures > 0 ORDER BY query",
        )
        .unwrap();
    assert_eq!(rows.rows().len(), 3, "each failed statement has an entry");
}

/// One lifecycle, one accounting point: `EXPLAIN ANALYZE` — as a
/// statement, in a script, or through `Database::explain` — is one
/// attempt of its inner query in every consumer, whether it succeeds,
/// times out, or fails to plan. (Few enough distinct statements not to
/// trip the statistics cap.)
#[test]
fn every_attempt_is_accounted_once_plain_or_explain_analyze() {
    use rfv_types::RfvError;
    const SCAN: &str = "SELECT pos FROM seq ORDER BY pos";
    let db = db_with_seq(8);
    let analyze = |sql: &str| format!("EXPLAIN ANALYZE {sql}");

    db.execute(SCAN).unwrap();
    db.execute(SCAN).unwrap();
    db.execute(&analyze(SCAN)).unwrap();
    db.execute_script(&format!("{}; {SCAN}", analyze(SCAN)))
        .unwrap();
    db.explain(&analyze(SCAN)).unwrap();
    // Plain EXPLAIN plans but executes nothing: not an attempt.
    db.explain(SCAN).unwrap();

    db.set_statement_timeout(Some(std::time::Duration::ZERO));
    let err = db.execute(&analyze("SELECT val FROM seq")).unwrap_err();
    assert!(matches!(err, RfvError::Timeout(_)), "{err}");
    db.set_statement_timeout(None);
    assert!(db.execute("SELECT x FROM no_such_table").is_err());
    assert!(db.explain(&analyze("SELECT y FROM no_such_table")).is_err());

    let m = db.metrics();
    let executed = m.counter_value("query.executed");
    let failed = m.counter_value("query.failed");
    assert_eq!(executed, 6, "3 plain + 3 EXPLAIN ANALYZE runs");
    assert_eq!(failed, 3, "1 timeout + 2 plan errors");
    assert_eq!(m.counter_value("query.timeout"), 1);
    assert!(
        m.counter_value("query.planned") > executed,
        "every executed statement and the timed-out one were planned"
    );
    assert_eq!(db.running_statements(), 0, "no admission slot leaked");

    let stats = db.statement_stats();
    let calls: u64 = stats.iter().map(|s| s.calls).sum();
    let failures: u64 = stats.iter().map(|s| s.failures).sum();
    assert_eq!(calls, executed + failed);
    assert_eq!(failures, failed);
    // EXPLAIN ANALYZE lands under its inner query's normalized SQL.
    let scan = stats.iter().find(|s| s.query == SCAN).expect("scan entry");
    assert_eq!((scan.calls, scan.failures), (6, 0));
    assert!(stats.iter().all(|s| !s.query.contains("EXPLAIN")));
    let timed_out = stats
        .iter()
        .find(|s| s.query == "SELECT val FROM seq")
        .expect("the timed-out inner query has an entry");
    assert_eq!((timed_out.calls, timed_out.failures), (1, 1));
}

/// `EXPLAIN ANALYZE` executes, so it takes an admission slot like any
/// other attempt: with the cap at one and a statement in flight it is
/// shed with `Overloaded` and counted in `query.rejected`.
#[test]
fn explain_analyze_passes_the_admission_turnstile() {
    use rfv_storage::VirtualTable;
    use rfv_types::{DataType, Field, Result, RfvError, Row, Schema};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Arc, Mutex};

    /// A system table whose first snapshot blocks until the test
    /// releases it: a statement reading it is admitted, then parked
    /// mid-planning (later lookups of the same statement pass through).
    struct Gate {
        entered: Mutex<Sender<()>>,
        release: Mutex<Receiver<()>>,
    }
    impl VirtualTable for Gate {
        fn name(&self) -> &str {
            "gate"
        }
        fn schema(&self) -> Schema {
            Schema::new(vec![Field::not_null("x", DataType::Int)])
        }
        fn rows(&self) -> Result<Vec<Row>> {
            let _ = self.entered.lock().unwrap().send(());
            // Blocks until the test drops the release sender; every later
            // lookup then passes straight through.
            let _ = self.release.lock().unwrap().recv();
            Ok(Vec::new())
        }
    }

    let db = db_with_seq(4);
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel();
    let gate: Arc<dyn VirtualTable> = Arc::new(Gate {
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    });
    db.catalog().register_virtual(&gate);
    db.set_max_concurrent(1);

    std::thread::scope(|s| {
        let parked = s.spawn(|| db.execute("SELECT x FROM gate"));
        entered_rx.recv().unwrap();
        assert_eq!(
            db.running_statements(),
            1,
            "the parked statement holds the slot"
        );
        let err = db
            .execute("EXPLAIN ANALYZE SELECT pos FROM seq")
            .unwrap_err();
        assert!(matches!(err, RfvError::Overloaded(_)), "{err}");
        drop(release_tx);
        parked.join().unwrap().unwrap();
    });
    assert_eq!(db.metrics().counter_value("query.rejected"), 1);
    assert_eq!(db.running_statements(), 0);
    // With the slot free again the same statement is admitted.
    db.execute("EXPLAIN ANALYZE SELECT pos FROM seq").unwrap();
    let stats = db.statement_stats();
    let scan = stats
        .iter()
        .find(|s| s.query == "SELECT pos FROM seq")
        .expect("entry under the inner query");
    assert_eq!((scan.calls, scan.failures), (2, 1));
}

#[test]
fn rewrite_report_is_shared_not_cloned() {
    let db = db_with_view(10);
    db.execute(SLIDING_SQL).unwrap();
    let a = db.last_rewrite_report().unwrap();
    let b = db.last_rewrite_report().unwrap();
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    assert!(a.rewritten);
    // The trace folds in the same Arc when tracing is on.
    db.set_tracing(true);
    db.execute(SLIDING_SQL).unwrap();
    let trace = db.last_trace().unwrap();
    let report = db.last_rewrite_report().unwrap();
    assert!(std::sync::Arc::ptr_eq(
        trace.rewrite.as_ref().unwrap(),
        &report
    ));
}
