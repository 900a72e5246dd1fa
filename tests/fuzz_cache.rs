//! Differential fuzzing of the two-level query cache.
//!
//! Each case generates an initial integer-valued sequence plus a random
//! interleaving of queries and DML, then plays the same interleaving
//! through three engines in lock-step:
//!
//! * **cache on** — result cache explicitly enabled (8 MiB);
//! * **cache off** — capacity 0, the pure pre-cache execution path;
//! * **oracle** — a *fresh* `Database` rebuilt from scratch before every
//!   query, so it can never hold cached or incrementally-maintained
//!   state at all.
//!
//! Every query's rows must be **byte-identical** across all three (the
//! data is integer-valued, so window sums are exact and `Value` equality
//! is the right comparison — no tolerance). Queries repeat by
//! construction (frames are drawn from a small space), so the cache-on
//! engine serves real hits, and DML between repeats exercises precise
//! invalidation: any stale entry served anywhere shows up as a value
//! mismatch against the oracle.
//!
//! The whole interleaving runs at thread counts 1 and 8 (process-wide
//! scheduler knob, hence the knob guard), and the collected outputs of
//! the two thread counts must in turn be identical — caching must not
//! interact with morsel-parallel execution.
//!
//! Replay with `RFV_SEED=0x… cargo test -q --test fuzz_cache`.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use rfv_core::{BatchOp, Database, MaintBatch};
use rfv_exec::sched;
use rfv_testkit::{check, gen, Rng};
use rfv_types::Row;

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

/// One step of the interleaving: `(kind, a, b)`.
///
/// * kind 0–3 → a query (window frame `(a, b)`, aggregate, view mirror
///   read, plain-table sort);
/// * kind 4 → a maintenance batch updating position `a` to value `b`;
/// * kind 5 → SQL `UPDATE`/`DELETE`+re-`INSERT` on the plain table.
type Step = (u8, i64, i64);

type Scenario = (Vec<i64>, Vec<Step>);

fn scenario(rng: &mut Rng) -> Scenario {
    let vals = gen::vec_of(gen::i64_in(-20, 20), 4, 24)(rng);
    let steps = gen::vec_of(
        |rng: &mut Rng| {
            (
                rng.u64_below(6) as u8,
                rng.i64_in(0, 3),
                rng.i64_in(-40, 40),
            )
        },
        3,
        20,
    )(rng);
    (vals, steps)
}

/// Build the engine under test: a viewed sequence table `seq`, its
/// materialized sliding-sum view, and a plain (view-free) table `t`
/// that accepts arbitrary SQL DML.
fn setup(vals: &[i64]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    let tuples: Vec<String> = vals
        .iter()
        .enumerate()
        .map(|(i, v)| format!("({}, {})", i + 1, *v as f64))
        .collect();
    db.execute(&format!("INSERT INTO seq VALUES {}", tuples.join(", ")))
        .unwrap();
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    .unwrap();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT NOT NULL)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 5), (2, -3), (3, 11), (4, 0)")
        .unwrap();
    db
}

fn query_sql(kind: u8, a: i64, b: i64) -> String {
    match kind % 4 {
        0 => format!(
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN {} PRECEDING \
             AND {} FOLLOWING) AS s FROM seq ORDER BY pos",
            a.rem_euclid(4),
            b.rem_euclid(4)
        ),
        1 => "SELECT COUNT(*) AS n, SUM(val) AS s, MIN(val) AS lo, MAX(val) AS hi FROM seq"
            .to_string(),
        2 => "SELECT pos, val FROM mv ORDER BY pos".to_string(),
        _ => "SELECT id, v FROM t ORDER BY v DESC, id".to_string(),
    }
}

/// Apply one DML step. Sequence-table changes go through the batched
/// maintenance path (plain UPDATE on a view base is guarded); the plain
/// table takes ordinary SQL DML. Deterministic: no step can fail.
fn apply_dml(db: &Database, n_rows: usize, kind: u8, a: i64, b: i64) {
    if kind == 4 {
        let k = a.rem_euclid(n_rows as i64) + 1;
        let mut batch = MaintBatch::new();
        batch.push(BatchOp::Update { k, val: b as f64 });
        db.apply_batch("seq", &batch)
            .unwrap_or_else(|e| panic!("batch update pos {k} failed: {e}"));
    } else {
        let id = a.rem_euclid(4) + 1;
        db.execute(&format!("UPDATE t SET v = {b} WHERE id = {id}"))
            .unwrap();
        db.execute(&format!("DELETE FROM t WHERE id = {id}"))
            .unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({id}, {b})"))
            .unwrap();
    }
}

/// Play the interleaving through `db`, returning every query's rows in
/// order.
fn play(db: &Database, steps: &[Step], n_rows: usize) -> Vec<Vec<Row>> {
    let mut outputs = Vec::new();
    for &(kind, a, b) in steps {
        if kind < 4 {
            let sql = query_sql(kind, a, b);
            let rows = db
                .execute(&sql)
                .unwrap_or_else(|e| panic!("query failed: {e}\nsql: {sql}"))
                .into_rows();
            outputs.push(rows);
        } else {
            apply_dml(db, n_rows, kind, a, b);
        }
    }
    outputs
}

/// Replay only the DML prefix of `steps[..upto]` into a fresh engine —
/// the "never cached anything" oracle state before query step `upto`.
fn oracle_at(vals: &[i64], steps: &[Step], upto: usize) -> Database {
    let db = setup(vals);
    db.set_result_cache(0);
    for &(kind, a, b) in &steps[..upto] {
        if kind >= 4 {
            apply_dml(&db, vals.len(), kind, a, b);
        }
    }
    db
}

#[test]
fn cache_on_off_and_oracle_are_byte_identical_at_1_and_8_threads() {
    let _guard = knob_guard();
    let _reset = KnobReset;
    check(
        "cache on ≡ cache off ≡ fresh oracle, threads ∈ {1, 8}",
        scenario,
        |(vals, steps)| {
            let mut per_thread_outputs: Vec<Vec<Vec<Row>>> = Vec::new();
            for threads in [1usize, 8] {
                sched::set_threads(threads);
                sched::set_parallel_threshold(4);

                let on = setup(vals);
                on.set_result_cache(8 << 20);
                let off = setup(vals);
                off.set_result_cache(0);

                let out_on = play(&on, steps, vals.len());
                let out_off = play(&off, steps, vals.len());
                assert_eq!(
                    out_on, out_off,
                    "cache-on diverged from cache-off at {threads} threads"
                );

                // Oracle: before every query step, rebuild a fresh
                // engine with the DML prefix applied and run just that
                // query — nothing cacheable survives between queries.
                let mut q = 0;
                for (i, &(kind, a, b)) in steps.iter().enumerate() {
                    if kind >= 4 {
                        continue;
                    }
                    let oracle = oracle_at(vals, steps, i);
                    let sql = query_sql(kind, a, b);
                    let rows = oracle
                        .execute(&sql)
                        .unwrap_or_else(|e| panic!("oracle query failed: {e}\nsql: {sql}"))
                        .into_rows();
                    assert_eq!(
                        out_on[q], rows,
                        "cache-on diverged from fresh oracle at {threads} threads\nsql: {sql}"
                    );
                    q += 1;
                }

                // A scenario with repeated queries must actually hit.
                let stats = on.cache_stats();
                assert_eq!(
                    stats.hits + stats.misses,
                    q as u64,
                    "every cacheable query is exactly one hit or miss"
                );
                per_thread_outputs.push(out_on);
            }
            assert_eq!(
                per_thread_outputs[0], per_thread_outputs[1],
                "outputs differ between 1 and 8 threads"
            );
        },
    );
}

/// Toggling the cache off mid-stream drops every entry and keeps
/// serving correct (uncached) answers; toggling it back on re-populates.
#[test]
fn toggling_cache_midstream_is_safe() {
    let vals: Vec<i64> = (0..12).map(|i| (i * 3) % 7 - 3).collect();
    let db = setup(&vals);
    db.set_result_cache(8 << 20);
    let sql = query_sql(0, 2, 1);
    let first = db.execute(&sql).unwrap();
    let warm = db.execute(&sql).unwrap();
    assert_eq!(first.rows(), warm.rows());
    assert!(db.cache_stats().hits >= 1, "warm repeat must hit");

    db.set_result_cache(0);
    let stats = db.cache_stats();
    assert!(!stats.enabled);
    assert_eq!(stats.result_entries, 0, "disable drops every entry");
    assert_eq!(stats.resident_bytes, 0);
    let cold = db.execute(&sql).unwrap();
    assert_eq!(first.rows(), cold.rows());

    db.set_result_cache(1 << 20);
    let repop1 = db.execute(&sql).unwrap();
    let repop2 = db.execute(&sql).unwrap();
    assert_eq!(repop1.rows(), repop2.rows());
    assert_eq!(first.rows(), repop2.rows());
}

/// A second viewed scenario for the in-place write path: `seq` under three
/// views whose mirrors are read by SQL (whole bodies, index-ordered tails,
/// bounded slices), and `bare`, a view-less sequence table whose edits no
/// view-registry change accompanies — the table's own generation is then all
/// that stands between a cached result and a stale read.
fn setup_mirrors(vals: &[i64]) -> Database {
    let db = Database::new();
    let tuples: Vec<String> = (vals.iter().enumerate())
        .map(|(i, v)| format!("({}, {})", i + 1, *v as f64))
        .collect();
    for table in ["seq", "bare"] {
        db.execute(&format!(
            "CREATE TABLE {table} (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)"
        ))
        .unwrap();
        db.execute(&format!("INSERT INTO {table} VALUES {}", tuples.join(", ")))
            .unwrap();
    }
    for (name, agg, frame) in [
        ("mv", "SUM", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"),
        ("mv_cum", "SUM", "ROWS UNBOUNDED PRECEDING"),
        ("mv_max", "MAX", "ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING"),
    ] {
        db.execute(&format!(
            "CREATE MATERIALIZED VIEW {name} AS SELECT pos, {agg}(val) OVER \
             (ORDER BY pos {frame}) AS s FROM seq"
        ))
        .unwrap();
    }
    db
}

/// Kinds 0–4 read (the same few statements again and again, so the cache-on
/// engine serves hits whenever nothing changed in between); 5–9 are
/// sequence edits. `n` is the current length of `seq`.
fn mirror_step(db: &Database, n: &mut i64, (kind, a, b): Step) -> Option<Vec<Row>> {
    let k = a.rem_euclid((*n).max(1)) + 1;
    let read = match kind {
        0 => "SELECT pos, val FROM mv ORDER BY pos".to_string(),
        1 => format!(
            "SELECT pos, val FROM mv_cum WHERE pos > {} ORDER BY pos",
            k - 1
        ),
        2 => format!(
            "SELECT pos, val FROM mv_max WHERE pos >= {k} AND pos < {}",
            k + 3
        ),
        3 => "SELECT pos, val FROM bare ORDER BY pos".to_string(),
        4 => format!("SELECT val FROM bare WHERE pos = {}", a.rem_euclid(4) + 1),
        5 if *n > 0 => {
            return db
                .sequence_update("seq", k, b as f64)
                .map(|()| None)
                .unwrap()
        }
        6 => {
            return db
                .sequence_update("bare", a.rem_euclid(4) + 1, b as f64)
                .map(|()| None)
                .unwrap()
        }
        7 => {
            *n += 1;
            let at = a.rem_euclid(*n) + 1;
            return db
                .sequence_insert("seq", at, b as f64)
                .map(|()| None)
                .unwrap();
        }
        8 if *n > 1 => {
            *n -= 1;
            return db.sequence_delete("seq", k).map(|()| None).unwrap();
        }
        _ => {
            *n += 1;
            let sql = format!("INSERT INTO seq VALUES ({}, {})", *n, b as f64);
            return db.execute(&sql).map(|_| None).unwrap();
        }
    };
    let rows = db.execute(&read);
    Some(rows.unwrap_or_else(|e| panic!("{e}: {read}")).into_rows())
}

/// Mirror tables and a bare sequence table read by SQL between in-place
/// sequence edits: cache on ≡ cache off, statement by statement, and the
/// final mirrors ≡ views created from scratch over the final base table.
#[test]
fn sql_reads_between_in_place_sequence_edits_never_go_stale() {
    check(
        "mirror and base reads between sequence edits: cache on ≡ cache off ≡ rebuilt",
        |rng: &mut Rng| {
            let vals = gen::vec_of(gen::i64_in(-20, 20), 4, 16)(rng);
            let step = |rng: &mut Rng| {
                (
                    rng.u64_below(10) as u8,
                    rng.i64_in(0, 15),
                    rng.i64_in(-40, 40),
                )
            };
            (vals, gen::vec_of(step, 4, 30)(rng))
        },
        |(vals, steps): &Scenario| {
            let play = |cache: usize| {
                let db = setup_mirrors(vals);
                db.set_result_cache(cache);
                let mut n = vals.len() as i64;
                let outputs: Vec<_> = (steps.iter())
                    .filter_map(|&step| mirror_step(&db, &mut n, step))
                    .collect();
                (db, outputs)
            };
            let ((on, out_on), (_, out_off)) = (play(8 << 20), play(0));
            assert_eq!(out_on, out_off, "cache-on diverged from cache-off");

            let base = on.execute("SELECT pos, val FROM seq ORDER BY pos").unwrap();
            let base = base
                .rows()
                .iter()
                .map(|r| r.get(1).as_f64().unwrap().unwrap() as i64);
            let rebuilt = setup_mirrors(&base.collect::<Vec<_>>());
            for view in ["mv", "mv_cum", "mv_max"] {
                let sql = format!("SELECT pos, val FROM {view} ORDER BY pos");
                let body = |db: &Database| db.execute(&sql).unwrap().into_rows();
                assert_eq!(body(&on), body(&rebuilt), "{view} after the edits");
            }
        },
    );
}
