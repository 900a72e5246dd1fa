//! Engine-level differential fuzzing of the **batched** maintenance path.
//!
//! Each case builds four databases over the same random base sequence
//! and the same random view catalog (sliding SUM, cumulative SUM, MAX,
//! MIN), then applies the same random delta batch four ways:
//!
//! * **batched** — one [`Database::apply_batch`] call (the path under
//!   test: region coalescing, one write lock, parallel per-view compute);
//! * **row-at-a-time** — one `sequence_update` / `sequence_insert` /
//!   `sequence_delete` call per op (the §2.3 per-op rules);
//! * **one-op batches** — one `apply_batch` call per op (a single op is a
//!   one-op batch: this leg and the previous one share one write path);
//! * **rematerialized** — views dropped and recreated from the final base
//!   state (the ground truth the paper contrasts against).
//!
//! All four must agree on every view body: byte-identical for integer
//! data (integer window sums are exact in `f64`), within an
//! input-magnitude-scaled tolerance for cancellation-adversarial float
//! data. Batch shapes are biased so append runs, update sets, and the
//! interleaved fallback all get coverage. Every case ends with the error
//! cases — out-of-range, missing, and NULL positions — which must leave
//! base and views untouched on every leg.
//!
//! Replay a failure with `RFV_SEED=0x… cargo test -q --test
//! fuzz_maintenance`.

use rfv_core::{BatchOp, Database, MaintBatch};
use rfv_testkit::{check, gen, oracle, Rng};

/// The views every database in a case registers.
const VIEWS: [&str; 4] = ["mv_sum", "mv_cum", "mv_max", "mv_min"];

/// The view catalog every database in a case registers: one sliding SUM,
/// one cumulative SUM, one MAX and one MIN — every §2.3 patch rule (the
/// local window-sum restart, the running-sum suffix, the MIN/MAX kernel in
/// both directions) inside one batch.
fn create_views(db: &Database, l: i64, h: i64) {
    for (name, sql) in [
        (
            "mv_sum",
            format!(
                "CREATE MATERIALIZED VIEW mv_sum AS SELECT pos, SUM(val) OVER \
                 (ORDER BY pos ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING) AS s FROM seq"
            ),
        ),
        (
            "mv_cum",
            "CREATE MATERIALIZED VIEW mv_cum AS SELECT pos, SUM(val) OVER \
             (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) \
             AS s FROM seq"
                .to_string(),
        ),
        (
            "mv_max",
            format!(
                "CREATE MATERIALIZED VIEW mv_max AS SELECT pos, MAX(val) OVER \
                 (ORDER BY pos ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING) AS s FROM seq"
            ),
        ),
        (
            "mv_min",
            format!(
                "CREATE MATERIALIZED VIEW mv_min AS SELECT pos, MIN(val) OVER \
                 (ORDER BY pos ROWS BETWEEN {h} PRECEDING AND {l} FOLLOWING) AS s FROM seq"
            ),
        ),
    ] {
        db.execute(&sql)
            .unwrap_or_else(|e| panic!("creating {name} failed: {e}"));
    }
}

fn db_with(vals: &[f64], l: i64, h: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .unwrap();
    for (i, v) in vals.iter().enumerate() {
        db.execute(&format!("INSERT INTO seq VALUES ({}, {v:?})", i + 1))
            .unwrap();
    }
    create_views(&db, l, h);
    db
}

/// A view's mirror-table body as `(pos, val)` rows, sorted by position.
/// The value is `None` where the mirror stores SQL NULL (MIN/MAX over an
/// empty clipped window).
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

/// One raw (unresolved) batch op: `(kind_seed, pos_seed, val)`. Seeds are
/// mapped to concrete in-range positions by [`resolve_batch`], which keeps
/// generated streams valid under shrinking.
type RawOp = (u8, usize, f64);

/// Raw op stream generator; `float` switches the value distribution from
/// small integers (exact in `f64`) to mixed-magnitude floats.
fn raw_ops(max_ops: usize, float: bool) -> impl Fn(&mut Rng) -> Vec<RawOp> {
    move |rng| {
        let ops = rng.usize_in(1, max_ops);
        (0..ops)
            .map(|_| {
                let val = if float {
                    let mag = 10f64.powf(rng.f64_in(0.0, 12.0));
                    if rng.bool() {
                        mag
                    } else {
                        -mag
                    }
                } else {
                    rng.i64_in(-100, 100) as f64
                };
                (rng.u64_below(3) as u8, rng.usize_in(0, 64), val)
            })
            .collect()
    }
}

/// Resolve a raw op stream into a concrete [`MaintBatch`] with valid
/// sequential positions against a sequence of initial length `n0`.
/// `shape` biases the batch: 0 forces a pure append run, 1 a pure update
/// set, anything else mixes all three ops (exercising the fallback).
fn resolve_batch(n0: i64, shape: u8, ops: &[RawOp]) -> MaintBatch {
    let mut batch = MaintBatch::new();
    let mut n = n0;
    for &(kind, pos_seed, val) in ops {
        match shape {
            0 => {
                batch.push(BatchOp::Insert { k: n + 1, val });
                n += 1;
            }
            1 if n > 0 => {
                batch.push(BatchOp::Update {
                    k: 1 + (pos_seed as i64 % n),
                    val,
                });
            }
            1 => {}
            _ => match kind % 3 {
                0 if n > 0 => batch.push(BatchOp::Update {
                    k: 1 + (pos_seed as i64 % n),
                    val,
                }),
                1 if n > 0 => {
                    batch.push(BatchOp::Delete {
                        k: 1 + (pos_seed as i64 % n),
                    });
                    n -= 1;
                }
                _ => {
                    batch.push(BatchOp::Insert {
                        k: 1 + (pos_seed as i64 % (n + 1)),
                        val,
                    });
                    n += 1;
                }
            },
        }
    }
    batch
}

/// Apply the batch through the per-op §2.3 engine API.
fn apply_row_at_a_time(db: &Database, batch: &MaintBatch) {
    for op in batch.ops() {
        match *op {
            BatchOp::Update { k, val } => db.sequence_update("seq", k, val).unwrap(),
            BatchOp::Insert { k, val } => db.sequence_insert("seq", k, val).unwrap(),
            BatchOp::Delete { k } => db.sequence_delete("seq", k).unwrap(),
        }
    }
}

/// Apply the batch as one `apply_batch` call per op.
fn apply_as_one_op_batches(db: &Database, batch: &MaintBatch) -> rfv_types::Result<()> {
    for op in batch.ops() {
        let mut one = MaintBatch::new();
        one.push(*op);
        db.apply_batch("seq", &one)?;
    }
    Ok(())
}

/// The three engine legs, as fallible appliers (the error cases need the
/// `Result` the happy-path helpers unwrap).
type Leg = (
    &'static str,
    fn(&Database, &MaintBatch) -> rfv_types::Result<()>,
);
const LEGS: [Leg; 3] = [
    ("batched", |db, b| db.apply_batch("seq", b).map(drop)),
    ("row-at-a-time", |db, b| {
        for op in b.ops() {
            match *op {
                BatchOp::Update { k, val } => db.sequence_update("seq", k, val)?,
                BatchOp::Insert { k, val } => db.sequence_insert("seq", k, val)?,
                BatchOp::Delete { k } => db.sequence_delete("seq", k)?,
            }
        }
        Ok(())
    }),
    ("one-op batches", apply_as_one_op_batches),
];

/// Base rows and every view body, rendered exactly (float bits via
/// `Debug`), for before/after comparisons.
fn full_state(db: &Database) -> Vec<String> {
    std::iter::once("seq")
        .chain(VIEWS)
        .flat_map(|t| {
            db.execute(&format!("SELECT pos, val FROM {t} ORDER BY pos"))
                .unwrap_or_else(|e| panic!("reading {t} failed: {e}"))
                .rows()
                .iter()
                .map(|r| format!("{t}: {:?}", r.values()))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Every op in `bad` must be rejected by `leg` and leave `db` untouched.
fn assert_rejected_untouched(db: &Database, leg: Leg, bad: &[BatchOp], why: &str, context: &str) {
    let before = full_state(db);
    for op in bad {
        let mut batch = MaintBatch::new();
        batch.push(*op);
        assert!(
            (leg.1)(db, &batch).is_err(),
            "{context}: {} leg accepted {op:?} ({why})",
            leg.0
        );
        assert_eq!(
            full_state(db),
            before,
            "{context}: {} leg changed base or views while rejecting {op:?} ({why})",
            leg.0
        );
    }
}

/// The error cases of one leg, on the database that leg just maintained:
/// out-of-range positions, a NULL position, and a position missing from
/// the base table. Nothing may be half-applied.
fn assert_error_cases(db: &Database, leg: Leg, context: &str) {
    let n = db.execute("SELECT pos FROM seq").unwrap().rows().len() as i64;
    let out_of_range = [
        BatchOp::Update { k: 0, val: 1.0 },
        BatchOp::Update { k: n + 1, val: 1.0 },
        BatchOp::Delete { k: n + 1 },
        BatchOp::Insert { k: 0, val: 1.0 },
        BatchOp::Insert { k: n + 2, val: 1.0 },
    ];
    assert_rejected_untouched(db, leg, &out_of_range, "out of range", context);

    // In-range ops, valid on a healthy table.
    let mut in_range = vec![BatchOp::Insert { k: n + 1, val: 1.0 }];
    if n > 0 {
        in_range.push(BatchOp::Update { k: n, val: 1.0 });
        in_range.push(BatchOp::Insert { k: 1, val: 1.0 });
        in_range.push(BatchOp::Delete { k: 1 });
    }
    // A NULL position can only arrive through SQL (storage enforces the
    // primary key's NOT NULL); the append path must refuse it whole.
    let before = full_state(db);
    for sql in [
        "INSERT INTO seq VALUES (NULL, 1.0)".to_string(),
        format!("INSERT INTO seq VALUES ({}, 1.0), (NULL, 2.0)", n + 1),
    ] {
        assert!(db.execute(&sql).is_err(), "{context}: accepted `{sql}`");
        assert_eq!(full_state(db), before, "{context}: `{sql}` left a trace");
    }
    // A position missing from the base (removed behind the engine's back,
    // through the catalog): every op must be refused before it lands.
    let table = db.catalog().table("seq").unwrap();
    if n >= 2 {
        let rid = table
            .read()
            .index_lookup(0, &rfv_types::Value::Int(1))
            .unwrap()[0];
        table.write().delete(rid).unwrap();
        assert_rejected_untouched(db, leg, &in_range, "position 1 missing from base", context);
    }
}

/// Rebuild the rematerialization oracle: same final base data, views
/// created from scratch.
fn remat_oracle(db_after: &Database, l: i64, h: i64) -> Database {
    let raw: Vec<f64> = db_after
        .execute("SELECT pos, val FROM seq ORDER BY pos")
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(1).as_f64().unwrap().unwrap())
        .collect();
    db_with(&raw, l, h)
}

fn assert_bodies_match(
    got: &Database,
    want: &Database,
    which: &str,
    exact: bool,
    scale: f64,
    context: &str,
) {
    for view in VIEWS {
        let a = view_body(got, view);
        let b = view_body(want, view);
        assert_eq!(
            a.len(),
            b.len(),
            "{context}: {view} {which}: body length {} vs {}",
            a.len(),
            b.len()
        );
        for ((pa, va), (pb, vb)) in a.iter().zip(&b) {
            assert_eq!(pa, pb, "{context}: {view} {which}: position drift");
            match (va, vb) {
                (None, None) => {}
                (Some(va), Some(vb)) if exact => assert!(
                    va == vb,
                    "{context}: {view} {which} pos {pa}: {va} != {vb} (integer data \
                     must be byte-identical)"
                ),
                (Some(va), Some(vb)) => assert!(
                    (va - vb).abs() <= 1e-9 * scale,
                    "{context}: {view} {which} pos {pa}: {va} vs {vb} \
                     (input scale {scale})"
                ),
                _ => panic!("{context}: {view} {which} pos {pa}: NULL mismatch {va:?} vs {vb:?}"),
            }
        }
    }
}

/// Runs the case; returns the database the batched leg maintained.
fn run_case(
    vals: &[f64],
    l: i64,
    h: i64,
    batch: &MaintBatch,
    exact: bool,
    context: &str,
) -> Database {
    let db_batch = db_with(vals, l, h);
    let db_row = db_with(vals, l, h);
    let db_single = db_with(vals, l, h);

    let stats = db_batch
        .apply_batch("seq", batch)
        .unwrap_or_else(|e| panic!("{context}: apply_batch failed: {e}"));
    apply_row_at_a_time(&db_row, batch);
    apply_as_one_op_batches(&db_single, batch)
        .unwrap_or_else(|e| panic!("{context}: one-op apply_batch failed: {e}"));

    // Conservation: per view, at most ops − 1 ops can be coalesced away
    // (each region pass accounts for at least one op). The returned stats
    // aggregate over the registered views.
    assert!(
        stats.coalesced <= (batch.len() - 1) * VIEWS.len(),
        "{context}: coalesced {} exceeds {} views × (ops − 1) with {} ops",
        stats.coalesced,
        VIEWS.len(),
        batch.len()
    );

    let mut all_inputs: Vec<f64> = vals.to_vec();
    for op in batch.ops() {
        if let BatchOp::Update { val, .. } | BatchOp::Insert { val, .. } = op {
            all_inputs.push(*val);
        }
    }
    let scale = oracle::input_scale(&all_inputs);

    assert_bodies_match(
        &db_batch,
        &db_row,
        "batched vs row-at-a-time",
        exact,
        scale,
        context,
    );
    // A single op is a one-op batch: the two per-op legs share one write
    // path, so they agree to the bit even on float data.
    assert_eq!(
        full_state(&db_single),
        full_state(&db_row),
        "{context}: one-op batches vs row-at-a-time"
    );
    let oracle_db = remat_oracle(&db_row, l, h);
    assert_bodies_match(
        &db_batch,
        &oracle_db,
        "batched vs remat",
        exact,
        scale,
        context,
    );
    for (db, leg) in [&db_batch, &db_row, &db_single].into_iter().zip(LEGS) {
        assert_error_cases(db, leg, context);
    }
    db_batch
}

#[test]
fn batched_maintenance_matches_row_at_a_time_and_remat_integers() {
    check(
        "batched ≡ row-at-a-time ≡ remat (integer data, byte-identical)",
        |rng| {
            let vals = gen::int_values(0, 20)(rng);
            let (l, h) = gen::window(4)(rng);
            let shape = rng.u64_below(3) as u8;
            let ops = raw_ops(10, false)(rng);
            (vals, l, h, shape, ops)
        },
        |(vals, l, h, shape, ops)| {
            let batch = resolve_batch(vals.len() as i64, *shape, ops);
            if batch.is_empty() {
                return;
            }
            run_case(vals, *l, *h, &batch, true, "int case");
        },
    );
}

#[test]
fn batched_maintenance_matches_under_float_cancellation() {
    check(
        "batched ≡ row-at-a-time ≡ remat (cancellation floats, input-scaled)",
        |rng| {
            let vals = gen::cancellation_values(0, 16)(rng);
            let (l, h) = gen::window(3)(rng);
            let shape = rng.u64_below(3) as u8;
            let ops = raw_ops(8, true)(rng);
            (vals, l, h, shape, ops)
        },
        |(vals, l, h, shape, ops)| {
            let batch = resolve_batch(vals.len() as i64, *shape, ops);
            if batch.is_empty() {
                return;
            }
            run_case(vals, *l, *h, &batch, false, "float case");
        },
    );
}

/// Batches larger than the sequence itself, over short sequences with wide
/// windows: update sets whose `[k−h, k+l]` neighbourhoods reach into the
/// header and trailer and merge there, append runs longer than the body,
/// and long interleaved streams that empty and refill the sequence.
#[test]
fn large_batches_merge_across_header_and_trailer() {
    check(
        "batched ≡ row-at-a-time ≡ remat (batches larger than the sequence)",
        |rng| {
            let vals = gen::int_values(0, 6)(rng);
            let (l, h) = (rng.i64_in(0, 9), rng.i64_in(0, 9));
            let shape = rng.u64_below(3) as u8;
            let ops = raw_ops(40, false)(rng);
            (vals, l, h, shape, ops)
        },
        |(vals, l, h, shape, ops)| {
            let batch = resolve_batch(vals.len() as i64, *shape, ops);
            if batch.is_empty() {
                return;
            }
            run_case(vals, *l, *h, &batch, true, "large-batch case");
        },
    );
}

/// Wide windows over long sequences: `l, h` up to 64 and up to 300 rows,
/// so a MIN/MAX patch runs the sliding-extremum kernel over raw runs far
/// longer than its window, and edits land anywhere in the body, not only
/// near its start. Sorted data keeps a whole window in the kernel's deque.
/// Integer data: all legs byte-identical, and every MIN/MAX mirror row —
/// header and trailer included — equal to a brute-force scan of the
/// final base data.
#[test]
fn wide_window_maintenance_matches_row_at_a_time_and_remat() {
    check(
        "batched ≡ row-at-a-time ≡ remat (windows up to (64, 64), n up to 300)",
        |rng| {
            let mut vals = gen::int_values(0, 300)(rng);
            match rng.u64_below(3) {
                0 => vals.sort_by(f64::total_cmp),
                1 => vals.sort_by(|a, b| b.total_cmp(a)),
                _ => {}
            }
            let (l, h) = gen::window(64)(rng);
            let shape = rng.u64_below(3) as u8;
            let ops: Vec<RawOp> = (raw_ops(12, false)(rng).into_iter())
                .map(|(kind, _, val)| (kind, rng.usize_in(0, 400), val))
                .collect();
            (vals, l, h, shape, ops)
        },
        |(vals, l, h, shape, ops)| {
            let batch = resolve_batch(vals.len() as i64, *shape, ops);
            if batch.is_empty() {
                return;
            }
            let db = run_case(vals, *l, *h, &batch, true, "wide-window case");
            let mut raw = vals.clone();
            for op in batch.ops() {
                match *op {
                    BatchOp::Update { k, val } => raw[k as usize - 1] = val,
                    BatchOp::Insert { k, val } => raw.insert(k as usize - 1, val),
                    BatchOp::Delete { k } => {
                        raw.remove(k as usize - 1);
                    }
                }
            }
            for (view, max, (lo, hi)) in [("mv_max", true, (*l, *h)), ("mv_min", false, (*h, *l))] {
                for (pos, got) in view_body(&db, view) {
                    let want = oracle::brute_minmax_at(&raw, pos - lo, pos + hi, max);
                    assert_eq!(got, want, "{view} pos {pos} vs brute force");
                }
            }
        },
    );
}

/// The SQL surface of the batched path: a multi-row `INSERT … VALUES
/// (…),(…)` must land the same state as the equivalent single-row
/// INSERTs, and must report one batch with `m` rows in the metrics.
#[test]
fn multi_row_sql_insert_matches_single_row_inserts() {
    check(
        "multi-row INSERT ≡ per-row INSERTs on viewed tables",
        |rng| {
            let vals = gen::int_values(0, 12)(rng);
            let appended = gen::int_values(2, 8)(rng);
            let (l, h) = gen::window(3)(rng);
            (vals, appended, l, h)
        },
        |(vals, appended, l, h)| {
            let db_multi = db_with(vals, *l, *h);
            let db_single = db_with(vals, *l, *h);
            let n = vals.len();
            let tuples: Vec<String> = appended
                .iter()
                .enumerate()
                .map(|(j, v)| format!("({}, {v:?})", n + 1 + j))
                .collect();
            db_multi
                .execute(&format!("INSERT INTO seq VALUES {}", tuples.join(", ")))
                .unwrap();
            for (j, v) in appended.iter().enumerate() {
                db_single
                    .execute(&format!("INSERT INTO seq VALUES ({}, {v:?})", n + 1 + j))
                    .unwrap();
            }
            assert_eq!(
                db_multi.metrics().counter_value("maintenance.batch"),
                1,
                "multi-row INSERT must take exactly one batch"
            );
            assert_eq!(
                db_multi.metrics().counter_value("maintenance.batch_rows"),
                appended.len() as u64
            );
            assert_bodies_match(
                &db_multi,
                &db_single,
                "multi-row vs single-row INSERT",
                true,
                1.0,
                "sql append case",
            );
        },
    );
}
