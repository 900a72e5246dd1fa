//! Crash-recovery torture tests for the durable storage layer (WAL +
//! snapshots + replay).
//!
//! The central property: after a simulated crash at *any* kill-point,
//! reopening the data directory must yield a database whose contents are
//! **bit-identical** (including float bits produced by Kahan summation
//! and incremental view maintenance) to a never-crashed oracle that
//! replays the committed prefix of the same workload. A crash may land
//! after a record reached the file but before the statement was
//! acknowledged (`wal.after_append` / `wal.before_fsync`), so the
//! recovered state is allowed to contain exactly one unacknowledged
//! trailing statement — never less than the acked prefix, never anything
//! invented.
//!
//! The fault harness (`rfv_storage::fault`) is process-global, so every
//! test here serializes on [`FAULT_LOCK`].

use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use rfv_core::Database;
use rfv_storage::fault;
use rfv_testkit::{FaultSchedule, Rng, DEFAULT_SEED};
use rfv_types::Value;

/// Fault state is process-global; tests that arm kill-points (or merely
/// perform durable writes that a leaked crash state would poison) must
/// not interleave.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfv-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    }
}

/// Every table/view the workload can create, in a fixed order. Querying
/// a name that does not (currently) exist contributes an `<absent>`
/// marker, so DROP TABLE shows up in the fingerprint too.
const FP_TABLES: &[&str] = &["seq", "plain", "mv_cum", "mv_win"];

fn fingerprint(db: &Database) -> String {
    let mut out = String::new();
    for t in FP_TABLES {
        out.push_str(t);
        out.push('=');
        match db.execute(&format!("SELECT pos, val FROM {t} ORDER BY pos")) {
            Ok(r) => {
                for row in r.rows() {
                    for v in row.values() {
                        match v {
                            // Exact bits, not display rounding: Kahan
                            // sums must survive recovery unchanged.
                            Value::Float(x) => out.push_str(&format!("f{:016x}", x.to_bits())),
                            other => out.push_str(&format!("{other:?}")),
                        }
                        out.push(',');
                    }
                    out.push(';');
                }
            }
            Err(_) => out.push_str("<absent>"),
        }
        out.push('\n');
    }
    out
}

#[derive(Debug, Clone)]
enum Op {
    Sql(String),
    /// `Database::sequence_update` — SQL UPDATE is rejected on tables
    /// backing simple sequence views, and this path logs a *typed* WAL
    /// record instead of statement text.
    SeqUpdate {
        pos: i64,
        val: f64,
    },
    /// `Database::sequence_insert` / `sequence_delete`: the other two
    /// single-op typed records, shifting later positions on replay.
    SeqInsert {
        pos: i64,
        val: f64,
    },
    SeqDelete {
        pos: i64,
    },
    Snapshot,
    Compact,
}

fn apply(db: &Database, op: &Op) -> rfv_types::Result<()> {
    match op {
        Op::Sql(sql) => db.execute(sql).map(|_| ()),
        Op::SeqUpdate { pos, val } => db.sequence_update("seq", *pos, *val),
        Op::SeqInsert { pos, val } => db.sequence_insert("seq", *pos, *val),
        Op::SeqDelete { pos } => db.sequence_delete("seq", *pos),
        Op::Snapshot => db.persist_snapshot().map(|_| ()),
        Op::Compact => db.persist_compact().map(|_| ()),
    }
}

/// Replay one workload op on the in-memory oracle. Snapshot/compact are
/// durability-only: they do not change logical database state.
fn apply_oracle(db: &Database, op: &Op) -> rfv_types::Result<()> {
    match op {
        Op::Snapshot | Op::Compact => Ok(()),
        _ => apply(db, op),
    }
}

/// A deterministic mixed DML+DDL workload: a dense sequence table with
/// one or two materialized reporting-function views (cumulative and
/// sliding-window), plus a view-free `plain` table that gets inserts,
/// deletes, drops and re-creations. Interspersed snapshot/compact ops
/// exercise the snapshot kill-points and WAL rotation.
fn workload(rng: &mut Rng) -> Vec<Op> {
    let mut ops = vec![Op::Sql(
        "CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)".to_string(),
    )];
    let mut next_seq: i64 = 1;
    for _ in 0..rng.usize_in(3, 8) {
        ops.push(Op::Sql(format!(
            "INSERT INTO seq VALUES ({next_seq}, {:?})",
            rng.f64_in(-100.0, 100.0)
        )));
        next_seq += 1;
    }
    ops.push(Op::Sql(
        "CREATE MATERIALIZED VIEW mv_cum AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS s FROM seq"
            .to_string(),
    ));
    let mut have_win = false;
    // `Some(live keys)` while the table exists, `None` before creation
    // and after a DROP TABLE.
    let mut plain: Option<Vec<i64>> = None;
    let mut next_plain: i64 = 1;
    for _ in 0..rng.usize_in(30, 60) {
        match rng.u64_below(14) {
            0..=3 => {
                let n = rng.usize_in(1, 3);
                let tuples: Vec<String> = (0..n)
                    .map(|_| {
                        let t = format!("({next_seq}, {:?})", rng.f64_in(-100.0, 100.0));
                        next_seq += 1;
                        t
                    })
                    .collect();
                ops.push(Op::Sql(format!(
                    "INSERT INTO seq VALUES {}",
                    tuples.join(", ")
                )));
            }
            4..=5 => ops.push(Op::SeqUpdate {
                pos: rng.i64_in(1, next_seq - 1),
                val: rng.f64_in(-100.0, 100.0),
            }),
            6..=7 => match &mut plain {
                Some(live) => {
                    live.push(next_plain);
                    ops.push(Op::Sql(format!(
                        "INSERT INTO plain VALUES ({next_plain}, {:?})",
                        rng.f64_in(-1e6, 1e6)
                    )));
                    next_plain += 1;
                }
                None => {
                    ops.push(Op::Sql(
                        "CREATE TABLE plain (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)"
                            .to_string(),
                    ));
                    plain = Some(Vec::new());
                }
            },
            8 => {
                if let Some(live) = &mut plain {
                    if !live.is_empty() {
                        let i = rng.usize_in(0, live.len() - 1);
                        let p = live.swap_remove(i);
                        ops.push(Op::Sql(format!("DELETE FROM plain WHERE pos = {p}")));
                    }
                }
            }
            9 => {
                if plain.is_some() && rng.chance(1, 3) {
                    ops.push(Op::Sql("DROP TABLE plain".to_string()));
                    plain = None;
                }
            }
            10 => ops.push(Op::Snapshot),
            11 => {
                if !have_win && rng.chance(1, 2) {
                    ops.push(Op::Sql(
                        "CREATE MATERIALIZED VIEW mv_win AS SELECT pos, SUM(val) OVER \
                         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM seq"
                            .to_string(),
                    ));
                    have_win = true;
                } else {
                    ops.push(Op::Compact);
                }
            }
            12 => {
                ops.push(Op::SeqInsert {
                    pos: rng.i64_in(1, next_seq),
                    val: rng.f64_in(-100.0, 100.0),
                });
                next_seq += 1;
            }
            13 => {
                // Keep at least one row so later updates have a target.
                if next_seq > 2 {
                    ops.push(Op::SeqDelete {
                        pos: rng.i64_in(1, next_seq - 1),
                    });
                    next_seq -= 1;
                }
            }
            _ => unreachable!(),
        }
    }
    ops
}

fn is_crash(e: &rfv_types::RfvError) -> bool {
    e.to_string().contains(fault::CRASH_MARKER)
}

fn run_case(seed: u64, case: u64) {
    let schedule = FaultSchedule::derive(seed, case, 40);
    let mut rng = Rng::new(seed ^ case.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let ops = workload(&mut rng);
    let dir = case_dir(&format!("case-{case}"));

    let db = Database::open(&dir).expect("fresh durable open must succeed");
    fault::reset();
    fault::arm(schedule.point, schedule.countdown, schedule.torn_bytes);

    let mut acked: Vec<&Op> = Vec::new();
    let mut pending: Option<&Op> = None;
    for op in &ops {
        match apply(&db, op) {
            Ok(()) => acked.push(op),
            Err(e) if is_crash(&e) => {
                // Only a statement's WAL record can be durable-but-
                // unacked; a crashed snapshot/compact changes nothing.
                if !matches!(op, Op::Snapshot | Op::Compact) {
                    pending = Some(op);
                }
                break;
            }
            Err(e) => panic!(
                "workload op failed for a non-crash reason\n  \
                 seed=0x{seed:x} case={case} schedule={schedule:?}\n  op: {op:?}\n  error: {e}"
            ),
        }
    }
    fault::reset();
    drop(db);

    let recovered = Database::open(&dir).unwrap_or_else(|e| {
        panic!(
            "recovery after simulated crash failed\n  \
             seed=0x{seed:x} case={case} schedule={schedule:?}\n  error: {e}"
        )
    });
    let got = fingerprint(&recovered);
    drop(recovered);

    // Oracle: a never-crashed in-memory database replaying the acked
    // prefix — and then, as a second candidate, the one in-flight
    // statement (its record may have reached the file before the crash).
    let oracle = Database::new();
    for op in &acked {
        apply_oracle(&oracle, op)
            .unwrap_or_else(|e| panic!("oracle replay of acked op failed: {op:?}: {e}"));
    }
    let mut candidates = vec![fingerprint(&oracle)];
    if let Some(op) = pending {
        apply_oracle(&oracle, op)
            .unwrap_or_else(|e| panic!("oracle replay of in-flight op failed: {op:?}: {e}"));
        candidates.push(fingerprint(&oracle));
    }
    assert!(
        candidates.contains(&got),
        "recovered database diverges from the committed-prefix oracle\n  \
         seed=0x{seed:x} case={case} schedule={schedule:?}\n  \
         acked={} pending={}\n--- recovered ---\n{got}\n--- oracle (acked) ---\n{}",
        acked.len(),
        pending.is_some(),
        candidates[0]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The kill-point matrix: `RFV_CASES` (default 200) seeded crashes at
/// schedule-derived points, each recovered and checked against the
/// oracle. `RFV_SEED=0x…` reproduces a CI soak failure locally.
#[test]
fn recovery_torture_matrix() {
    let _g = lock();
    let seed = env_u64("RFV_SEED").unwrap_or(DEFAULT_SEED);
    let cases = env_u64("RFV_CASES").unwrap_or(200);
    for case in 0..cases {
        run_case(seed, case);
    }
    fault::reset();
}

/// No crash at all: a clean close and reopen must round-trip everything,
/// replaying the whole WAL (no snapshot was ever written).
#[test]
fn clean_reopen_round_trips_bit_exact() {
    let _g = lock();
    fault::reset();
    let dir = case_dir("clean");
    let mut rng = Rng::new(0x00C1_EA11);
    let ops = workload(&mut rng);
    let db = Database::open(&dir).unwrap();
    let oracle = Database::new();
    let mut stmts = 0u64;
    for op in &ops {
        // Skip snapshot/compact: this test wants a pure WAL replay.
        if matches!(op, Op::Snapshot | Op::Compact) {
            continue;
        }
        apply(&db, op).unwrap();
        apply_oracle(&oracle, op).unwrap();
        stmts += 1;
    }
    let want = fingerprint(&oracle);
    assert_eq!(fingerprint(&db), want, "durable and oracle agree pre-close");
    drop(db);

    let recovered = Database::open(&dir).unwrap();
    let status = recovered.persist_status().expect("reopened db is durable");
    assert!(!status.snapshot_loaded, "no snapshot was written");
    assert_eq!(status.replayed, stmts, "one WAL record per statement");
    assert_eq!(status.truncated_bytes, 0);
    assert_eq!(fingerprint(&recovered), want);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot mid-workload, more DML on top, clean close: recovery must
/// compose the snapshot with the WAL tail and replay only the tail.
#[test]
fn snapshot_plus_wal_tail_composition() {
    let _g = lock();
    fault::reset();
    let dir = case_dir("snap-tail");
    let db = Database::open(&dir).unwrap();
    let oracle = Database::new();
    let pre = [
        "CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)",
        "INSERT INTO seq VALUES (1, 0.1), (2, 0.2), (3, 0.3)",
        "CREATE MATERIALIZED VIEW mv_cum AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS s FROM seq",
    ];
    let post = [
        Op::Sql("INSERT INTO seq VALUES (4, 0.4), (5, 0.5)".to_string()),
        Op::SeqUpdate { pos: 2, val: 2.5 },
        Op::Sql("INSERT INTO seq VALUES (6, 123.456)".to_string()),
        Op::SeqInsert { pos: 3, val: -0.7 },
        Op::SeqDelete { pos: 1 },
        Op::SeqInsert { pos: 7, val: 0.1 },
    ];
    for sql in pre {
        db.execute(sql).unwrap();
        oracle.execute(sql).unwrap();
    }
    db.persist_snapshot().unwrap();
    for op in &post {
        apply(&db, op).unwrap();
        apply_oracle(&oracle, op).unwrap();
    }
    drop(db);

    let recovered = Database::open(&dir).unwrap();
    let status = recovered.persist_status().unwrap();
    assert!(status.snapshot_loaded, "snapshot must be used");
    assert_eq!(
        status.replayed,
        post.len() as u64,
        "only the WAL tail past the snapshot is replayed"
    );
    assert_eq!(fingerprint(&recovered), fingerprint(&oracle));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Manually corrupt and tear the WAL tail on disk: recovery must
/// truncate, keep the intact prefix, and never panic or invent data.
#[test]
fn corrupt_and_torn_wal_tails_truncate_cleanly() {
    let _g = lock();
    fault::reset();
    let dir = case_dir("corrupt-tail");
    let db = Database::open(&dir).unwrap();
    let stmts = [
        "CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)",
        "INSERT INTO seq VALUES (1, 1.5)",
        "INSERT INTO seq VALUES (2, 2.5)",
        "INSERT INTO seq VALUES (3, 3.5)",
    ];
    for sql in stmts {
        db.execute(sql).unwrap();
    }
    drop(db);
    let wal = dir.join(rfv_core::durability::WAL_FILE);

    // Torn tail: garbage bytes appended, as if a record was cut mid-write.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
    }
    let recovered = Database::open(&dir).unwrap();
    let status = recovered.persist_status().unwrap();
    assert_eq!(status.truncated_bytes, 3, "the garbage tail is cut");
    assert_eq!(status.replayed, stmts.len() as u64, "all records survive");
    let r = recovered
        .execute("SELECT pos, val FROM seq ORDER BY pos")
        .unwrap();
    assert_eq!(r.rows().len(), 3);
    drop(recovered);

    // Corrupt last record: flip its final payload byte. The CRC rejects
    // it, recovery truncates that record, and the prefix survives.
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&wal, &bytes).unwrap();
    let recovered = Database::open(&dir).unwrap();
    let status = recovered.persist_status().unwrap();
    assert!(status.truncated_bytes > 0, "the corrupt record is cut");
    let r = recovered
        .execute("SELECT pos, val FROM seq ORDER BY pos")
        .unwrap();
    assert_eq!(
        r.rows().len(),
        2,
        "the last INSERT (its record was corrupted) is gone; nothing else"
    );
    assert_eq!(r.rows()[1].get(1), &Value::Float(2.5));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crashes inside compaction (snapshot temp write, pre-rename) must
/// leave the previous WAL fully intact: reopening sees everything.
#[test]
fn compact_crash_windows_preserve_state() {
    let _g = lock();
    for point in ["snapshot.mid_write", "snapshot.before_rename"] {
        fault::reset();
        let dir = case_dir(&format!("compact-{point}"));
        let db = Database::open(&dir).unwrap();
        let oracle = Database::new();
        let stmts = [
            "CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)",
            "INSERT INTO seq VALUES (1, 0.1), (2, 0.2), (3, 0.3)",
            "CREATE MATERIALIZED VIEW mv_cum AS SELECT pos, SUM(val) OVER \
             (ORDER BY pos ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS s FROM seq",
        ];
        for sql in stmts {
            db.execute(sql).unwrap();
            oracle.execute(sql).unwrap();
        }
        fault::arm(point, 1, 0);
        let err = db.persist_compact().expect_err("armed compact must crash");
        assert!(is_crash(&err), "{point}: {err}");
        fault::reset();
        drop(db);

        let recovered = Database::open(&dir).unwrap();
        let status = recovered.persist_status().unwrap();
        assert!(
            !status.snapshot_loaded,
            "{point}: the half-written snapshot must not be used"
        );
        assert_eq!(
            fingerprint(&recovered),
            fingerprint(&oracle),
            "crash at {point} lost or invented data"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    fault::reset();
}

/// A successful compact rotates the WAL: the next open loads the
/// snapshot and replays only what came after.
#[test]
fn compact_then_reopen_replays_only_the_tail() {
    let _g = lock();
    fault::reset();
    let dir = case_dir("compact-ok");
    let db = Database::open(&dir).unwrap();
    let oracle = Database::new();
    let stmts = [
        "CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)",
        "INSERT INTO seq VALUES (1, 10.0), (2, 20.0)",
    ];
    for sql in stmts {
        db.execute(sql).unwrap();
        oracle.execute(sql).unwrap();
    }
    db.persist_compact().unwrap();
    let after = "INSERT INTO seq VALUES (3, 30.0)";
    db.execute(after).unwrap();
    oracle.execute(after).unwrap();
    drop(db);

    let recovered = Database::open(&dir).unwrap();
    let status = recovered.persist_status().unwrap();
    assert!(status.snapshot_loaded);
    assert_eq!(status.replayed, 1, "only the post-compact INSERT replays");
    assert_eq!(fingerprint(&recovered), fingerprint(&oracle));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A §6 write that would leave a partition sparse is refused before it
/// changes anything: the live table, its partitioned view and the WAL all
/// stay where they were, so a reopen recovers exactly the live state and
/// the next valid write goes through.
#[test]
fn refused_partitioned_writes_change_nothing() {
    let _g = lock();
    fault::reset();
    let dir = case_dir("partitioned-refused");
    let db = Database::open(&dir).unwrap();
    for sql in [
        "CREATE TABLE pseq (region BIGINT NOT NULL, pos BIGINT NOT NULL, val DOUBLE NOT NULL)",
        "INSERT INTO pseq VALUES (0, 1, 1.5), (0, 2, 2.5), (1, 1, 4.0)",
        "CREATE MATERIALIZED VIEW pv AS SELECT region, pos, SUM(val) OVER \
         (PARTITION BY region ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) \
         AS s FROM pseq",
    ] {
        db.execute(sql).unwrap();
    }
    assert!(db.registry().get("pv").unwrap().is_partitioned());
    let dump = |db: &Database, sql: &str| -> Vec<String> {
        let rows = db.execute(sql).unwrap();
        rows.rows().iter().map(|r| format!("{r:?}")).collect()
    };
    // The base rows and the view's mirror, after checking that the view
    // answers its window query exactly as the base table does.
    let state = |db: &Database| {
        let window = "SELECT region, pos, SUM(val) OVER (PARTITION BY region ORDER BY pos \
                      ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM pseq";
        assert!(db.explain(window).unwrap().contains("(view rewrite)"));
        let derived = dump(db, window);
        db.set_view_rewrite(false);
        let native = dump(db, window);
        db.set_view_rewrite(true);
        assert_eq!(derived, native, "view ≡ native");
        let base = dump(db, "SELECT region, pos, val FROM pseq ORDER BY region, pos");
        let view = dump(db, "SELECT region, pos, val FROM pv ORDER BY region, pos");
        (base, view)
    };
    let before = state(&db);

    let err = db
        .execute("INSERT INTO pseq VALUES (0, 9, 7.0)")
        .unwrap_err();
    assert!(err.to_string().contains("dense positions"), "{err}");
    assert_eq!(state(&db), before, "a refused INSERT changes nothing");
    let err = db
        .execute("UPDATE pseq SET pos = 5 WHERE region = 1")
        .unwrap_err();
    assert!(err.to_string().contains("dense positions"), "{err}");
    assert_eq!(state(&db), before, "a refused UPDATE changes nothing");
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(state(&db), before, "reopened ≡ live");

    db.execute("INSERT INTO pseq VALUES (1, 2, 3.0)").unwrap();
    db.execute("UPDATE pseq SET val = val + 1 WHERE region = 0")
        .unwrap();
    let after = state(&db);
    assert_eq!(after.0.len(), 4);
    assert_ne!(after, before);
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(state(&db), after, "reopened ≡ live after the valid writes");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed WAL append stops the engine. The errored INSERT's row is live
/// in memory but not in the log, so no later statement may run: not a
/// read, which would see the row, nor a write, which would be logged after
/// it and survive a reopen that loses it. Every statement is refused with
/// an error naming the failed record and carrying the failure's own text,
/// and a reopen recovers exactly the acknowledged prefix.
#[test]
fn failed_wal_append_stops_the_engine_until_reopen() {
    let _g = lock();
    fault::reset();
    let dir = case_dir("wal-error-stops");
    let ids = |db: &Database| -> Vec<i64> {
        let rows = db.execute("SELECT id FROM t ORDER BY id").unwrap();
        (rows.rows().iter())
            .map(|r| r.get(0).as_int().unwrap().unwrap())
            .collect()
    };
    let db = Database::open(&dir).unwrap();
    db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT NOT NULL)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    let acked = ids(&db);

    fault::arm("wal.append", 1, 0);
    let err = db.execute("INSERT INTO t VALUES (2, 20)").unwrap_err();
    assert!(is_crash(&err), "{err}");
    // The transient fault is gone; the engine stays stopped.
    fault::reset();
    let refused = [
        db.execute("SELECT id FROM t ORDER BY id").map(|_| ()),
        db.execute("INSERT INTO t VALUES (3, 30)").map(|_| ()),
        db.execute("CREATE TABLE u (x BIGINT)").map(|_| ()),
        db.explain("SELECT id FROM t").map(|_| ()),
        db.refresh_views("t"),
        // A snapshot would make the unlogged row durable.
        db.persist_snapshot().map(|_| ()),
    ];
    for outcome in refused {
        let e = outcome.expect_err("a stopped engine refuses every statement");
        assert!(is_crash(&e), "keeps the failure's text: {e}");
        assert!(e.to_string().contains("INSERT of 1 row(s) into `t`"), "{e}");
    }
    drop(db);

    let db = Database::open(&dir).unwrap();
    assert_eq!(ids(&db), acked, "reopen ≡ the acknowledged prefix");
    db.execute("INSERT INTO t VALUES (3, 30)").unwrap();
    assert_eq!(ids(&db), vec![1, 3]);
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(ids(&db), vec![1, 3], "writes after the reopen are durable");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
