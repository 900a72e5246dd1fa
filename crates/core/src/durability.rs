//! Engine-level durability: logical WAL records, snapshot extension
//! blobs, and the per-database [`Persistence`] handle.
//!
//! The storage crate provides the physical substrate — a CRC-checksummed
//! record log ([`rfv_storage::wal`]) and atomic table snapshots
//! ([`rfv_storage::snapshot`]). This module gives those bytes meaning:
//!
//! * [`WalRecord`] is the *logical* redo log. Statement-driven mutations
//!   are logged as SQL text (the parser preserves explicit parentheses
//!   as `Expr::Nested` and float literals print with exact bits, so the
//!   text round-trips); programmatic sequence maintenance is logged as
//!   typed records. Replay drives the records through the **same engine
//!   code paths** that produced them, so recovered view bodies are
//!   bit-identical to the originals — including the float rounding that
//!   incremental maintenance accumulates, which a rematerialization
//!   would *not* reproduce.
//! * The snapshot *extension blob* serializes the sequence-view registry
//!   (metadata + exact sequence values), because mirror tables alone
//!   cannot restore `ViewData` provenance.
//! * [`Persistence`] owns the WAL handle, the commit mutex that makes
//!   WAL order equal apply order, and the recovery/snapshot bookkeeping
//!   surfaced by `rfv_stat_wal` and `\persist status`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rfv_expr::AggFunc;
use rfv_storage::codec::{self, Reader};
use rfv_storage::snapshot::{self, Snapshot, TableImage};
use rfv_storage::wal::Wal;
use rfv_types::sync::RwLock;
use rfv_types::{Result, RfvError, Row, Value};

use crate::maintenance::BatchOp;
use crate::sequence::{CompleteMinMaxSequence, CompleteSequence, CumulativeSequence, WindowSpec};
use crate::view::{SequenceView, ViewData};

/// File name of the per-database WAL inside its data directory.
pub const WAL_FILE: &str = "wal.rfl";
/// Temp name used while rotating the WAL during `persist compact`.
const WAL_ROTATE_TMP: &str = "wal.rfl.new";

fn bad(what: &str) -> RfvError {
    RfvError::internal(format!("wal record: {what}"))
}

// ---------------------------------------------------------------------------
// Logical WAL records
// ---------------------------------------------------------------------------

/// One logical redo record. See the module docs for the SQL-text vs.
/// typed-record split.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// A mutating statement, replayed through the parser + dispatcher.
    Sql(String),
    /// `INSERT` payload *after* expression evaluation: exact row values,
    /// no re-evaluation on replay.
    InsertRows { table: String, rows: Vec<Row> },
    /// One [`crate::Database::sequence_update`] / `sequence_insert` /
    /// `sequence_delete` call. On disk each kind keeps its own record
    /// tag ([`TAG_SEQ_UPDATE`] + the op's batch tag).
    SeqOp { table: String, op: BatchOp },
    /// One coalesced [`crate::Database::apply_batch`] call
    /// (`sequence_append_bulk` funnels through it).
    Batch { table: String, ops: Vec<BatchOp> },
    /// [`crate::Database::refresh_views`].
    Refresh { table: String },
}

const TAG_SQL: u8 = 1;
const TAG_INSERT_ROWS: u8 = 2;
/// Single-op records: 3 = update, 4 = insert, 5 = delete.
const TAG_SEQ_UPDATE: u8 = 3;
const TAG_SEQ_DELETE: u8 = 5;
const TAG_BATCH: u8 = 6;
const TAG_REFRESH: u8 = 7;

/// Tag of one sequence op inside a `Batch` record (and, offset by
/// [`TAG_SEQ_UPDATE`], the record tag of a single-op record).
fn op_tag(op: &BatchOp) -> u8 {
    match op {
        BatchOp::Update { .. } => 0,
        BatchOp::Insert { .. } => 1,
        BatchOp::Delete { .. } => 2,
    }
}

/// The op's payload after its tag: position, then the value if any.
fn put_op_body(out: &mut Vec<u8>, op: &BatchOp) {
    match *op {
        BatchOp::Update { k, val } | BatchOp::Insert { k, val } => {
            codec::put_i64(out, k);
            codec::put_f64(out, val);
        }
        BatchOp::Delete { k } => codec::put_i64(out, k),
    }
}

fn read_op_body(r: &mut Reader<'_>, tag: u8) -> Result<BatchOp> {
    Ok(match tag {
        0 => BatchOp::Update {
            k: r.i64()?,
            val: r.f64()?,
        },
        1 => BatchOp::Insert {
            k: r.i64()?,
            val: r.f64()?,
        },
        2 => BatchOp::Delete { k: r.i64()? },
        t => return Err(bad(&format!("unknown batch op tag {t}"))),
    })
}

impl WalRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::Sql(text) => {
                codec::put_u8(&mut out, TAG_SQL);
                codec::put_str(&mut out, text);
            }
            WalRecord::InsertRows { table, rows } => {
                codec::put_u8(&mut out, TAG_INSERT_ROWS);
                codec::put_str(&mut out, table);
                codec::put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    codec::put_row(&mut out, row);
                }
            }
            WalRecord::SeqOp { table, op } => {
                codec::put_u8(&mut out, TAG_SEQ_UPDATE + op_tag(op));
                codec::put_str(&mut out, table);
                put_op_body(&mut out, op);
            }
            WalRecord::Batch { table, ops } => {
                codec::put_u8(&mut out, TAG_BATCH);
                codec::put_str(&mut out, table);
                codec::put_u32(&mut out, ops.len() as u32);
                for op in ops {
                    codec::put_u8(&mut out, op_tag(op));
                    put_op_body(&mut out, op);
                }
            }
            WalRecord::Refresh { table } => {
                codec::put_u8(&mut out, TAG_REFRESH);
                codec::put_str(&mut out, table);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_SQL => WalRecord::Sql(r.str()?),
            TAG_INSERT_ROWS => {
                let table = r.str()?;
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(bad("row count exceeds payload"));
                }
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    rows.push(r.row()?);
                }
                WalRecord::InsertRows { table, rows }
            }
            tag @ TAG_SEQ_UPDATE..=TAG_SEQ_DELETE => WalRecord::SeqOp {
                table: r.str()?,
                op: read_op_body(&mut r, tag - TAG_SEQ_UPDATE)?,
            },
            TAG_BATCH => {
                let table = r.str()?;
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(bad("op count exceeds payload"));
                }
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    let tag = r.u8()?;
                    ops.push(read_op_body(&mut r, tag)?);
                }
                WalRecord::Batch { table, ops }
            }
            TAG_REFRESH => WalRecord::Refresh { table: r.str()? },
            t => return Err(bad(&format!("unknown record tag {t}"))),
        };
        if !r.is_empty() {
            return Err(bad("trailing bytes after record"));
        }
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// Snapshot extension blob: the sequence-view registry
// ---------------------------------------------------------------------------

fn put_agg(out: &mut Vec<u8>, func: AggFunc) {
    codec::put_u8(
        out,
        match func {
            AggFunc::Sum => 0,
            AggFunc::Count => 1,
            AggFunc::CountStar => 2,
            AggFunc::Avg => 3,
            AggFunc::Min => 4,
            AggFunc::Max => 5,
        },
    );
}

fn read_agg(r: &mut Reader<'_>) -> Result<AggFunc> {
    Ok(match r.u8()? {
        0 => AggFunc::Sum,
        1 => AggFunc::Count,
        2 => AggFunc::CountStar,
        3 => AggFunc::Avg,
        4 => AggFunc::Min,
        5 => AggFunc::Max,
        t => return Err(bad(&format!("unknown aggregate tag {t}"))),
    })
}

fn put_complete_seq(out: &mut Vec<u8>, seq: &CompleteSequence) {
    codec::put_i64(out, seq.l());
    codec::put_i64(out, seq.h());
    codec::put_i64(out, seq.n());
    let values: Vec<f64> = seq.entries().map(|(_, v)| v).collect();
    codec::put_u32(out, values.len() as u32);
    for v in values {
        codec::put_f64(out, v);
    }
}

fn read_complete_seq(r: &mut Reader<'_>) -> Result<CompleteSequence> {
    let (l, h, n) = (r.i64()?, r.i64()?, r.i64()?);
    let len = r.u32()? as usize;
    if len.saturating_mul(8) > r.remaining() {
        return Err(bad("sequence length exceeds payload"));
    }
    let mut values = Vec::with_capacity(len);
    for _ in 0..len {
        values.push(r.f64()?);
    }
    CompleteSequence::from_values(l, h, n, values)
}

fn put_view_data(out: &mut Vec<u8>, data: &ViewData) {
    match data {
        ViewData::Sum(seq) => {
            codec::put_u8(out, 0);
            put_complete_seq(out, seq);
        }
        ViewData::CumulativeSum(seq) => {
            codec::put_u8(out, 1);
            let body = seq.body();
            codec::put_u32(out, body.len() as u32);
            for &v in body {
                codec::put_f64(out, v);
            }
        }
        ViewData::MinMax(seq) => {
            codec::put_u8(out, 2);
            codec::put_i64(out, seq.l());
            codec::put_i64(out, seq.h());
            codec::put_i64(out, seq.n());
            codec::put_u8(out, u8::from(seq.is_max()));
            let values: Vec<Option<f64>> = ((1 - seq.h())..=(seq.n() + seq.l()))
                .map(|k| seq.get(k))
                .collect();
            codec::put_u32(out, values.len() as u32);
            for v in values {
                match v {
                    Some(v) => {
                        codec::put_u8(out, 1);
                        codec::put_f64(out, v);
                    }
                    None => codec::put_u8(out, 0),
                }
            }
        }
        ViewData::PartitionedSum(parts) => {
            codec::put_u8(out, 3);
            codec::put_u32(out, parts.len() as u32);
            for (key, seq) in parts {
                codec::put_row(out, &Row::new(key.clone()));
                put_complete_seq(out, seq);
            }
        }
    }
}

fn read_view_data(r: &mut Reader<'_>) -> Result<ViewData> {
    Ok(match r.u8()? {
        0 => ViewData::Sum(read_complete_seq(r)?),
        1 => {
            let len = r.u32()? as usize;
            if len.saturating_mul(8) > r.remaining() {
                return Err(bad("sequence length exceeds payload"));
            }
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(r.f64()?);
            }
            ViewData::CumulativeSum(CumulativeSequence::from_values(values))
        }
        2 => {
            let (l, h, n) = (r.i64()?, r.i64()?, r.i64()?);
            let max = r.u8()? != 0;
            let len = r.u32()? as usize;
            if len > r.remaining() {
                return Err(bad("sequence length exceeds payload"));
            }
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(match r.u8()? {
                    0 => None,
                    1 => Some(r.f64()?),
                    t => return Err(bad(&format!("unknown option tag {t}"))),
                });
            }
            ViewData::MinMax(CompleteMinMaxSequence::from_values(l, h, n, max, values)?)
        }
        3 => {
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return Err(bad("partition count exceeds payload"));
            }
            let mut parts = std::collections::BTreeMap::new();
            for _ in 0..n {
                let key: Vec<Value> = r.row()?.values().to_vec();
                parts.insert(key, read_complete_seq(r)?);
            }
            ViewData::PartitionedSum(parts)
        }
        t => return Err(bad(&format!("unknown view data tag {t}"))),
    })
}

/// Serialize the whole view registry for a snapshot's extension blob.
/// Partition column types ride along as a synthetic schema so the codec's
/// existing field encoding can be reused.
pub(crate) fn encode_views(views: &[Arc<SequenceView>]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u32(&mut out, views.len() as u32);
    for v in views {
        codec::put_str(&mut out, &v.name);
        codec::put_str(&mut out, &v.base_table);
        codec::put_str(&mut out, &v.pos_column);
        codec::put_str(&mut out, &v.val_column);
        let part_schema = rfv_types::Schema::new(
            v.partition_columns
                .iter()
                .zip(&v.partition_types)
                .map(|(name, &dt)| rfv_types::Field::not_null(name.clone(), dt))
                .collect(),
        );
        codec::put_schema(&mut out, &part_schema);
        put_agg(&mut out, v.func);
        match v.window {
            WindowSpec::Cumulative => codec::put_u8(&mut out, 0),
            WindowSpec::Sliding { l, h } => {
                codec::put_u8(&mut out, 1);
                codec::put_i64(&mut out, l);
                codec::put_i64(&mut out, h);
            }
        }
        put_view_data(&mut out, &v.data);
    }
    out
}

/// Decode a snapshot extension blob back into sequence views.
pub(crate) fn decode_views(blob: &[u8]) -> Result<Vec<SequenceView>> {
    let mut r = Reader::new(blob);
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(bad("view count exceeds payload"));
    }
    let mut views = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let base_table = r.str()?;
        let pos_column = r.str()?;
        let val_column = r.str()?;
        let part_schema = r.schema()?;
        let partition_columns: Vec<String> = part_schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let partition_types: Vec<rfv_types::DataType> =
            part_schema.fields().iter().map(|f| f.data_type).collect();
        let func = read_agg(&mut r)?;
        let window = match r.u8()? {
            0 => WindowSpec::Cumulative,
            1 => WindowSpec::Sliding {
                l: r.i64()?,
                h: r.i64()?,
            },
            t => return Err(bad(&format!("unknown window tag {t}"))),
        };
        let data = read_view_data(&mut r)?;
        views.push(SequenceView {
            name,
            base_table,
            pos_column,
            val_column,
            partition_columns,
            partition_types,
            func,
            window,
            data,
        });
    }
    if !r.is_empty() {
        return Err(bad("trailing bytes after view registry"));
    }
    Ok(views)
}

// ---------------------------------------------------------------------------
// Persistence handle
// ---------------------------------------------------------------------------

/// Point-in-time durability status, surfaced by `rfv_stat_wal` and the
/// shell's `\persist status`.
#[derive(Debug, Clone)]
pub struct PersistStatus {
    pub dir: PathBuf,
    /// LSN of the first record in the current WAL file.
    pub base_lsn: u64,
    /// LSN of the last durably appended record.
    pub last_lsn: u64,
    /// LSN covered by the newest snapshot this engine knows about.
    pub snapshot_lsn: u64,
    /// Appends / payload bytes / fsyncs through the current WAL handle.
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    /// Snapshots written by this engine since open.
    pub snapshots_written: u64,
    /// Recovery results of the open that produced this engine.
    pub snapshot_loaded: bool,
    pub replayed: u64,
    pub truncated_bytes: u64,
}

/// Everything [`recover`] found on disk, ready for the engine to apply.
pub(crate) struct Recovered {
    pub persistence: Persistence,
    pub snapshot: Option<Snapshot>,
    /// Committed WAL records newer than the snapshot, in LSN order.
    pub tail: Vec<WalRecord>,
}

/// The durable half of a [`crate::Database`]: WAL handle, commit mutex,
/// and snapshot bookkeeping for one data directory.
pub(crate) struct Persistence {
    dir: PathBuf,
    /// Whether WAL appends fsync (`RFV_FSYNC`, read once by the engine).
    fsync: bool,
    /// Write lock only for `compact` (which swaps the handle); appends
    /// take the read side plus the WAL's own append mutex.
    wal: RwLock<Wal>,
    /// Serializes logged mutations so WAL order equals apply order.
    commit: Mutex<()>,
    snapshot_lsn: AtomicU64,
    snapshots_written: AtomicU64,
    snapshot_loaded: AtomicBool,
    replayed: AtomicU64,
    truncated_bytes: AtomicU64,
}

impl Persistence {
    /// Fresh durable directory: create it (and an empty WAL) with no
    /// recovery — the `Database::new()` + `RFV_DATA_DIR` path.
    pub fn create(dir: &Path, fsync: bool) -> Result<Persistence> {
        std::fs::create_dir_all(dir).map_err(|e| {
            RfvError::execution(format!("cannot create data dir {}: {e}", dir.display()))
        })?;
        let wal = Wal::create(&dir.join(WAL_FILE), 0, fsync)?;
        Ok(Persistence {
            dir: dir.to_path_buf(),
            fsync,
            wal: RwLock::new(wal),
            commit: Mutex::new(()),
            snapshot_lsn: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            snapshot_loaded: AtomicBool::new(false),
            replayed: AtomicU64::new(0),
            truncated_bytes: AtomicU64::new(0),
        })
    }

    /// Recover a durable directory: load the newest valid snapshot, scan
    /// the WAL (physically truncating any torn tail), and decode the
    /// committed records newer than the snapshot. The engine applies the
    /// tail *before* attaching the returned handle, so replay is never
    /// re-logged.
    pub fn recover(dir: &Path, fsync: bool) -> Result<Recovered> {
        std::fs::create_dir_all(dir).map_err(|e| {
            RfvError::execution(format!("cannot create data dir {}: {e}", dir.display()))
        })?;
        // A crash between `compact`'s snapshot and its WAL swap can leave
        // the rotation temp file behind; it holds nothing the snapshot
        // doesn't already cover.
        let _ = std::fs::remove_file(dir.join(WAL_ROTATE_TMP));
        let snap = snapshot::latest_valid(dir);
        let snap_lsn = snap.as_ref().map(|s| s.lsn).unwrap_or(0);
        let wal_path = dir.join(WAL_FILE);
        let (wal, tail, truncated) = if wal_path.exists() {
            let scan = Wal::scan(&wal_path)?;
            let committed = scan.records.len() as u64;
            let mut tail = Vec::new();
            for (i, payload) in scan.records.iter().enumerate() {
                let lsn = scan.base_lsn + i as u64 + 1;
                if lsn > snap_lsn {
                    tail.push(WalRecord::decode(payload)?);
                }
            }
            let wal = Wal::open(&wal_path, scan.base_lsn, committed, fsync)?;
            (wal, tail, scan.truncated_bytes)
        } else {
            // Snapshot without a WAL (or an empty directory): start a
            // fresh log whose LSNs continue from the snapshot.
            (Wal::create(&wal_path, snap_lsn, fsync)?, Vec::new(), 0)
        };
        let persistence = Persistence {
            dir: dir.to_path_buf(),
            fsync,
            wal: RwLock::new(wal),
            commit: Mutex::new(()),
            snapshot_lsn: AtomicU64::new(snap_lsn),
            snapshots_written: AtomicU64::new(0),
            snapshot_loaded: AtomicBool::new(snap.is_some()),
            replayed: AtomicU64::new(tail.len() as u64),
            truncated_bytes: AtomicU64::new(truncated),
        };
        Ok(Recovered {
            persistence,
            snapshot: snap,
            tail,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Take the commit mutex. Every logged mutation holds this across
    /// apply + log, so the WAL replays in apply order.
    pub fn commit_lock(&self) -> MutexGuard<'_, ()> {
        self.commit.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one logical record; returns `(lsn, payload_bytes)`.
    pub fn log(&self, rec: &WalRecord) -> Result<(u64, u64)> {
        let payload = rec.encode();
        let lsn = self.wal.read().append(&payload)?;
        Ok((lsn, payload.len() as u64))
    }

    /// Write a snapshot covering everything logged so far. The caller
    /// must hold the commit lock so no mutation lands mid-image.
    pub fn write_snapshot(&self, tables: &[TableImage], extension: &[u8]) -> Result<PathBuf> {
        let lsn = self.wal.read().last_lsn();
        let path = snapshot::write(&self.dir, lsn, tables, extension)?;
        self.snapshot_lsn.store(lsn, Ordering::Release);
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        Ok(path)
    }

    /// Snapshot, rotate the WAL to start at the snapshot LSN, and prune
    /// older snapshots. Caller holds the commit lock. Returns the new
    /// snapshot path and how many old snapshot files were removed.
    ///
    /// Crash-ordering: the snapshot lands (atomic rename) before the WAL
    /// is swapped, and the swap itself is an atomic rename of a complete
    /// header-only log — every intermediate state recovers to the same
    /// database.
    pub fn compact(&self, tables: &[TableImage], extension: &[u8]) -> Result<(PathBuf, u64)> {
        let mut wal = self.wal.write();
        let lsn = wal.last_lsn();
        let path = snapshot::write(&self.dir, lsn, tables, extension)?;
        self.snapshot_lsn.store(lsn, Ordering::Release);
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(WAL_ROTATE_TMP);
        let final_path = self.dir.join(WAL_FILE);
        drop(Wal::create(&tmp, lsn, self.fsync)?);
        std::fs::rename(&tmp, &final_path).map_err(|e| {
            RfvError::execution(format!("cannot rotate wal {}: {e}", final_path.display()))
        })?;
        *wal = Wal::open(&final_path, lsn, 0, self.fsync)?;
        let removed = snapshot::prune(&self.dir, lsn);
        Ok((path, removed))
    }

    pub fn status(&self) -> PersistStatus {
        let wal = self.wal.read();
        PersistStatus {
            dir: self.dir.clone(),
            base_lsn: wal.base_lsn(),
            last_lsn: wal.last_lsn(),
            snapshot_lsn: self.snapshot_lsn.load(Ordering::Acquire),
            wal_records: wal.stats.appends.load(Ordering::Relaxed),
            wal_bytes: wal.stats.bytes.load(Ordering::Relaxed),
            wal_fsyncs: wal.stats.fsyncs.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            snapshot_loaded: self.snapshot_loaded.load(Ordering::Relaxed),
            replayed: self.replayed.load(Ordering::Relaxed),
            truncated_bytes: self.truncated_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_records_round_trip() {
        let records = vec![
            WalRecord::Sql("CREATE TABLE t (a INT)".into()),
            WalRecord::InsertRows {
                table: "t".into(),
                rows: vec![
                    Row::new(vec![Value::Int(1), Value::Float(0.1 + 0.2)]),
                    Row::new(vec![Value::Null, Value::str("x'y")]),
                ],
            },
            WalRecord::SeqOp {
                table: "s".into(),
                op: BatchOp::Update {
                    k: -3,
                    val: f64::MIN_POSITIVE,
                },
            },
            WalRecord::SeqOp {
                table: "s".into(),
                op: BatchOp::Insert { k: 7, val: -0.0 },
            },
            WalRecord::SeqOp {
                table: "s".into(),
                op: BatchOp::Delete { k: 1 },
            },
            WalRecord::Batch {
                table: "s".into(),
                ops: vec![
                    BatchOp::Update { k: 1, val: 2.5 },
                    BatchOp::Insert { k: 9, val: -1.0 },
                    BatchOp::Delete { k: 4 },
                ],
            },
            WalRecord::Refresh { table: "s".into() },
        ];
        // The on-disk record tags are part of the format: one per kind.
        let tags: Vec<u8> = records.iter().map(|r| r.encode()[0]).collect();
        assert_eq!(tags, [1, 2, 3, 4, 5, 6, 7]);
        for rec in records {
            let bytes = rec.encode();
            let back = WalRecord::decode(&bytes).unwrap();
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn wal_record_decode_never_panics_on_corruption() {
        let rec = WalRecord::Batch {
            table: "t".into(),
            ops: vec![BatchOp::Insert { k: 1, val: 1.0 }],
        };
        let bytes = rec.encode();
        // Every truncation must error, not panic.
        for cut in 0..bytes.len() {
            assert!(WalRecord::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Flipping the tag byte to garbage must error.
        let mut garbled = bytes.clone();
        garbled[0] = 0xEE;
        assert!(WalRecord::decode(&garbled).is_err());
        // Trailing junk must be rejected.
        let mut padded = bytes;
        padded.push(0);
        assert!(WalRecord::decode(&padded).is_err());
    }

    #[test]
    fn view_registry_blob_round_trips_bit_exact() {
        let mut parts = std::collections::BTreeMap::new();
        parts.insert(
            vec![Value::str("de"), Value::Int(7)],
            CompleteSequence::materialize(&[0.1, 0.2, 0.3], 2, 1).unwrap(),
        );
        let views: Vec<Arc<SequenceView>> = [
            SequenceView {
                name: "v_sum".into(),
                base_table: "s".into(),
                pos_column: "pos".into(),
                val_column: "val".into(),
                partition_columns: vec![],
                partition_types: vec![],
                func: AggFunc::Sum,
                window: WindowSpec::Sliding { l: 1, h: 1 },
                data: ViewData::Sum(
                    CompleteSequence::materialize(&[0.1, 0.2, 0.30000000000000004], 1, 1).unwrap(),
                ),
            },
            SequenceView {
                name: "v_cum".into(),
                base_table: "s".into(),
                pos_column: "pos".into(),
                val_column: "val".into(),
                partition_columns: vec![],
                partition_types: vec![],
                func: AggFunc::Sum,
                window: WindowSpec::Cumulative,
                data: ViewData::CumulativeSum(CumulativeSequence::materialize(&[0.1, 0.2, 0.3])),
            },
            SequenceView {
                name: "v_max".into(),
                base_table: "s".into(),
                pos_column: "pos".into(),
                val_column: "val".into(),
                partition_columns: vec![],
                partition_types: vec![],
                func: AggFunc::Max,
                window: WindowSpec::Sliding { l: 0, h: 2 },
                data: ViewData::MinMax(
                    CompleteMinMaxSequence::materialize(&[1.0, -2.0], 0, 2, true).unwrap(),
                ),
            },
            SequenceView {
                name: "v_part".into(),
                base_table: "p".into(),
                pos_column: "pos".into(),
                val_column: "val".into(),
                partition_columns: vec!["region".into(), "grp".into()],
                partition_types: vec![rfv_types::DataType::Str, rfv_types::DataType::Int],
                func: AggFunc::Sum,
                window: WindowSpec::Sliding { l: 2, h: 1 },
                data: ViewData::PartitionedSum(parts),
            },
        ]
        .into_iter()
        .map(Arc::new)
        .collect();
        let blob = encode_views(&views);
        let back = decode_views(&blob).unwrap();
        assert_eq!(back.len(), views.len());
        for (a, b) in views.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.partition_columns, b.partition_columns);
            assert_eq!(a.partition_types, b.partition_types);
            assert_eq!(a.window, b.window);
            match (&a.data, &b.data) {
                (ViewData::Sum(x), ViewData::Sum(y)) => {
                    let xv: Vec<u64> = x.entries().map(|(_, v)| v.to_bits()).collect();
                    let yv: Vec<u64> = y.entries().map(|(_, v)| v.to_bits()).collect();
                    assert_eq!(xv, yv, "float bits must survive the blob");
                }
                (ViewData::CumulativeSum(x), ViewData::CumulativeSum(y)) => {
                    assert_eq!(x, y)
                }
                (ViewData::MinMax(x), ViewData::MinMax(y)) => assert_eq!(x, y),
                (ViewData::PartitionedSum(x), ViewData::PartitionedSum(y)) => {
                    assert_eq!(x, y)
                }
                _ => panic!("view data class changed in round trip"),
            }
        }
        // Corrupt blobs error instead of panicking.
        for cut in 0..blob.len().min(64) {
            assert!(decode_views(&blob[..cut]).is_err(), "cut={cut}");
        }
    }
}
