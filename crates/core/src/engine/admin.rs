//! Administration: durability (WAL append, replay, snapshots), the
//! flight recorder, statistics accessors, the thread count, and the
//! resource-governance setters.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rfv_obs::event;
use rfv_obs::{Collector, RecorderStats};
use rfv_sql::parse_statement;
use rfv_storage::snapshot::TableImage;
use rfv_types::{Result, RfvError};

use super::Database;
use crate::durability::{self, PersistStatus, Persistence, WalRecord};
use crate::maintenance::MaintBatch;
use crate::stats::StatementStat;
use crate::view::SequenceView;

impl Database {
    /// The attached durability handle, if any.
    pub(super) fn persistence(&self) -> Option<Arc<Persistence>> {
        self.persist.get().cloned()
    }

    /// Append one logical WAL record.
    pub(super) fn wal_log(&self, persist: &Persistence, rec: WalRecord) -> Result<()> {
        let (_, bytes) = persist.log(&rec)?;
        self.counters.wal_append.incr();
        self.counters.wal_bytes.add(bytes);
        Ok(())
    }

    /// Run one logged mutation: `apply` under the commit lock, then
    /// append `record()` — apply → log, so the WAL replays in apply
    /// order and a failed mutation logs nothing. In-memory engines skip
    /// the lock and never build the record.
    pub(super) fn logged<T>(
        &self,
        apply: impl FnOnce() -> Result<T>,
        record: impl FnOnce() -> WalRecord,
    ) -> Result<T> {
        let persist = self.persistence();
        let _commit = persist.as_ref().map(|p| p.commit_lock());
        let out = apply()?;
        if let Some(p) = &persist {
            self.wal_log(p, record())?;
        }
        Ok(out)
    }

    /// Redo one WAL record through the live engine code paths (recovery
    /// replay — `persist` is not yet attached, so nothing is re-logged).
    pub(super) fn apply_wal_record(&self, rec: &WalRecord) -> Result<()> {
        match rec {
            WalRecord::Sql(text) => {
                let stmt = parse_statement(text)?;
                self.execute_statement(&stmt, &Collector::disabled())
                    .map(|_| ())
            }
            WalRecord::InsertRows { table, rows } => {
                self.insert_rows(table, rows.clone()).map(|_| ())
            }
            WalRecord::SeqOp { table, op } => self.sequence_edit(table, *op),
            WalRecord::Batch { table, ops } => {
                let batch: MaintBatch = ops.iter().copied().collect();
                self.apply_batch(table, &batch).map(|_| ())
            }
            WalRecord::Refresh { table } => self.refresh_views(table),
        }
    }

    /// Where this engine persists, if durable.
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.persistence().map(|p| p.dir().to_path_buf())
    }

    /// Durability status (`None` for in-memory engines). Also queryable
    /// as the `rfv_stat_wal` system table.
    pub fn persist_status(&self) -> Option<PersistStatus> {
        self.persistence().map(|p| p.status())
    }

    /// Write a point-in-time snapshot covering everything logged so far.
    /// DML is frozen for the duration (the snapshot holds the commit
    /// lock). Errors if the engine is not durable.
    pub fn persist_snapshot(&self) -> Result<PathBuf> {
        self.snapshot_with("snapshot.written", Persistence::write_snapshot)
    }

    /// Snapshot, rotate the WAL behind it, and prune older snapshots.
    /// Returns the new snapshot path and how many old snapshot files
    /// were removed.
    pub fn persist_compact(&self) -> Result<(PathBuf, u64)> {
        self.snapshot_with("snapshot.compact", Persistence::compact)
    }

    /// Image the database under the commit lock and hand it to `write`.
    fn snapshot_with<T>(
        &self,
        instant: &'static str,
        write: impl FnOnce(&Persistence, &[TableImage], &[u8]) -> Result<T>,
    ) -> Result<T> {
        let p = self.persistence().ok_or_else(|| {
            RfvError::execution("engine is not durable — set RFV_DATA_DIR or use Database::open")
        })?;
        let _commit = p.commit_lock();
        let (images, extension) = self.snapshot_images()?;
        let out = write(&p, &images, &extension)?;
        self.metrics.counter("snapshot.written").incr();
        event::recorder().instant(instant, "recovery", None);
        Ok(out)
    }

    /// Image every real catalog table (mirrors included) plus the view
    /// registry. Caller holds the commit lock, so the set is a
    /// consistent cut.
    fn snapshot_images(&self) -> Result<(Vec<TableImage>, Vec<u8>)> {
        let mut images = Vec::new();
        for name in self.catalog.table_names() {
            let t = self.catalog.table(&name)?;
            let guard = t.read();
            images.push(TableImage::of(&guard));
        }
        let views: Vec<Arc<SequenceView>> = self
            .registry
            .names()
            .iter()
            .filter_map(|n| self.registry.get(n))
            .collect();
        Ok((images, durability::encode_views(&views)))
    }

    /// Turn the process-wide flight recorder on or off (the buffer is
    /// kept on `off`, so a dump after stopping still works).
    pub fn set_recording(&self, on: bool) {
        event::recorder().set_enabled(on);
    }

    /// Whether the flight recorder is currently recording.
    pub fn recording(&self) -> bool {
        event::recorder().is_enabled()
    }

    /// Flight-recorder state: enabled flag, ring capacity, events
    /// accepted, events dropped under contention.
    pub fn recorder_stats(&self) -> RecorderStats {
        event::recorder().stats()
    }

    /// Drop all buffered flight-recorder events.
    pub fn clear_recording(&self) {
        event::recorder().clear();
    }

    /// The buffered flight-recorder events as a Chrome Trace Event JSON
    /// document (open in Perfetto or `chrome://tracing`).
    pub fn trace_json(&self) -> String {
        event::recorder().chrome_trace().to_string()
    }

    /// Write [`trace_json`](Self::trace_json) to `path`.
    pub fn export_trace(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.trace_json()).map_err(|e| {
            RfvError::execution(format!("cannot write trace to {}: {e}", path.display()))
        })
    }

    /// Where `RFV_TRACE_FILE` asked the trace to be dumped on exit
    /// (`None` when the variable is unset).
    pub fn trace_file(&self) -> Option<&Path> {
        self.trace_file.as_deref()
    }

    /// Names of this engine's virtual system tables (`rfv_stat_*`),
    /// queryable with ordinary SQL.
    pub fn system_table_names(&self) -> Vec<String> {
        self.systabs.iter().map(|p| p.name().to_string()).collect()
    }

    /// Snapshot of the always-on per-statement statistics, sorted by
    /// normalized query text (also queryable as `rfv_stat_statements`).
    pub fn statement_stats(&self) -> Vec<StatementStat> {
        self.stmt_stats.snapshot()
    }

    /// Drop all per-statement statistics entries.
    pub fn reset_statement_stats(&self) {
        self.stmt_stats.reset();
    }

    /// Cap morsel splits at `n` threads (`0` resets to the `RFV_THREADS`
    /// env var / hardware default). The setting is process-wide, so this
    /// affects every engine in the process; results are byte-identical at
    /// any setting — only speed changes.
    pub fn set_threads(&self, n: usize) {
        rfv_exec::sched::set_threads(n);
    }

    /// The thread budget parallel operators currently plan for.
    pub fn threads(&self) -> usize {
        rfv_exec::sched::effective_threads()
    }

    /// Cooperatively cancel every in-flight statement: each aborts at
    /// its next operator checkpoint with [`RfvError::Cancelled`], leaving
    /// tables, views, and caches exactly as they were. Returns how many
    /// running statements were signalled. Safe from any thread.
    pub fn cancel(&self) -> usize {
        self.governor.cancel_all()
    }

    /// Per-statement wall-clock deadline for subsequently submitted
    /// statements (`None` disables). A running statement that crosses the
    /// deadline aborts at its next checkpoint with [`RfvError::Timeout`].
    /// The initial value comes from `RFV_STATEMENT_TIMEOUT_MS`.
    pub fn set_statement_timeout(&self, timeout: Option<Duration>) {
        self.governor.set_timeout(timeout);
    }

    /// Per-statement budget for materialized intermediate bytes (`None`
    /// or `Some(0)` disables); exceeding it aborts the statement with
    /// [`RfvError::ResourceExhausted`]. Initial value: `RFV_MEM_BUDGET`.
    pub fn set_mem_budget(&self, bytes: Option<u64>) {
        self.governor.set_mem_budget(bytes);
    }

    /// Cap on concurrently executing statements (`0` = unlimited); a
    /// statement that cannot be admitted within a bounded wait fails with
    /// [`RfvError::Overloaded`]. Initial value: `RFV_MAX_CONCURRENT_QUERIES`.
    pub fn set_max_concurrent(&self, n: usize) {
        self.governor.set_max_concurrent(n);
    }

    /// Make subsequently minted statement tokens consume the
    /// process-global interrupt flag (the shell's SIGINT handler raises
    /// it), so Ctrl-C cancels the running query. Default off — library
    /// embedders rarely want a process-global side channel.
    pub fn set_interrupt_handling(&self, on: bool) {
        self.governor.set_interrupt(on);
    }

    /// Statements currently between admission and completion.
    pub fn running_statements(&self) -> usize {
        self.governor.running()
    }
}
