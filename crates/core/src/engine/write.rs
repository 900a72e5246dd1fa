//! The write side: SQL DML, materialized-view creation, and the §2.3
//! sequence edits with their view maintenance.
//!
//! Every edit of a view-backed sequence table — a `sequence_*` op, a SQL
//! append, a bulk append, an explicit batch, WAL replay of any of them —
//! is a [`MaintBatch`] applied by [`Database::apply_edits`]; a single op
//! is a one-op batch. Entry points differ only in how the edit is counted
//! and which WAL record kind they log.

use std::collections::BTreeMap;
use std::sync::Arc;

use rfv_exec::sched;
use rfv_expr::AggFunc;
use rfv_obs::event;
use rfv_obs::Counter;
use rfv_plan::{Binder, LogicalPlan};
use rfv_sql as ast;
use rfv_storage::Table;
use rfv_types::{DataType, Result, RfvError, Row, Schema, Value};

use super::Database;
use crate::durability::WalRecord;
use crate::maintenance::{BatchOp, MaintBatch, MaintenanceStats};
use crate::sequence::{CompleteMinMaxSequence, CompleteSequence, CumulativeSequence, WindowSpec};
use crate::view::{SequenceView, ViewData};

/// The body of a simple (unpartitioned) sequence view over `raw`.
fn materialize_simple(func: AggFunc, window: WindowSpec, raw: &[f64]) -> Result<ViewData> {
    Ok(match (func, window) {
        (AggFunc::Sum, WindowSpec::Sliding { l, h }) => {
            ViewData::Sum(CompleteSequence::materialize(raw, l, h)?)
        }
        (AggFunc::Sum, WindowSpec::Cumulative) => {
            ViewData::CumulativeSum(CumulativeSequence::materialize(raw))
        }
        (AggFunc::Min | AggFunc::Max, WindowSpec::Sliding { l, h }) => ViewData::MinMax(
            CompleteMinMaxSequence::materialize(raw, l, h, func == AggFunc::Max)?,
        ),
        (func, window) => {
            return Err(RfvError::plan(format!(
                "materialized sequence views support SUM/MIN/MAX over \
                 sliding windows and cumulative SUM; got {func} over {window:?}"
            )))
        }
    })
}

/// A `(pos, val)` row of a `width`-column sequence table.
fn sequence_row(width: usize, pos_idx: usize, val_idx: usize, k: i64, val: f64) -> Row {
    let mut values = vec![Value::Null; width];
    values[pos_idx] = Value::Int(k);
    values[val_idx] = Value::Float(val);
    Row::new(values)
}

/// Apply one batch op to the base table under the caller's write lock.
/// The caller has validated positions, so shifts are the only extra
/// work — and this is the only place stored positions are shifted.
fn apply_base_op(guard: &mut Table, pos_idx: usize, val_idx: usize, op: BatchOp) -> Result<()> {
    let shift = |guard: &mut Table, from: i64, delta: i64| -> Result<()> {
        let mut to_shift: Vec<(usize, i64, Row)> = Vec::new();
        for (rid, r) in guard.scan() {
            if let Some(p) = r.get(pos_idx).as_int()?.filter(|p| *p >= from) {
                to_shift.push((rid, p, r.clone()));
            }
        }
        // Unique pos index: move the far end first.
        to_shift.sort_by_key(|(_, p, _)| if delta > 0 { -p } else { *p });
        for (rid, p, mut r) in to_shift {
            r.set(pos_idx, Value::Int(p + delta));
            guard.update(rid, r)?;
        }
        Ok(())
    };
    let rid_at = |guard: &Table, k: i64| -> Result<usize> {
        let rids = guard.index_lookup(pos_idx, &Value::Int(k))?;
        rids.first()
            .copied()
            .ok_or_else(|| RfvError::execution(format!("position {k} not found in sequence table")))
    };
    match op {
        BatchOp::Update { k, val } => {
            let rid = rid_at(guard, k)?;
            let mut new = guard
                .get(rid)
                .ok_or_else(|| RfvError::internal("index returned stale row id"))?
                .clone();
            new.set(val_idx, Value::Float(val));
            guard.update(rid, new)?;
        }
        BatchOp::Insert { k, val } => {
            let n = guard.stats().row_count as i64;
            if k != n + 1 {
                shift(guard, k, 1)?;
            }
            let row = sequence_row(guard.schema().len(), pos_idx, val_idx, k, val);
            guard.insert(row)?;
        }
        BatchOp::Delete { k } => {
            let rid = rid_at(guard, k)?;
            guard.delete(rid)?;
            shift(guard, k + 1, -1)?;
        }
    }
    Ok(())
}

impl Database {
    // -- SQL DML ---------------------------------------------------------------

    pub(super) fn insert(
        &self,
        table: &str,
        columns: &[String],
        values: &[Vec<ast::Expr>],
    ) -> Result<usize> {
        let t = self.catalog.table(table)?;
        let schema = t.read().schema().clone();
        let binder = Binder::new(&self.catalog);
        let empty = Schema::empty();
        let column_indexes: Vec<usize> = if columns.is_empty() {
            (0..schema.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| schema.index_of(None, c))
                .collect::<Result<_>>()?
        };
        // Evaluate every tuple before touching the table: a multi-row
        // INSERT lands all-or-nothing.
        let mut rows: Vec<Row> = Vec::with_capacity(values.len());
        for tuple in values {
            if tuple.len() != column_indexes.len() {
                return Err(RfvError::schema(format!(
                    "INSERT expects {} values, got {}",
                    column_indexes.len(),
                    tuple.len()
                )));
            }
            let mut row_values = vec![Value::Null; schema.len()];
            for (expr, &idx) in tuple.iter().zip(&column_indexes) {
                let bound = binder.bind_scalar(expr, &empty)?;
                row_values[idx] = bound.eval(&Row::empty())?;
            }
            rows.push(Row::new(row_values));
        }
        self.insert_rows(table, rows)
    }

    /// Apply pre-evaluated rows to `table` (the post-expression half of
    /// INSERT, and the WAL replay entry point — the log stores evaluated
    /// rows, so replay is exact and never re-evaluates).
    pub(super) fn insert_rows(&self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let persist = self.persistence();
        let _commit = persist.as_ref().map(|p| p.commit_lock());
        let logged = persist.as_ref().map(|_| WalRecord::InsertRows {
            table: table.to_string(),
            rows: rows.clone(),
        });
        let t = self.catalog.table(table)?;
        let dependents = self.registry.views_for(table);
        let inserted = rows.len();
        match dependents.iter().find(|v| !v.is_partitioned()) {
            None => {
                // One write lock for the whole statement, not one per row.
                t.write().insert_many(rows)?;
                // §6 partitioned reporting functions: positions are local
                // to partitions, so any insert is accepted and the views
                // are rematerialized — once per statement.
                self.refresh_partitioned_views(table, &dependents)?;
            }
            Some(view) => {
                // Base of materialized sequence views: only appends at the
                // successive tail positions n+1, n+2, … can be maintained
                // through plain INSERT.
                let schema = t.read().schema().clone();
                let pos_idx = schema.index_of(None, &view.pos_column)?;
                let val_idx = schema.index_of(None, &view.val_column)?;
                let n = view.n();
                let mut batch = MaintBatch::new();
                for (j, row) in rows.iter().enumerate() {
                    let pos = row.get(pos_idx).as_int()?.ok_or_else(|| {
                        RfvError::execution("NULL position inserted into sequence table")
                    })?;
                    let expected = n + 1 + j as i64;
                    if pos != expected {
                        return Err(RfvError::execution(format!(
                            "table `{table}` backs materialized sequence views; plain \
                             INSERT must append position {expected} (got {pos}) — use \
                             Database::sequence_insert for mid-sequence inserts",
                        )));
                    }
                    let val = row.get(val_idx).as_f64()?.ok_or_else(|| {
                        RfvError::execution("NULL value inserted into sequence table")
                    })?;
                    batch.push(BatchOp::Insert { k: pos, val });
                }
                let single = (inserted == 1).then_some(&self.counters.maint_insert);
                self.apply_edits(table, &batch, Some(rows), single)?;
            }
        }
        if let (Some(p), Some(rec)) = (&persist, logged) {
            self.wal_log(p, rec)?;
        }
        Ok(inserted)
    }

    /// `UPDATE table SET … [WHERE …]`. Returns the number of updated rows.
    pub fn update(
        &self,
        table: &str,
        assignments: &[(String, ast::Expr)],
        selection: Option<&ast::Expr>,
    ) -> Result<usize> {
        self.modify_rows(table, Some(assignments), selection)
    }

    /// `DELETE FROM table [WHERE …]`. Returns the number of deleted rows.
    pub fn delete(&self, table: &str, selection: Option<&ast::Expr>) -> Result<usize> {
        self.modify_rows(table, None, selection)
    }

    /// The shared body of UPDATE (`Some(assignments)`) and DELETE
    /// (`None`): apply the change to every row matching `selection`
    /// under one write lock, rematerialize partitioned views, and log
    /// the statement text (assignments re-evaluate per row on replay,
    /// deterministically — parsed expressions round-trip exactly).
    fn modify_rows(
        &self,
        table: &str,
        assignments: Option<&[(String, ast::Expr)]>,
        selection: Option<&ast::Expr>,
    ) -> Result<usize> {
        let apply = || {
            // Simple sequence views need the §2.3 positional rules (SQL
            // row-level DML can't express them); partitioned views can
            // be rematerialized afterwards.
            let partitioned = self.registry.views_for(table);
            if partitioned.iter().any(|v| !v.is_partitioned()) {
                return Err(RfvError::execution(format!(
                    "table `{table}` backs simple materialized sequence views; use \
                     Database::sequence_update / sequence_delete so the §2.3 \
                     incremental rules can be applied"
                )));
            }
            let t = self.catalog.table(table)?;
            let binder = Binder::new(&self.catalog);
            let schema = t.read().schema().as_ref().clone();
            let bound_assignments: Option<Vec<(usize, rfv_expr::Expr)>> = assignments
                .map(|a| {
                    a.iter()
                        .map(|(col, e)| {
                            Ok((schema.index_of(None, col)?, binder.bind_scalar(e, &schema)?))
                        })
                        .collect::<Result<_>>()
                })
                .transpose()?;
            let predicate = selection
                .map(|e| binder.bind_scalar(e, &schema))
                .transpose()?;
            let mut guard = t.write();
            let mut targets: Vec<(usize, Row)> = Vec::new();
            for (rid, row) in guard.scan() {
                let keep = match &predicate {
                    None => true,
                    Some(p) => p.eval(row)?.as_bool()? == Some(true),
                };
                if keep {
                    targets.push((rid, row.clone()));
                }
            }
            for (rid, row) in &targets {
                match &bound_assignments {
                    Some(bound) => {
                        let mut new_row = row.clone();
                        for (idx, expr) in bound {
                            new_row.set(*idx, expr.eval(row)?);
                        }
                        guard.update(*rid, new_row)?;
                    }
                    None => {
                        guard.delete(*rid)?;
                    }
                }
            }
            drop(guard);
            self.refresh_partitioned_views(table, &partitioned)?;
            Ok(targets.len())
        };
        self.logged(apply, || {
            let (table, selection) = (table.to_string(), selection.cloned());
            let stmt = match assignments {
                Some(a) => ast::Statement::Update {
                    table,
                    assignments: a.to_vec(),
                    selection,
                },
                None => ast::Statement::Delete { table, selection },
            };
            WalRecord::Sql(stmt.to_string())
        })
    }

    // -- materialized views ---------------------------------------------------

    /// Recognize `SELECT pos, agg(val) OVER (ORDER BY pos ROWS …) FROM base`
    /// and register a sequence view; any other query is materialized as a
    /// plain snapshot table (documented fallback).
    pub(super) fn create_materialized_view(&self, name: &str, query: &ast::Query) -> Result<()> {
        let window_mode = self.config.read().window_mode;
        let binder = Binder::new(&self.catalog).with_window_mode(window_mode);
        let logical = binder.bind_query(query)?;
        let Some(spec) = recognize_sequence_view(&logical) else {
            // Fallback: CTAS-style snapshot.
            self.counters.view_snapshot_fallback.incr();
            let entry = self.plan_query(query)?;
            let rows = entry.physical.execute()?;
            let fields = entry
                .logical
                .schema()
                .fields()
                .iter()
                .map(|f| {
                    let mut f = f.clone();
                    f.qualifier = None;
                    f
                })
                .collect();
            let t = self.catalog.create_table(name, Schema::new(fields))?;
            let mut guard = t.write();
            for r in rows {
                guard.insert(r)?;
            }
            return Ok(());
        };
        let (partition_columns, partition_types): (Vec<String>, Vec<DataType>) =
            spec.partition.into_iter().unzip();
        let data = self.materialize_view(
            &spec.base_table,
            &partition_columns,
            (&spec.pos_column, &spec.val_column),
            spec.func,
            spec.window,
        )?;
        self.registry.register(
            &self.catalog,
            SequenceView {
                name: name.to_string(),
                base_table: spec.base_table,
                pos_column: spec.pos_column,
                val_column: spec.val_column,
                partition_columns,
                partition_types,
                func: spec.func,
                window: spec.window,
                data,
            },
        )?;
        self.counters.view_created.incr();
        Ok(())
    }

    /// Read a sequence table into raw value vectors, one per
    /// partition-key tuple in key order — a simple sequence is the single
    /// partition with the empty key (§6). Every partition must hold dense
    /// positions `1..=n_p` with non-null values.
    fn read_sequences(
        &self,
        table: &str,
        part_columns: &[String],
        pos_column: &str,
        val_column: &str,
    ) -> Result<BTreeMap<Vec<Value>, Vec<f64>>> {
        let what = |part: &[Value]| match part {
            [] => format!("`{table}`"),
            _ => format!("partition {part:?} of `{table}`"),
        };
        let t = self.catalog.table(table)?;
        let guard = t.read();
        let part_idxs: Vec<usize> = part_columns
            .iter()
            .map(|c| guard.schema().index_of(None, c))
            .collect::<Result<_>>()?;
        let pos_idx = guard.schema().index_of(None, pos_column)?;
        let val_idx = guard.schema().index_of(None, val_column)?;
        let mut grouped: BTreeMap<Vec<Value>, Vec<(i64, f64)>> = BTreeMap::new();
        for (_, r) in guard.scan() {
            let part: Vec<Value> = part_idxs.iter().map(|&i| r.get(i).clone()).collect();
            if part.iter().any(Value::is_null) {
                return Err(RfvError::derivation(format!(
                    "NULL partition key in `{table}`"
                )));
            }
            let pos = r
                .get(pos_idx)
                .as_int()?
                .ok_or_else(|| RfvError::derivation(format!("NULL position in `{table}`")))?;
            let val = r.get(val_idx).as_f64()?.ok_or_else(|| {
                RfvError::derivation(format!(
                    "NULL value at position {pos} of {}: sequence views \
                     require a dense non-null value column",
                    what(&part)
                ))
            })?;
            grouped.entry(part).or_default().push((pos, val));
        }
        grouped
            .into_iter()
            .map(|(key, mut rows)| {
                rows.sort_by_key(|(p, _)| *p);
                for (i, (p, _)) in rows.iter().enumerate() {
                    if *p != i as i64 + 1 {
                        return Err(RfvError::derivation(format!(
                            "{} must have dense positions 1..=n (found {p} at rank {})",
                            what(&key),
                            i + 1
                        )));
                    }
                }
                let raw = rows.into_iter().map(|(_, v)| v).collect();
                Ok((key, raw))
            })
            .collect()
    }

    /// The raw values of a simple (unpartitioned) sequence table.
    fn read_sequence_table(
        &self,
        table: &str,
        pos_column: &str,
        val_column: &str,
    ) -> Result<Vec<f64>> {
        let mut all = self.read_sequences(table, &[], pos_column, val_column)?;
        Ok(all.remove([].as_slice()).unwrap_or_default())
    }

    /// A view's body from the current contents of its base table: the
    /// single sequence of an unpartitioned view, or one complete sequence
    /// per partition-key tuple (§6).
    fn materialize_view(
        &self,
        table: &str,
        part_columns: &[String],
        (pos_column, val_column): (&str, &str),
        func: AggFunc,
        window: WindowSpec,
    ) -> Result<ViewData> {
        if part_columns.is_empty() {
            let raw = self.read_sequence_table(table, pos_column, val_column)?;
            return materialize_simple(func, window, &raw);
        }
        let (WindowSpec::Sliding { l, h }, AggFunc::Sum) = (window, func) else {
            return Err(RfvError::plan(
                "partitioned sequence views currently support SUM over \
                 sliding windows",
            ));
        };
        let mut parts = BTreeMap::new();
        for (key, raw) in self.read_sequences(table, part_columns, pos_column, val_column)? {
            parts.insert(key, CompleteSequence::materialize(&raw, l, h)?);
        }
        Ok(ViewData::PartitionedSum(parts))
    }

    // -- sequence edits (§2.3) --------------------------------------------------

    /// Update the raw value at position `pos` of sequence table `table`,
    /// incrementally maintaining all dependent views.
    pub fn sequence_update(&self, table: &str, pos: i64, val: f64) -> Result<()> {
        self.sequence_edit(table, BatchOp::Update { k: pos, val })
    }

    /// Insert a raw value *at* position `pos` (shifting later positions),
    /// incrementally maintaining all dependent views.
    pub fn sequence_insert(&self, table: &str, pos: i64, val: f64) -> Result<()> {
        self.sequence_edit(table, BatchOp::Insert { k: pos, val })
    }

    /// Delete the raw value at position `pos` (shifting later positions),
    /// incrementally maintaining all dependent views.
    pub fn sequence_delete(&self, table: &str, pos: i64) -> Result<()> {
        self.sequence_edit(table, BatchOp::Delete { k: pos })
    }

    /// One §2.3 edit: a one-op batch, counted per kind and logged as its
    /// own typed WAL record (also the replay entry point of that record).
    pub(super) fn sequence_edit(&self, table: &str, op: BatchOp) -> Result<()> {
        let counter = match op {
            BatchOp::Update { .. } => &self.counters.maint_update,
            BatchOp::Insert { .. } => &self.counters.maint_insert,
            BatchOp::Delete { .. } => &self.counters.maint_delete,
        };
        let batch: MaintBatch = [op].into_iter().collect();
        self.logged(
            || self.apply_edits(table, &batch, None, Some(counter)),
            || WalRecord::SeqOp {
                table: table.to_string(),
                op,
            },
        )
        .map(drop)
    }

    /// Append `vals` at the tail positions `n+1 ..= n+m` of sequence table
    /// `table` in one batch: one table write-lock, one storage insert call,
    /// and one coalesced maintenance pass per dependent view — the bulk-load
    /// fast path. Returns the aggregated per-batch [`MaintenanceStats`].
    pub fn sequence_append_bulk(&self, table: &str, vals: &[f64]) -> Result<MaintenanceStats> {
        let n = self.catalog.table(table)?.read().stats().row_count as i64;
        let batch: MaintBatch = (n + 1..)
            .zip(vals)
            .map(|(k, &val)| BatchOp::Insert { k, val })
            .collect();
        self.apply_batch(table, &batch)
    }

    /// Apply a coalesced batch of sequence edits to `table` and maintain
    /// all dependent views **once per affected window region** instead of
    /// once per row (§2.3, batched).
    ///
    /// The base table is mutated under a single write lock, with a
    /// no-shift fast path when the batch is a pure tail append. View
    /// maintenance reads the pre-image raw sequence once, then computes
    /// each view's new body in parallel (one worker per view, mirroring
    /// the window operator's partition parallelism). Batches whose ops
    /// interleave mid-sequence inserts/deletes with other edits fall back
    /// to per-op §2.3 rules — still under one lock round-trip, but with
    /// `maintenance.batch_fallback` incremented so the regression is
    /// observable.
    pub fn apply_batch(&self, table: &str, batch: &MaintBatch) -> Result<MaintenanceStats> {
        if batch.is_empty() {
            return Ok(MaintenanceStats::default());
        }
        self.logged(
            || self.apply_edits(table, batch, None, None),
            || WalRecord::Batch {
                table: table.to_string(),
                ops: batch.ops().to_vec(),
            },
        )
    }

    /// The single write path of a sequence table: pre-image read → base
    /// mutation under one write lock → one maintenance pass per view.
    /// The caller holds the commit lock and logs its own record kind.
    /// `rows` are the full rows of a SQL append (they may carry more
    /// columns than `(pos, val)`); `single` is the per-kind counter of a
    /// one-op entry point.
    fn apply_edits(
        &self,
        table: &str,
        batch: &MaintBatch,
        rows: Option<Vec<Row>>,
        single: Option<&Counter>,
    ) -> Result<MaintenanceStats> {
        let t = self.catalog.table(table)?;
        let views = self.registry.views_for(table);
        // The (pos, val) columns come from the first dependent view
        // (defaulting to columns 0/1 of a view-less sequence table).
        let (pos_idx, val_idx) = {
            let guard = t.read();
            match views.first() {
                Some(v) => (
                    guard.schema().index_of(None, &v.pos_column)?,
                    guard.schema().index_of(None, &v.val_column)?,
                ),
                None if guard.schema().len() < 2 => {
                    return Err(RfvError::schema(format!(
                        "`{table}` is not a (pos, val) sequence table"
                    )))
                }
                None => (0, 1),
            }
        };
        // Pre-image raw sequence, read before any base mutation: the §2.3
        // rules run against it. A base table that is not a dense non-null
        // sequence is rejected here, before anything changed.
        let raw_before = match views.iter().find(|v| !v.is_partitioned()) {
            Some(v) => self.read_sequence_table(table, &v.pos_column, &v.val_column)?,
            None => Vec::new(),
        };
        // `Some(values)` when the batch is a pure tail append.
        let appended;
        {
            let mut guard = t.write();
            let n = guard.stats().row_count as i64;
            batch.validate(n)?;
            appended = batch.append_run(n);
            match (rows, &appended) {
                (Some(_), None) => {
                    return Err(RfvError::execution(format!(
                        "`{table}` changed under a plain INSERT: its rows no \
                         longer extend the tail"
                    )))
                }
                (Some(rows), Some(_)) => {
                    guard.insert_many(rows)?;
                }
                // Tail appends never shift stored positions: build the rows
                // and land them in one storage call.
                (None, Some(vals)) => {
                    let width = guard.schema().len();
                    let rows = (n + 1..)
                        .zip(vals)
                        .map(|(k, &val)| sequence_row(width, pos_idx, val_idx, k, val))
                        .collect();
                    guard.insert_many(rows)?;
                }
                (None, None) => {
                    for op in batch.ops() {
                        apply_base_op(&mut guard, pos_idx, val_idx, *op)?;
                    }
                }
            }
        }
        let rec = event::recorder();
        let start = rec.is_enabled().then(event::now_ns);
        let result = self.maintain_views_batch(table, batch, &views, raw_before, appended, single);
        if let Some(start) = start {
            let detail = format!("{table}: {} ops", batch.len());
            rec.complete_since("maintenance.batch", "maintenance", start, Some(detail));
        }
        result
    }

    /// Bring every view over `table` up to date with `batch`, given the
    /// pre-image `raw_before` and the `appended` values of a pure tail
    /// append: partitioned views are rematerialized
    /// **once** for the whole batch, and each simple view's new body is
    /// computed on its own worker thread before the registry is refreshed
    /// sequentially (the registry holds the views write lock during
    /// refresh).
    ///
    /// Counting follows the entry point: with `single` (a one-op call)
    /// only that per-kind counter moves, and only when the table has
    /// views; otherwise the call is one `maintenance.batch`.
    fn maintain_views_batch(
        &self,
        table: &str,
        batch: &MaintBatch,
        views: &[Arc<SequenceView>],
        raw_before: Vec<f64>,
        appended: Option<Vec<f64>>,
        single: Option<&Counter>,
    ) -> Result<MaintenanceStats> {
        let c = &self.counters;
        let n_before = raw_before.len() as i64;
        match single {
            Some(_) if views.is_empty() => {}
            Some(counter) => counter.incr(),
            None => {
                c.maint_batch.incr();
                c.maint_batch_rows.add(batch.len() as u64);
                if !batch.coalesces(n_before) {
                    c.maint_batch_fallback.incr();
                }
            }
        }
        self.refresh_partitioned_views(table, views)?;
        let simple: Vec<&Arc<SequenceView>> =
            views.iter().filter(|v| !v.is_partitioned()).collect();
        if simple.is_empty() {
            return Ok(MaintenanceStats::default());
        }
        // Post-image raw data, needed only by views that rematerialize:
        // MIN/MAX always (§2.3 footnote), cumulative SUM outside the
        // append fast path.
        let needs_after = simple.iter().any(|v| match &v.data {
            ViewData::MinMax(_) => true,
            ViewData::CumulativeSum(_) => appended.is_none(),
            _ => false,
        });
        let raw_after: Vec<f64> = if needs_after {
            let v = simple[0];
            self.read_sequence_table(table, &v.pos_column, &v.val_column)?
        } else {
            Vec::new()
        };
        let rematerialized = MaintenanceStats {
            recomputed: raw_after.len(),
            shifted: 0,
            coalesced: 0,
        };

        // Each simple view's new body is an independent unit of work: past
        // the scheduler's shared cost gate they run on the worker pool
        // (panic-safe join, steal balancing), below it inline — a pool
        // round-trip costs more than maintaining a small sequence. The
        // registry is refreshed serially afterwards, in declaration order.
        let jobs: Vec<_> = simple
            .iter()
            .map(|v| (v.name.clone(), v.func, v.window, v.data.clone()))
            .collect();
        let pooled = sched::should_parallelize(raw_before.len() + batch.len(), jobs.len());
        let batch = batch.clone();
        let work = move |_, (name, func, window, data)| {
            let (data, stats) = match (data, &appended) {
                (ViewData::Sum(mut seq), _) => {
                    let mut raw = raw_before.clone();
                    let stats = batch.apply(&mut seq, &mut raw)?;
                    (ViewData::Sum(seq), stats)
                }
                (ViewData::CumulativeSum(mut c), Some(vals)) => {
                    c.append_bulk(vals);
                    let stats = MaintenanceStats {
                        recomputed: vals.len(),
                        shifted: 0,
                        coalesced: vals.len().saturating_sub(1),
                    };
                    (ViewData::CumulativeSum(c), stats)
                }
                // Rematerialized from the post-image, once per batch.
                _ => (
                    materialize_simple(func, window, &raw_after)?,
                    rematerialized,
                ),
            };
            Ok((name, data, stats))
        };
        let results = if pooled {
            sched::run_ordered(jobs, work)?
        } else {
            let inline = jobs.into_iter().enumerate().map(|(i, job)| work(i, job));
            inline.collect::<Result<Vec<_>>>()?
        };

        let mut total = MaintenanceStats::default();
        for (name, data, stats) in results {
            self.registry.refresh(&self.catalog, &name, data)?;
            total.merge(stats);
        }
        if single.is_none() {
            c.maint_batch_recomputed.add(total.recomputed as u64);
            c.maint_batch_shifted.add(total.shifted as u64);
            c.maint_batch_coalesced.add(total.coalesced as u64);
        }
        Ok(total)
    }

    /// Rematerialize **all** views over `table` from its current contents —
    /// the full-recomputation path the paper contrasts the §2.3 incremental
    /// rules against. Useful after bulk loads performed directly through
    /// the catalog.
    pub fn refresh_views(&self, table: &str) -> Result<()> {
        let apply = || {
            self.counters.maint_refresh.incr();
            self.rematerialize(table, self.registry.views_for(table).iter())
        };
        self.logged(apply, || WalRecord::Refresh {
            table: table.to_string(),
        })
    }

    /// Rematerialize `views` (all over `table`) from the current base
    /// state.
    fn rematerialize<'a>(
        &self,
        table: &str,
        views: impl Iterator<Item = &'a Arc<SequenceView>>,
    ) -> Result<()> {
        for view in views {
            let data = self.materialize_view(
                table,
                &view.partition_columns,
                (&view.pos_column, &view.val_column),
                view.func,
                view.window,
            )?;
            self.registry.refresh(&self.catalog, &view.name, data)?;
        }
        Ok(())
    }

    /// Rematerialize the §6 partitioned views among `views`: their
    /// positions are partition-local, so the simple-sequence §2.3 rules
    /// don't apply.
    fn refresh_partitioned_views(&self, table: &str, views: &[Arc<SequenceView>]) -> Result<()> {
        self.rematerialize(table, views.iter().filter(|v| v.is_partitioned()))
    }
}

/// What `recognize_sequence_view` extracts from a bound view definition.
struct SequenceViewSpec {
    base_table: String,
    pos_column: String,
    val_column: String,
    /// `(column name, type)` of each §6 partitioning column, in order.
    partition: Vec<(String, DataType)>,
    func: AggFunc,
    window: WindowSpec,
}

/// Match `Project([…, pos, w], Window(Scan(base)))` with a single window
/// expression ordered ascending by `pos`, with either no partitioning
/// (projection `[pos, w]`) or one plain partition column (projection
/// `[part, pos, w]`).
fn recognize_sequence_view(plan: &LogicalPlan) -> Option<SequenceViewSpec> {
    let LogicalPlan::Project { input, exprs, .. } = plan else {
        return None;
    };
    let LogicalPlan::Window {
        input: win_input,
        partition_by,
        order_by,
        window_exprs,
        ..
    } = input.as_ref()
    else {
        return None;
    };
    let LogicalPlan::Scan { table, schema } = win_input.as_ref() else {
        return None;
    };
    if window_exprs.len() != 1 {
        return None;
    }
    let [rfv_exec::SortKey {
        expr: rfv_expr::Expr::Column(pos_idx),
        desc: false,
    }] = order_by.as_slice()
    else {
        return None;
    };
    let spec = &window_exprs[0];
    let rfv_exec::WindowFuncKind::Agg(func) = spec.func else {
        return None;
    };
    let Some(rfv_expr::Expr::Column(val_idx)) = &spec.arg else {
        return None;
    };
    let base_len = schema.len();
    // Partition columns must all be plain column references…
    let mut part_idxs: Vec<usize> = Vec::new();
    for p in partition_by {
        let rfv_expr::Expr::Column(i) = p else {
            return None;
        };
        part_idxs.push(*i);
    }
    // …and the projection must be exactly [p_1 … p_m, pos, window-column].
    if exprs.len() != part_idxs.len() + 2 {
        return None;
    }
    for (e, want) in exprs
        .iter()
        .zip(part_idxs.iter().copied().chain([*pos_idx, base_len]))
    {
        let rfv_expr::Expr::Column(i) = e else {
            return None;
        };
        if *i != want {
            return None;
        }
    }
    let partition: Vec<(String, DataType)> = part_idxs
        .iter()
        .map(|&i| {
            let f = schema.field(i);
            (f.name.clone(), f.data_type)
        })
        .collect();
    let window = match (spec.frame.start(), spec.frame.end()) {
        (rfv_exec::FrameBound::UnboundedPreceding, rfv_exec::FrameBound::Offset(0)) => {
            WindowSpec::Cumulative
        }
        (rfv_exec::FrameBound::Offset(s), rfv_exec::FrameBound::Offset(e)) if s <= 0 && e >= 0 => {
            WindowSpec::Sliding { l: -s, h: e }
        }
        _ => return None,
    };
    Some(SequenceViewSpec {
        base_table: table.clone(),
        pos_column: schema.field(*pos_idx).name.clone(),
        val_column: schema.field(*val_idx).name.clone(),
        partition,
        func,
        window,
    })
}
