//! The write side: SQL DML, materialized-view creation, and the §2.3
//! sequence edits with their view maintenance.
//!
//! Every edit of a view-backed sequence table — a `sequence_*` op, a SQL
//! append, a bulk append, an explicit batch, WAL replay of any of them —
//! is a [`MaintBatch`] applied by [`Database::apply_edits`]; a single op
//! is a one-op batch. Entry points differ only in how the edit is counted
//! and which WAL record kind they log. A write costs what it touches: the
//! base rows of the edit, the raw neighbourhood the §2.3 rules read, and
//! the view positions and mirror rows they change.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use rfv_expr::AggFunc;
use rfv_obs::event;
use rfv_obs::Counter;
use rfv_plan::{Binder, LogicalPlan};
use rfv_sql as ast;
use rfv_storage::Table;
use rfv_types::{DataType, Result, RfvError, Row, Schema, Value};

use super::Database;
use crate::durability::WalRecord;
use crate::maintenance::{self, BatchOp, MaintBatch, MaintenanceStats, RawWindow};
use crate::sequence::{
    check_extent, CompleteMinMaxSequence, CompleteSequence, CumulativeSequence, WindowSpec,
};
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

/// A `(pos, val)` row of sequence table `table`, NULL in any other column.
fn sequence_row(table: &Table, pos_idx: usize, val_idx: usize, k: i64, val: f64) -> Row {
    let mut values = vec![Value::Null; table.schema().len()];
    values[pos_idx] = Value::Int(k);
    values[val_idx] = Value::Float(val);
    Row::new(values)
}

/// Apply one batch op to the base table under the caller's write lock.
/// The caller has validated positions, so shifts are the only extra
/// work — and this is the only place stored positions are shifted.
fn apply_base_op(guard: &mut Table, pos_idx: usize, val_idx: usize, op: BatchOp) -> Result<()> {
    let shift = |guard: &mut Table, from: i64, delta: i64| -> Result<()> {
        let mut moved: Vec<(i64, usize)> = Vec::new();
        for (rid, r) in guard.scan() {
            if let Some(p) = r.get(pos_idx).as_int()?.filter(|p| *p >= from) {
                moved.push((p, rid));
            }
        }
        // Unique pos index: move the far end first.
        moved.sort_by_key(|(p, _)| if delta > 0 { -p } else { *p });
        for (p, rid) in moved {
            guard.set_cell(rid, pos_idx, Value::Int(p + delta))?;
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
            guard.set_cell(rid, val_idx, Value::Float(val))?;
        }
        BatchOp::Insert { k, val } => {
            let n = guard.stats().row_count as i64;
            if k != n + 1 {
                shift(guard, k, 1)?;
            }
            guard.insert(sequence_row(guard, pos_idx, val_idx, k, val))?;
        }
        BatchOp::Delete { k } => {
            let rid = rid_at(guard, k)?;
            guard.delete(rid)?;
            shift(guard, k + 1, -1)?;
        }
    }
    Ok(())
}

/// The raw values at positions `lo..=hi` of a dense sequence table, under
/// the caller's lock: one probe of the position index, or, where the table
/// has none, a scan.
fn read_raw(guard: &Table, pos_idx: usize, val_idx: usize, lo: i64, hi: i64) -> Result<Vec<f64>> {
    let value = |r: &Row| {
        (r.get(val_idx).as_f64()?).ok_or_else(|| RfvError::internal("NULL in a sequence table"))
    };
    if guard.index_on(pos_idx).is_some() {
        let (lo, hi) = (Value::Int(lo), Value::Int(hi));
        let rids = guard.index_range(pos_idx, Bound::Included(&lo), Bound::Included(&hi))?;
        let row = |rid| {
            guard
                .get(rid)
                .ok_or_else(|| RfvError::internal("stale row id"))
        };
        return rids.into_iter().map(|rid| value(row(rid)?)).collect();
    }
    let mut found: Vec<(i64, f64)> = Vec::new();
    for (_, r) in guard.scan() {
        if let Some(p) = r.get(pos_idx).as_int()?.filter(|p| (lo..=hi).contains(p)) {
            found.push((p, value(r)?));
        }
    }
    found.sort_by_key(|(p, _)| *p);
    Ok(found.into_iter().map(|(_, v)| v).collect())
}

/// `v` as a column of type `ty` stores it: an integer written into a DOUBLE
/// column is the float of that value, so the column holds one variant and
/// what it prints, sums to and recovers as does not depend on how a literal
/// was spelled.
fn stored(v: Value, ty: DataType) -> Value {
    match (v, ty) {
        (Value::Int(i), DataType::Float) => Value::Float(i as f64),
        (v, _) => v,
    }
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
                let value = bound.eval(&Row::empty())?;
                row_values[idx] = stored(value, schema.field(idx).data_type);
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
        let simple = dependents.iter().find(|v| !v.is_partitioned());
        match simple.map(|v| (v.pos_column.clone(), v.val_column.clone())) {
            None => {
                // One write lock for the whole statement, not one per row.
                // §6 partitioned reporting functions: positions are local
                // to partitions, so any insert that leaves every partition
                // dense is accepted, and the views are rematerialized from
                // the post-image before it is written — once per statement.
                let mut guard = t.write();
                let bodies = Self::partitioned_bodies(table, &guard, &dependents, || {
                    guard.scan().map(|(_, r)| r).chain(&rows)
                })?;
                guard.insert_many(rows)?;
                self.install_bodies(bodies)?;
            }
            Some((pos_column, val_column)) => {
                // Base of materialized sequence views: plain INSERT can only
                // append, which `apply_edits` checks against the table. The
                // views must not be held while it patches them in place.
                drop(dependents);
                let schema = t.read().schema().clone();
                let pos_idx = schema.index_of(None, &pos_column)?;
                let val_idx = schema.index_of(None, &val_column)?;
                let mut batch = MaintBatch::new();
                for row in &rows {
                    let k = row.get(pos_idx).as_int()?.ok_or_else(|| {
                        RfvError::execution("NULL position inserted into sequence table")
                    })?;
                    let val = row.get(val_idx).as_f64()?.ok_or_else(|| {
                        RfvError::execution("NULL value inserted into sequence table")
                    })?;
                    batch.push(BatchOp::Insert { k, val });
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
    /// (`None`): under one write lock, evaluate the change of every row
    /// matching `selection`, rematerialize partitioned views from the
    /// post-image, then write both; and log the statement text
    /// (assignments re-evaluate per row on replay, deterministically —
    /// parsed expressions round-trip exactly).
    fn modify_rows(
        &self,
        table: &str,
        assignments: Option<&[(String, ast::Expr)]>,
        selection: Option<&ast::Expr>,
    ) -> Result<usize> {
        let apply = || {
            // Simple sequence views need the §2.3 positional rules (SQL
            // row-level DML can't express them); partitioned views are
            // rematerialized.
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
            // Each matching row's new image (`None`: deleted), in scan order.
            let mut changes: Vec<(usize, Option<Row>)> = Vec::new();
            for (rid, row) in guard.scan() {
                let keep = match &predicate {
                    None => true,
                    Some(p) => p.eval(row)?.as_bool()? == Some(true),
                };
                if !keep {
                    continue;
                }
                let new_row = match &bound_assignments {
                    Some(bound) => {
                        let mut new_row = row.clone();
                        for (idx, expr) in bound {
                            let value = expr.eval(row)?;
                            new_row.set(*idx, stored(value, schema.field(*idx).data_type));
                        }
                        Some(new_row)
                    }
                    None => None,
                };
                changes.push((rid, new_row));
            }
            let bodies = Self::partitioned_bodies(table, &guard, &partitioned, || {
                let mut changed = changes.iter().peekable();
                guard.scan().filter_map(move |(rid, row)| {
                    match changed.next_if(|(at, _)| *at == rid) {
                        Some((_, new_row)) => new_row.as_ref(),
                        None => Some(row),
                    }
                })
            })?;
            let count = changes.len();
            for (rid, new_row) in changes {
                match new_row {
                    Some(new_row) => guard.update(rid, new_row)?,
                    None => guard.delete(rid)?,
                };
            }
            self.install_bodies(bodies)?;
            Ok(count)
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
        // The density evidence covers all simple views of a base table at
        // once: the first one records it (as `rematerialize` does, from
        // before the read), a later one joins what is there.
        let base = spec.base_table.clone();
        let before = self.catalog.table(&base)?.read().generation();
        let others = self.registry.views_for(&base);
        let first_simple = spec.partition.is_empty() && others.iter().all(|v| v.is_partitioned());
        let (partition_columns, partition_types): (Vec<String>, Vec<DataType>) =
            spec.partition.into_iter().unzip();
        let data = {
            let t = self.catalog.table(&base)?;
            let guard = t.read();
            Self::materialize_view(
                &base,
                guard.schema(),
                guard.scan().map(|(_, r)| r),
                &partition_columns,
                (&spec.pos_column, &spec.val_column),
                spec.func,
                spec.window,
            )?
        };
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
        if first_simple {
            self.registry.record_dense(&base, before);
        }
        self.counters.view_created.incr();
        Ok(())
    }

    /// Read the rows of a sequence table into raw value vectors, one per
    /// partition-key tuple in key order — a simple sequence is the single
    /// partition with the empty key (§6). Every partition must hold dense
    /// positions `1..=n_p` with non-null values.
    fn read_sequences<'r>(
        table: &str,
        schema: &Schema,
        rows: impl Iterator<Item = &'r Row>,
        part_columns: &[String],
        pos_column: &str,
        val_column: &str,
    ) -> Result<BTreeMap<Vec<Value>, Vec<f64>>> {
        let what = |part: &[Value]| match part {
            [] => format!("`{table}`"),
            _ => format!("partition {part:?} of `{table}`"),
        };
        let part_idxs: Vec<usize> = part_columns
            .iter()
            .map(|c| schema.index_of(None, c))
            .collect::<Result<_>>()?;
        let pos_idx = schema.index_of(None, pos_column)?;
        let val_idx = schema.index_of(None, val_column)?;
        let mut grouped: BTreeMap<Vec<Value>, Vec<(i64, f64)>> = BTreeMap::new();
        for r in rows {
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

    /// A view's body from `rows` of its base table `table`: the single
    /// sequence of an unpartitioned view, or one complete sequence per
    /// partition-key tuple (§6).
    fn materialize_view<'r>(
        table: &str,
        schema: &Schema,
        rows: impl Iterator<Item = &'r Row>,
        part_columns: &[String],
        (pos_column, val_column): (&str, &str),
        func: AggFunc,
        window: WindowSpec,
    ) -> Result<ViewData> {
        let mut sequences =
            Self::read_sequences(table, schema, rows, part_columns, pos_column, val_column)?;
        if part_columns.is_empty() {
            let raw = sequences.remove([].as_slice()).unwrap_or_default();
            return materialize_simple(func, window, &raw);
        }
        let (WindowSpec::Sliding { l, h }, AggFunc::Sum) = (window, func) else {
            return Err(RfvError::plan(
                "partitioned sequence views currently support SUM over \
                 sliding windows",
            ));
        };
        let mut parts = BTreeMap::new();
        for (key, raw) in sequences {
            parts.insert(key, CompleteSequence::materialize(&raw, l, h)?);
        }
        Ok(ViewData::PartitionedSum(parts))
    }

    /// `view`'s body from `rows` of its base table, whose schema `base` has.
    fn view_body<'r>(
        table: &str,
        base: &Table,
        rows: impl Iterator<Item = &'r Row>,
        view: &SequenceView,
    ) -> Result<ViewData> {
        Self::materialize_view(
            table,
            base.schema(),
            rows,
            &view.partition_columns,
            (&view.pos_column, &view.val_column),
            view.func,
            view.window,
        )
    }

    /// The bodies of the §6 partitioned views among `views`, materialized from
    /// `post_image` — the rows `base` will hold once the statement's write is
    /// applied — before anything is written: a write that would leave a
    /// partition sparse errors with the table and its views unchanged. Their
    /// positions are partition-local, so the simple-sequence §2.3 rules don't
    /// apply. Without partitioned views `post_image` is never called.
    fn partitioned_bodies<'r, I: Iterator<Item = &'r Row>>(
        table: &str,
        base: &Table,
        views: &[Arc<SequenceView>],
        post_image: impl Fn() -> I,
    ) -> Result<Vec<(String, ViewData)>> {
        (views.iter().filter(|v| v.is_partitioned()))
            .map(|v| {
                Ok((
                    v.name.clone(),
                    Self::view_body(table, base, post_image(), v)?,
                ))
            })
            .collect()
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
    /// once per row (§2.3, batched): an append run or an update set is one
    /// edit and one patch per view. Batches whose ops interleave
    /// mid-sequence inserts/deletes with other edits are applied op by op —
    /// still under one lock round-trip, but with `maintenance.batch_fallback`
    /// incremented so the regression is observable.
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

    /// The single write path of a sequence table, one critical section
    /// under the table's write lock: check, then per [`maintenance::Edit`]
    /// apply it to the base rows, read the raw neighbourhood the §2.3 rules
    /// need from the post-image, and patch every simple view and its mirror
    /// in place. There is no scratch copy to throw away, so every check that
    /// correct use can trip runs before the first write; past that point
    /// only a broken storage invariant can fail.
    ///
    /// The caller holds the commit lock and logs its own record kind. `rows`
    /// are the full rows of a SQL append (they may carry more columns than
    /// `(pos, val)`); `single` is the per-kind counter of a one-op entry
    /// point, which counts instead of `maintenance.batch*` (and only when
    /// the table has views).
    fn apply_edits(
        &self,
        table: &str,
        batch: &MaintBatch,
        mut rows: Option<Vec<Row>>,
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
        // All that is kept of the simple views: their `Arc`s must be gone
        // before the first patch, or `Arc::make_mut` would copy each body.
        let has_views = !views.is_empty();
        let simple: Vec<(String, WindowSpec)> = (views.iter().filter(|v| !v.is_partitioned()))
            .map(|v| (v.name.clone(), v.window))
            .collect();
        let partitioned: Vec<_> = views.into_iter().filter(|v| v.is_partitioned()).collect();
        let windows = || simple.iter().map(|(_, w)| *w);
        let reach = windows().filter_map(|w| w.window_size()).max().unwrap_or(1) - 1;
        let to_end = windows().any(|w| w == WindowSpec::Cumulative);

        let c = &self.counters;
        let rec = event::recorder();
        let start = rec.is_enabled().then(event::now_ns);
        let mut total = MaintenanceStats::default();
        let mut guard = t.write();
        // The O(1) check that replaces re-reading and re-validating the
        // table on every write.
        let in_step = |guard: &Table| {
            let rows = guard.stats().row_count;
            simple.is_empty() || self.registry.is_dense(table, guard.generation(), rows)
        };
        if !in_step(&guard) {
            // Somebody else wrote to the table: re-read and re-validate it
            // whole (refusing one that is no longer a dense sequence) and
            // rematerialize, which records fresh evidence.
            drop(guard);
            let views = self.registry.views_for(table);
            self.rematerialize(table, views.iter().filter(|v| !v.is_partitioned()))?;
            drop(views);
            guard = t.write();
            if !in_step(&guard) {
                return Err(RfvError::execution(format!(
                    "`{table}` is being changed behind its materialized views"
                )));
            }
        }
        let n = guard.stats().row_count as i64;
        let append = batch.is_append_run(n);
        let has_values = (batch.ops().iter()).any(|op| !matches!(op, BatchOp::Delete { .. }));
        let val_type = guard.schema().field(val_idx).data_type;
        if rows.is_some() && !append {
            return Err(RfvError::execution(format!(
                "table `{table}` backs materialized sequence views; plain INSERT must append \
                 positions {}, {}, … — use Database::sequence_insert for mid-sequence inserts",
                n + 1,
                n + 2
            )));
        }
        let peak = batch.validate(n)?;
        for window in windows() {
            if let WindowSpec::Sliding { l, h } = window {
                check_extent(peak, l, h)?;
            }
        }
        if rows.is_none() && has_values && !val_type.admits(&Value::Float(0.0)) {
            return Err(RfvError::schema(format!(
                "the {val_type} value column of `{table}` does not admit DOUBLE values"
            )));
        } else if !append && guard.index_on(pos_idx).is_none() {
            return Err(RfvError::execution(format!(
                "`{table}` needs an index on its position column for edits other than appends"
            )));
        }

        for edit in batch.edits(n) {
            let ops = &batch.ops()[edit.ops.clone()];
            if append {
                // One storage call, all-or-nothing even where no evidence
                // vouches for the table (a view-less sequence table).
                let built = |op: &BatchOp| match *op {
                    BatchOp::Insert { k, val } => sequence_row(&guard, pos_idx, val_idx, k, val),
                    _ => unreachable!("an append run holds only inserts"),
                };
                let rows = rows
                    .take()
                    .unwrap_or_else(|| ops.iter().map(built).collect());
                guard.insert_many(rows)?;
            } else {
                for op in ops {
                    apply_base_op(&mut guard, pos_idx, val_idx, *op)?;
                }
            }
            if simple.is_empty() {
                continue;
            }
            let mut pieces: Vec<(i64, Vec<f64>)> = Vec::new();
            for (lo, hi) in edit.raw_reads(reach, to_end) {
                pieces.push((lo, read_raw(&guard, pos_idx, val_idx, lo, hi)?));
            }
            c.maint_base_rows_read
                .add(pieces.iter().map(|(_, v)| v.len() as u64).sum());
            let raw = RawWindow(pieces.iter().map(|(lo, v)| (*lo, v.as_slice())).collect());
            for (name, _) in &simple {
                let synced = self.registry.patch(&self.catalog, name, |data| {
                    let (intervals, stats) = maintenance::patch_view(data, &raw, &edit);
                    total.merge(stats);
                    intervals
                });
                // `None`: the view was dropped since this batch began.
                if let Some((written, healed)) = synced {
                    c.maint_mirror_rows_written.add(written);
                    c.maint_mirror_healed.add(u64::from(healed));
                }
            }
        }
        if !simple.is_empty() {
            self.registry.record_dense(table, guard.generation());
        }
        drop(guard);
        // §6 views are rematerializations, and read the table themselves.
        self.rematerialize(table, partitioned.iter())?;
        if let Some(start) = start {
            let detail = format!("{table}: {} ops", batch.len());
            rec.complete_since("maintenance.batch", "maintenance", start, Some(detail));
        }
        match single {
            Some(_) if !has_views => {}
            Some(counter) => counter.incr(),
            None => {
                c.maint_batch.incr();
                c.maint_batch_rows.add(batch.len() as u64);
                if !batch.coalesces(n) {
                    c.maint_batch_fallback.incr();
                }
                c.maint_batch_recomputed.add(total.recomputed as u64);
                c.maint_batch_shifted.add(total.shifted as u64);
                c.maint_batch_coalesced.add(total.coalesced as u64);
            }
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
    /// state; with simple views among them (callers then pass them all)
    /// that is the table's density evidence. The generation is taken before
    /// the reads: evidence older than the views costs one more slow path,
    /// evidence newer than them would hide a change.
    fn rematerialize<'a>(
        &self,
        table: &str,
        views: impl Iterator<Item = &'a Arc<SequenceView>>,
    ) -> Result<()> {
        let t = self.catalog.table(table)?;
        let before = t.read().generation();
        let mut simple = false;
        for view in views {
            let data = {
                let guard = t.read();
                Self::view_body(table, &guard, guard.scan().map(|(_, r)| r), view)?
            };
            self.registry.refresh(&self.catalog, &view.name, data)?;
            simple |= !view.is_partitioned();
        }
        if simple {
            self.registry.record_dense(table, before);
        }
        Ok(())
    }

    /// Swap rematerialized view bodies in (with their mirrors). A write
    /// calls this while it still holds its base table's write lock: base →
    /// registry → mirror, the lock order of every write.
    fn install_bodies(&self, bodies: Vec<(String, ViewData)>) -> Result<()> {
        for (name, data) in bodies {
            self.registry.refresh(&self.catalog, &name, data)?;
        }
        Ok(())
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
