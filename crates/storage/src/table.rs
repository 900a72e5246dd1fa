//! Slotted in-memory row store.

use std::collections::HashMap;
use std::ops::Bound;

use rfv_types::{Result, RfvError, Row, Schema, SchemaRef, Value};

use crate::index::{IndexKind, OrderedIndex};

/// Stable identifier of a row inside one table. Row ids survive unrelated
/// deletes (slots are tombstoned, not compacted), which keeps index entries
/// valid without rewrites.
pub type RowId = usize;

/// Basic statistics, used by the planner for join-side selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Live rows.
    pub row_count: usize,
    /// Total slots including tombstones.
    pub slot_count: usize,
}

/// An in-memory table: schema, slotted rows, and any number of ordered
/// secondary indexes plus at most one unique primary-key index.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    slots: Vec<Option<Row>>,
    live: usize,
    indexes: HashMap<usize, OrderedIndex>,
    /// Monotonic mutation counter: bumped once per successful mutating
    /// call (insert / insert_many / update / set_cell / delete / truncate
    /// / create_index — index DDL changes plan choice, so it must
    /// invalidate cached plans too). Read under the same lock that
    /// guards the data, so `generation() == g` means the table holds
    /// exactly the state it held when `g` was last observed.
    generation: u64,
    /// True for throwaway snapshots materialized from a virtual system
    /// table ([`crate::Catalog::register_virtual`]): their contents are
    /// point-in-time telemetry, so plans that read them must never be
    /// cached.
    virtual_snapshot: bool,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema: SchemaRef::new(schema),
            slots: Vec::new(),
            live: 0,
            indexes: HashMap::new(),
            generation: 0,
            virtual_snapshot: false,
        }
    }

    /// A table marked as a virtual-system-table snapshot (see the
    /// `virtual_snapshot` field).
    pub fn new_virtual(name: impl Into<String>, schema: Schema) -> Self {
        let mut t = Table::new(name, schema);
        t.virtual_snapshot = true;
        t
    }

    /// Whether this is a snapshot of a virtual system table.
    pub fn is_virtual(&self) -> bool {
        self.virtual_snapshot
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The current mutation generation. Two reads returning the same
    /// value bracket a span with no successful mutation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn stats(&self) -> TableStats {
        TableStats {
            row_count: self.live,
            slot_count: self.slots.len(),
        }
    }

    /// Create an ordered index over column `col`.
    ///
    /// `IndexKind::Unique` enforces key uniqueness (a primary key); the build
    /// fails if existing data violates it. Indexing the same column twice
    /// is an error.
    pub fn create_index(&mut self, col: usize, kind: IndexKind) -> Result<()> {
        if col >= self.schema.len() {
            return Err(RfvError::schema(format!(
                "cannot index column {col}: table `{}` has {} columns",
                self.name,
                self.schema.len()
            )));
        }
        if self.indexes.contains_key(&col) {
            return Err(RfvError::catalog(format!(
                "column `{}` of `{}` is already indexed",
                self.schema.field(col).name,
                self.name
            )));
        }
        let mut index = OrderedIndex::new(col, kind);
        for (rid, slot) in self.slots.iter().enumerate() {
            if let Some(row) = slot {
                index.insert(row.get(col).clone(), rid)?;
            }
        }
        self.indexes.insert(col, index);
        self.generation += 1;
        Ok(())
    }

    /// The index on `col`, if one exists.
    pub fn index_on(&self, col: usize) -> Option<&OrderedIndex> {
        self.indexes.get(&col)
    }

    /// Columns that currently have an index.
    pub fn indexed_columns(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.indexes.keys().copied().collect();
        cols.sort_unstable();
        cols
    }

    fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(RfvError::schema(format!(
                "row arity {} does not match schema arity {} of `{}`",
                row.len(),
                self.schema.len(),
                self.name
            )));
        }
        for (i, field) in self.schema.fields().iter().enumerate() {
            let v = row.get(i);
            if v.is_null() && !field.nullable {
                return Err(RfvError::schema(format!(
                    "NULL in NOT NULL column `{}` of `{}`",
                    field.name, self.name
                )));
            }
            if !field.data_type.admits(v) {
                return Err(RfvError::schema(format!(
                    "value {v:?} not admissible in column `{}` ({}) of `{}`",
                    field.name, field.data_type, self.name
                )));
            }
        }
        Ok(())
    }

    /// Insert a row, updating all indexes. Returns the new row id.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.check_row(&row)?;
        let rid = self.slots.len();
        // Probe unique indexes before mutating anything so a duplicate key
        // leaves the table untouched.
        for index in self.indexes.values() {
            index.check_insertable(row.get(index.column()))?;
        }
        for index in self.indexes.values_mut() {
            index.insert(row.get(index.column()).clone(), rid)?;
        }
        self.slots.push(Some(row));
        self.live += 1;
        self.generation += 1;
        Ok(rid)
    }

    /// Insert a batch of rows under one validation pass. All rows are
    /// checked (schema + unique-key probes, *including* duplicates within
    /// the batch itself) before any row is stored, so a failing batch
    /// leaves the table untouched. Returns the new row ids in input order.
    ///
    /// This is the storage half of the engine's batched bulk-load path:
    /// one call under one table write-lock instead of one lock round-trip
    /// per row.
    pub fn insert_many(&mut self, rows: Vec<Row>) -> Result<Vec<RowId>> {
        for row in &rows {
            self.check_row(row)?;
        }
        for index in self.indexes.values() {
            let col = index.column();
            let mut seen: std::collections::HashSet<&Value> = std::collections::HashSet::new();
            for row in &rows {
                let key = row.get(col);
                index.check_insertable(key)?;
                if index.kind() == IndexKind::Unique && !key.is_null() && !seen.insert(key) {
                    return Err(RfvError::execution(format!(
                        "duplicate key {key:?} within one insert batch on \
                         column `{}` of `{}`",
                        self.schema.field(col).name,
                        self.name
                    )));
                }
            }
        }
        let mut rids = Vec::with_capacity(rows.len());
        for row in rows {
            let rid = self.slots.len();
            for index in self.indexes.values_mut() {
                index.insert(row.get(index.column()).clone(), rid)?;
            }
            self.slots.push(Some(row));
            self.live += 1;
            rids.push(rid);
        }
        self.generation += 1;
        Ok(rids)
    }

    /// Fetch a row by id (`None` if deleted / never existed).
    pub fn get(&self, rid: RowId) -> Option<&Row> {
        self.slots.get(rid).and_then(|s| s.as_ref())
    }

    /// Delete a row by id. Returns the old row.
    pub fn delete(&mut self, rid: RowId) -> Result<Row> {
        let slot = self
            .slots
            .get_mut(rid)
            .ok_or_else(|| RfvError::execution(format!("row id {rid} out of range")))?;
        let row = slot
            .take()
            .ok_or_else(|| RfvError::execution(format!("row id {rid} already deleted")))?;
        self.live -= 1;
        for index in self.indexes.values_mut() {
            index.remove(row.get(index.column()), rid);
        }
        self.generation += 1;
        Ok(row)
    }

    /// Replace the row at `rid`, keeping indexes consistent.
    pub fn update(&mut self, rid: RowId, new: Row) -> Result<Row> {
        self.check_row(&new)?;
        let old = self
            .get(rid)
            .cloned()
            .ok_or_else(|| RfvError::execution(format!("row id {rid} not found")))?;
        for index in self.indexes.values() {
            let col = index.column();
            if old.get(col) != new.get(col) {
                index.check_insertable(new.get(col))?;
            }
        }
        // The probes above make per-index failure unreachable, but a
        // storage invariant must degrade to an error, never a panic:
        // on the impossible failure, roll the touched indexes back so
        // the table stays self-consistent.
        let changed: Vec<usize> = self
            .indexes
            .values()
            .map(|ix| ix.column())
            .filter(|&col| old.get(col) != new.get(col))
            .collect();
        for (i, &col) in changed.iter().enumerate() {
            let Some(index) = self.indexes.get_mut(&col) else {
                continue;
            };
            index.remove(old.get(col), rid);
            if let Err(e) = index.insert(new.get(col).clone(), rid) {
                for &done in changed.iter().take(i + 1) {
                    if let Some(ix) = self.indexes.get_mut(&done) {
                        ix.remove(new.get(done), rid);
                        let _ = ix.insert(old.get(done).clone(), rid);
                    }
                }
                return Err(e);
            }
        }
        self.slots[rid] = Some(new);
        self.generation += 1;
        Ok(old)
    }

    /// Set one cell of the row at `rid` in place: the row is neither
    /// cloned nor re-validated, and only an index on `col` itself is
    /// touched. The value is checked against the column (type, NOT NULL,
    /// unique key) before anything changes.
    pub fn set_cell(&mut self, rid: RowId, col: usize, value: Value) -> Result<()> {
        let field = self
            .schema
            .fields()
            .get(col)
            .ok_or_else(|| RfvError::schema(format!("`{}` has no column {col}", self.name)))?;
        if (value.is_null() && !field.nullable) || !field.data_type.admits(&value) {
            return Err(RfvError::schema(format!(
                "value {value:?} not admissible in column `{}` ({}) of `{}`",
                field.name, field.data_type, self.name
            )));
        }
        let row = self
            .slots
            .get_mut(rid)
            .and_then(Option::as_mut)
            .ok_or_else(|| RfvError::execution(format!("row id {rid} not found")))?;
        if let Some(index) = self.indexes.get_mut(&col) {
            if row.get(col) != &value {
                index.check_insertable(&value)?;
                index.remove(row.get(col), rid);
                index.insert(value.clone(), rid)?;
            }
        }
        row.set(col, value);
        self.generation += 1;
        Ok(())
    }

    /// Iterate over `(RowId, &Row)` pairs of live rows in slot order.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(rid, slot)| slot.as_ref().map(|r| (rid, r)))
    }

    /// Iterate over `(RowId, &Row)` pairs of live rows whose slot lies in
    /// `[lo, hi)`, in slot order. With `[0, slot_count)` this is exactly
    /// [`scan`](Self::scan); parallel scans split the slot space into
    /// contiguous ranges so per-range output concatenates back to the
    /// serial scan order.
    pub fn scan_range(&self, lo: usize, hi: usize) -> impl Iterator<Item = (RowId, &Row)> {
        let hi = hi.min(self.slots.len());
        let lo = lo.min(hi);
        self.slots[lo..hi]
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|r| (lo + i, r)))
    }

    /// Row ids whose indexed column equals `key`, via the index on `col`.
    pub fn index_lookup(&self, col: usize, key: &Value) -> Result<Vec<RowId>> {
        let index = self.indexes.get(&col).ok_or_else(|| {
            RfvError::execution(format!("no index on column {col} of `{}`", self.name))
        })?;
        Ok(index.lookup(key))
    }

    /// Row ids whose indexed column lies between `lo` and `hi`, in key
    /// order (see [`OrderedIndex::range`] for NULLs and empty ranges).
    pub fn index_range(
        &self,
        col: usize,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> Result<Vec<RowId>> {
        let index = self.indexes.get(&col).ok_or_else(|| {
            RfvError::execution(format!("no index on column {col} of `{}`", self.name))
        })?;
        Ok(index.range(lo, hi))
    }

    /// The raw slot array, tombstones included — the exact bytes a
    /// snapshot must carry so row ids and scan order survive recovery.
    pub fn slots(&self) -> &[Option<Row>] {
        &self.slots
    }

    /// `(column, kind)` of every index, sorted by column.
    pub fn index_defs(&self) -> Vec<(usize, IndexKind)> {
        let mut defs: Vec<(usize, IndexKind)> = self
            .indexes
            .values()
            .map(|ix| (ix.column(), ix.kind()))
            .collect();
        defs.sort_unstable_by_key(|(col, _)| *col);
        defs
    }

    /// Rebuild a table from snapshot parts: the slot array verbatim
    /// (row ids are slot positions, so tombstones must be preserved)
    /// plus index definitions, re-derived from the live rows. Fails —
    /// never panics — if the image is inconsistent (bad arity, duplicate
    /// unique keys, out-of-range index column).
    pub fn from_parts(
        name: impl Into<String>,
        schema: Schema,
        slots: Vec<Option<Row>>,
        indexes: &[(usize, IndexKind)],
    ) -> Result<Self> {
        let mut t = Table::new(name, schema);
        for row in slots.iter().flatten() {
            t.check_row(row)?;
        }
        t.live = slots.iter().filter(|s| s.is_some()).count();
        t.slots = slots;
        for &(col, kind) in indexes {
            t.create_index(col, kind)?;
        }
        t.generation = 0;
        Ok(t)
    }

    /// Remove all rows but keep schema and (now empty) indexes.
    pub fn truncate(&mut self) {
        self.slots.clear();
        self.live = 0;
        for index in self.indexes.values_mut() {
            index.clear();
        }
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_types::{row, DataType, Field};

    fn seq_table() -> Table {
        let schema = Schema::new(vec![
            Field::not_null("pos", DataType::Int),
            Field::new("val", DataType::Float),
        ]);
        Table::new("seq", schema)
    }

    #[test]
    fn insert_and_scan() {
        let mut t = seq_table();
        t.insert(row![1i64, 10.0]).unwrap();
        t.insert(row![2i64, 20.0]).unwrap();
        let rows: Vec<_> = t.scan().map(|(_, r)| r.clone()).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], row![2i64, 20.0]);
        assert_eq!(t.stats().row_count, 2);
    }

    #[test]
    fn scan_range_partitions_concatenate_to_full_scan() {
        let mut t = seq_table();
        for i in 0..10i64 {
            t.insert(row![i, i as f64]).unwrap();
        }
        // Tombstone a couple of slots so ranges cross holes.
        t.delete(3).unwrap();
        t.delete(7).unwrap();
        let full: Vec<_> = t.scan().map(|(rid, r)| (rid, r.clone())).collect();
        let slots = t.stats().slot_count;
        for split in [0usize, 1, 4, 5, 9, 10] {
            let mut stitched: Vec<_> = t
                .scan_range(0, split)
                .map(|(rid, r)| (rid, r.clone()))
                .collect();
            stitched.extend(t.scan_range(split, slots).map(|(rid, r)| (rid, r.clone())));
            assert_eq!(stitched, full, "split at {split}");
        }
        // Out-of-bounds and inverted ranges are clamped, not panicking.
        assert_eq!(t.scan_range(slots, slots + 5).count(), 0);
        assert_eq!(t.scan_range(8, 2).count(), 0);
    }

    #[test]
    fn arity_and_type_checks() {
        let mut t = seq_table();
        assert!(t.insert(row![1i64]).is_err(), "arity");
        assert!(t.insert(row!["x", 1.0]).is_err(), "type");
        assert!(
            t.insert(Row::new(vec![Value::Null, Value::Float(1.0)]))
                .is_err(),
            "not null"
        );
        // Int into Float column is fine.
        t.insert(row![1i64, 2i64]).unwrap();
    }

    #[test]
    fn insert_many_is_all_or_nothing() {
        let mut t = seq_table();
        t.create_index(0, IndexKind::Unique).unwrap();
        t.insert(row![1i64, 10.0]).unwrap();
        // Clash with stored data → nothing inserted.
        let err = t
            .insert_many(vec![row![2i64, 20.0], row![1i64, 99.0]])
            .unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        assert_eq!(t.stats().row_count, 1);
        // Clash within the batch itself → nothing inserted.
        let err = t
            .insert_many(vec![row![2i64, 20.0], row![2i64, 21.0]])
            .unwrap_err();
        assert!(err.to_string().contains("within one insert batch"), "{err}");
        assert_eq!(t.stats().row_count, 1);
        // Schema violation anywhere in the batch → nothing inserted.
        assert!(t.insert_many(vec![row![2i64, 20.0], row![3i64]]).is_err());
        assert_eq!(t.stats().row_count, 1);
        // Clean batch lands with sequential row ids.
        let rids = t
            .insert_many(vec![row![2i64, 20.0], row![3i64, 30.0]])
            .unwrap();
        assert_eq!(rids.len(), 2);
        assert_eq!(t.stats().row_count, 3);
        assert_eq!(t.index_lookup(0, &Value::Int(3)).unwrap().len(), 1);
    }

    #[test]
    fn delete_tombstones_and_preserves_ids() {
        let mut t = seq_table();
        let a = t.insert(row![1i64, 10.0]).unwrap();
        let b = t.insert(row![2i64, 20.0]).unwrap();
        t.delete(a).unwrap();
        assert!(t.get(a).is_none());
        assert_eq!(t.get(b).unwrap(), &row![2i64, 20.0]);
        assert_eq!(t.stats().row_count, 1);
        assert_eq!(t.stats().slot_count, 2);
        assert!(t.delete(a).is_err(), "double delete");
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut t = seq_table();
        t.create_index(0, IndexKind::Unique).unwrap();
        t.insert(row![1i64, 10.0]).unwrap();
        let err = t.insert(row![1i64, 99.0]).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // Failed insert must not leave residue.
        assert_eq!(t.stats().row_count, 1);
        t.insert(row![2i64, 20.0]).unwrap();
    }

    #[test]
    fn index_build_on_existing_data_and_lookup() {
        let mut t = seq_table();
        for i in 0..10i64 {
            t.insert(row![i, (i * 10) as f64]).unwrap();
        }
        t.create_index(0, IndexKind::Unique).unwrap();
        let hits = t.index_lookup(0, &Value::Int(7)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(t.get(hits[0]).unwrap().get(1), &Value::Float(70.0));
    }

    #[test]
    fn index_range_scan_is_ordered() {
        let mut t = seq_table();
        for i in [5i64, 1, 9, 3, 7] {
            t.insert(row![i, i as f64]).unwrap();
        }
        t.create_index(0, IndexKind::NonUnique).unwrap();
        let rids = t
            .index_range(
                0,
                Bound::Included(&Value::Int(3)),
                Bound::Excluded(&Value::Int(9)),
            )
            .unwrap();
        let keys: Vec<_> = rids
            .iter()
            .map(|&r| t.get(r).unwrap().get(0).clone())
            .collect();
        assert_eq!(keys, vec![Value::Int(3), Value::Int(5), Value::Int(7)]);
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = seq_table();
        t.create_index(0, IndexKind::Unique).unwrap();
        let rid = t.insert(row![1i64, 10.0]).unwrap();
        t.insert(row![2i64, 20.0]).unwrap();
        // Key change.
        t.update(rid, row![5i64, 50.0]).unwrap();
        assert!(t.index_lookup(0, &Value::Int(1)).unwrap().is_empty());
        assert_eq!(t.index_lookup(0, &Value::Int(5)).unwrap(), vec![rid]);
        // Key collision on update is rejected and leaves state intact.
        assert!(t.update(rid, row![2i64, 0.0]).is_err());
        assert_eq!(t.index_lookup(0, &Value::Int(5)).unwrap(), vec![rid]);
    }

    #[test]
    fn set_cell_checks_the_column_and_keeps_its_index() {
        let mut t = seq_table();
        t.create_index(0, IndexKind::Unique).unwrap();
        let a = t.insert(row![1i64, 10.0]).unwrap();
        t.insert(row![2i64, 20.0]).unwrap();
        // A non-indexed cell: set in place, NULL allowed in a nullable column.
        t.set_cell(a, 1, Value::Float(11.0)).unwrap();
        t.set_cell(a, 1, Value::Null).unwrap();
        assert_eq!(
            t.get(a).unwrap(),
            &Row::new(vec![Value::Int(1), Value::Null])
        );
        // Refused before anything changes: type, NOT NULL, unique key,
        // unknown column, dead row.
        assert!(t.set_cell(a, 1, Value::str("x")).is_err());
        assert!(t.set_cell(a, 0, Value::Null).is_err());
        assert!(t.set_cell(a, 0, Value::Int(2)).is_err());
        assert!(t.set_cell(a, 2, Value::Int(2)).is_err());
        assert!(t.set_cell(9, 1, Value::Float(1.0)).is_err());
        assert_eq!(t.index_lookup(0, &Value::Int(1)).unwrap(), vec![a]);
        // An indexed cell moves its index entry with it.
        t.set_cell(a, 0, Value::Int(5)).unwrap();
        assert!(t.index_lookup(0, &Value::Int(1)).unwrap().is_empty());
        assert_eq!(t.index_lookup(0, &Value::Int(5)).unwrap(), vec![a]);
    }

    #[test]
    fn duplicate_index_creation_fails() {
        let mut t = seq_table();
        t.create_index(0, IndexKind::Unique).unwrap();
        assert!(t.create_index(0, IndexKind::NonUnique).is_err());
        assert!(
            t.create_index(5, IndexKind::NonUnique).is_err(),
            "out of range column"
        );
    }

    #[test]
    fn generation_bumps_on_every_mutation_path_only() {
        let mut t = seq_table();
        assert_eq!(t.generation(), 0);
        t.insert(row![1i64, 1.0]).unwrap();
        assert_eq!(t.generation(), 1);
        t.insert_many(vec![row![2i64, 2.0], row![3i64, 3.0]])
            .unwrap();
        assert_eq!(t.generation(), 2);
        t.update(0, row![1i64, 9.0]).unwrap();
        assert_eq!(t.generation(), 3);
        t.delete(1).unwrap();
        assert_eq!(t.generation(), 4);
        t.create_index(0, IndexKind::Unique).unwrap();
        assert_eq!(t.generation(), 5);
        t.set_cell(0, 1, Value::Float(7.0)).unwrap();
        assert_eq!(t.generation(), 6);
        t.truncate();
        assert_eq!(t.generation(), 7);
        // Failed mutations leave the generation untouched: reads may
        // keep serving cached results keyed on it.
        assert!(t.insert(row![1i64]).is_err());
        assert!(t.update(17, row![1i64, 1.0]).is_err());
        assert!(t.delete(17).is_err());
        assert!(t.set_cell(17, 1, Value::Float(1.0)).is_err());
        assert_eq!(t.generation(), 7);
        // Pure reads never bump.
        let _ = t.scan().count();
        let _ = t.stats();
        assert_eq!(t.generation(), 7);
    }

    #[test]
    fn truncate_empties_table_and_indexes() {
        let mut t = seq_table();
        t.create_index(0, IndexKind::Unique).unwrap();
        t.insert(row![1i64, 1.0]).unwrap();
        t.truncate();
        assert_eq!(t.stats().row_count, 0);
        assert!(t.index_lookup(0, &Value::Int(1)).unwrap().is_empty());
        // Same key can be inserted again after truncate.
        t.insert(row![1i64, 1.0]).unwrap();
    }
}

#[cfg(test)]
mod model_tests {
    //! Model-based property tests: a `Table` with a unique index must
    //! behave exactly like a `BTreeMap<i64, f64>` under arbitrary
    //! interleavings of insert / update / delete / lookup / range.

    use std::collections::BTreeMap;

    use rfv_testkit::{check_config, Rng, Shrink};

    use super::*;
    use rfv_types::{row, DataType, Field};

    #[derive(Debug, Clone)]
    enum Op {
        Insert(i64, i64),
        UpdateVal(i64, i64),
        Delete(i64),
        Lookup(i64),
        Range(i64, i64),
    }

    // Shrinking drops ops from the stream (via Vec<Op>'s impl); the
    // per-op default (no candidates) is enough because keys are tiny.
    impl Shrink for Op {}

    fn gen_op(rng: &mut Rng) -> Op {
        let k = rng.i64_in(0, 49);
        match rng.u64_below(5) {
            0 => Op::Insert(k, rng.i64_in(-100, 100)),
            1 => Op::UpdateVal(k, rng.i64_in(-100, 100)),
            2 => Op::Delete(k),
            3 => Op::Lookup(k),
            _ => {
                let b = rng.i64_in(0, 49);
                Op::Range(k.min(b), k.max(b))
            }
        }
    }

    #[test]
    fn table_with_unique_index_matches_btreemap() {
        check_config(
            48,
            "table_with_unique_index_matches_btreemap",
            |rng| {
                let len = rng.usize_in(1, 80);
                (0..len).map(|_| gen_op(rng)).collect::<Vec<Op>>()
            },
            |ops| {
                let mut model: BTreeMap<i64, i64> = BTreeMap::new();
                // key -> rid, maintained through the model.
                let mut rids: std::collections::HashMap<i64, RowId> =
                    std::collections::HashMap::new();
                let schema = Schema::new(vec![
                    Field::not_null("k", DataType::Int),
                    Field::new("v", DataType::Int),
                ]);
                let mut table = Table::new("t", schema);
                table.create_index(0, IndexKind::Unique).unwrap();

                for op in ops.iter().cloned() {
                    match op {
                        Op::Insert(k, v) => {
                            let result = table.insert(row![k, v]);
                            if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                                e.insert(v);
                                rids.insert(k, result.unwrap());
                            } else {
                                assert!(result.is_err(), "duplicate key {k} accepted");
                            }
                        }
                        Op::UpdateVal(k, v) => {
                            if let Some(&rid) = rids.get(&k) {
                                table.update(rid, row![k, v]).unwrap();
                                model.insert(k, v);
                            }
                        }
                        Op::Delete(k) => {
                            if let Some(rid) = rids.remove(&k) {
                                table.delete(rid).unwrap();
                                model.remove(&k);
                            }
                        }
                        Op::Lookup(k) => {
                            let hits = table.index_lookup(0, &Value::Int(k)).unwrap();
                            match model.get(&k) {
                                Some(&v) => {
                                    assert_eq!(hits.len(), 1);
                                    assert_eq!(table.get(hits[0]).unwrap().get(1), &Value::Int(v));
                                }
                                None => assert!(hits.is_empty()),
                            }
                        }
                        Op::Range(lo, hi) => {
                            let got: Vec<i64> = table
                                .index_range(
                                    0,
                                    Bound::Included(&Value::Int(lo)),
                                    Bound::Included(&Value::Int(hi)),
                                )
                                .unwrap()
                                .into_iter()
                                .map(|rid| {
                                    table.get(rid).unwrap().get(0).as_int().unwrap().unwrap()
                                })
                                .collect();
                            let expected: Vec<i64> =
                                model.range(lo..=hi).map(|(&k, _)| k).collect();
                            assert_eq!(got, expected, "range [{lo}, {hi}]");
                        }
                    }
                    assert_eq!(table.stats().row_count, model.len());
                }
            },
        );
    }
}
