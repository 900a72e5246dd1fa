//! The materialized sequence-view catalog.
//!
//! A [`SequenceView`] records everything the rewriter (§3–§6) needs about
//! one materialized reporting-function view: which base table and columns
//! it windows over, the window spec, the aggregate, the optional partition
//! column (§6), and the *complete* sequence data itself (header/trailer
//! included, §3.2). The registry keeps the in-memory sequences as the
//! authoritative copy — queries answered from a view derive from them —
//! and mirrors them into a catalog table, `name(pos, val)` for simple views
//! and `name(part, pos, val)` for partitioned reporting functions, so a
//! view's body can be read with plain SQL.
//!
//! A view changes in one of two ways. [`ViewRegistry::refresh`] swaps a
//! rematerialized body in and refills the mirror. [`ViewRegistry::patch`]
//! is §2.3 maintenance: the sequence is edited in place and only the mirror
//! rows at the stored positions the edit changed are written, through the
//! mirror's unique position index — a row's `pos` never changes, so a
//! mid-sequence insert or delete rewrites `val` from the edit to the end and
//! adds or drops rows at the tail. SQL may tamper with a mirror, so the sync
//! **heals** instead of failing: a mirror that does not hold exactly the
//! rows the view expects is refilled from the patched sequence.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rfv_expr::AggFunc;
use rfv_obs::Counter;
use rfv_storage::{Catalog, IndexKind, Table};
use rfv_types::sync::RwLock;
use rfv_types::{DataType, Field, Result, RfvError, Row, Schema, Value};

use crate::sequence::{
    CompleteMinMaxSequence, CompleteSequence, CumulativeSequence, StoredSequence, WindowSpec,
};

/// The sequence payload of a view, by aggregate class and partitioning.
#[derive(Debug, Clone)]
pub enum ViewData {
    /// SUM (and the bases of COUNT/AVG): complete sliding sequence.
    Sum(CompleteSequence),
    /// Cumulative SUM view.
    CumulativeSum(CumulativeSequence),
    /// MIN/MAX: complete semi-algebraic sequence.
    MinMax(CompleteMinMaxSequence),
    /// §6: a *complete reporting function* — one complete sequence per
    /// partition-key tuple, each with its own header/trailer. Keys are
    /// multi-column (the paper's partitioning *scheme*).
    PartitionedSum(BTreeMap<Vec<Value>, CompleteSequence>),
}

type Partitions = BTreeMap<Vec<Value>, CompleteSequence>;

impl ViewData {
    /// The one sequence of a simple view, or the partitions of a §6 view.
    fn simple(&self) -> std::result::Result<&dyn StoredSequence, &Partitions> {
        match self {
            ViewData::Sum(s) => Ok(s),
            ViewData::CumulativeSum(s) => Ok(s),
            ViewData::MinMax(s) => Ok(s),
            ViewData::PartitionedSum(parts) => Err(parts),
        }
    }
}

/// The mirror's `val` cell at stored position `pos` (NULL where a MIN/MAX
/// window is empty).
fn mirror_cell(seq: &dyn StoredSequence, pos: i64) -> Value {
    seq.stored(pos).map_or(Value::Null, Value::Float)
}

/// Metadata + data of one materialized reporting-function view.
#[derive(Debug, Clone)]
pub struct SequenceView {
    /// Catalog table name the view is mirrored into.
    pub name: String,
    /// Base table the view was defined over.
    pub base_table: String,
    /// Ordering (position) column of the base table.
    pub pos_column: String,
    /// Aggregated value column of the base table.
    pub val_column: String,
    /// §6 partitioning columns (empty for simple sequences).
    pub partition_columns: Vec<String>,
    /// Static types of the partition columns, for the mirror table schema.
    pub partition_types: Vec<DataType>,
    pub func: AggFunc,
    pub window: WindowSpec,
    pub data: ViewData,
}

impl SequenceView {
    /// Body length `n`. For partitioned views, the *total* across
    /// partitions.
    pub fn n(&self) -> i64 {
        match &self.data {
            ViewData::Sum(s) => s.n(),
            ViewData::CumulativeSum(s) => s.n(),
            ViewData::MinMax(s) => s.n(),
            ViewData::PartitionedSum(parts) => parts.values().map(|s| s.n()).sum(),
        }
    }

    /// Whether this is a §6 partitioned reporting function.
    pub fn is_partitioned(&self) -> bool {
        matches!(self.data, ViewData::PartitionedSum(_))
    }

    fn mirror_schema(&self) -> Schema {
        let mut fields: Vec<Field> = self
            .partition_columns
            .iter()
            .zip(&self.partition_types)
            .map(|(name, &dt)| Field::not_null(name.clone(), dt))
            .collect();
        fields.push(Field::not_null("pos", DataType::Int));
        fields.push(Field::new("val", DataType::Float));
        Schema::new(fields)
    }

    fn fill_mirror(&self, guard: &mut Table) -> Result<()> {
        match self.data.simple() {
            Err(parts) => {
                for (key, seq) in parts {
                    for (pos, val) in seq.entries() {
                        let mut values = key.clone();
                        values.push(Value::Int(pos));
                        values.push(Value::Float(val));
                        guard.insert(Row::new(values))?;
                    }
                }
            }
            Ok(seq) => {
                let (first, last) = seq.extent();
                for pos in first..=last {
                    guard.insert(Row::new(vec![Value::Int(pos), mirror_cell(seq, pos)]))?;
                }
            }
        }
        Ok(())
    }
}

/// Write the stored positions in `intervals` of `seq` into its mirror: set
/// `val` in place where the row exists (up to `old_last`, the mirror's last
/// position before the patch), insert past the old end, delete past the
/// new end — one index probe per interval. Returns the rows written, or
/// `None` when the mirror does not hold exactly the rows the view expects.
fn sync_mirror(
    guard: &mut Table,
    seq: &dyn StoredSequence,
    old_last: i64,
    intervals: &[(i64, i64)],
) -> Option<u64> {
    // The rows of positions `lo..=hi`, in order, if they are all there.
    let rows = |guard: &Table, lo: i64, hi: i64| -> Option<Vec<usize>> {
        let (from, to) = (Value::Int(lo), Value::Int(hi));
        let rids = guard.index_range(0, Bound::Included(&from), Bound::Included(&to));
        rids.ok().filter(|r| r.len() as i64 == (hi - lo + 1).max(0))
    };
    let (_, last) = seq.extent();
    let mut written = (old_last - last).max(0) as u64;
    for &(lo, hi) in intervals {
        for (rid, pos) in rows(guard, lo, hi.min(old_last))?.into_iter().zip(lo..) {
            guard.set_cell(rid, 1, mirror_cell(seq, pos)).ok()?;
        }
        for pos in lo.max(old_last + 1)..=hi {
            let row = Row::new(vec![Value::Int(pos), mirror_cell(seq, pos)]);
            guard.insert(row).ok()?;
        }
        written += (hi - lo + 1) as u64;
    }
    for rid in rows(guard, last + 1, old_last)? {
        guard.delete(rid).ok()?;
    }
    Some(written)
}

/// Thread-safe registry of sequence views, shared by the engine, the
/// rewriter and the sequence sources of rewritten plans. Views are held
/// behind `Arc`s: a lookup clones pointers, never sequence data;
/// [`refresh`](Self::refresh) swaps a new one in and [`patch`](Self::patch)
/// edits in place, copying only while a reader still holds the old `Arc`.
#[derive(Debug, Clone, Default)]
pub struct ViewRegistry {
    views: Arc<RwLock<Vec<Arc<SequenceView>>>>,
    /// Monotonic registry generation: bumped on every register / drop /
    /// refresh. A rewritten plan reads view data when it executes, so its
    /// cached *result* depends on that data as well as on the tables it
    /// scans, and its rewrite report quotes data-dependent counts — one
    /// counter in the plan key covers the view set and every view's data.
    generation: Arc<AtomicU64>,
    /// Times a rewritten plan's source did not recognize the partition it
    /// was handed and the native window kernel answered instead
    /// (`rewrite.derive_native_fallback`).
    native_fallbacks: Counter,
    /// Per base table (lower-cased): its `generation()` when it last held
    /// exactly the dense sequence its simple views are computed from.
    dense_at: Arc<RwLock<HashMap<String, u64>>>,
}

impl ViewRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// The current registry generation (see the field docs).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The `rewrite.derive_native_fallback` counter (see the field docs).
    pub fn native_fallbacks(&self) -> &Counter {
        &self.native_fallbacks
    }

    /// Record O(1) evidence that `base_table` is a dense non-null sequence
    /// in step with its simple views: it was at `generation` when a
    /// materialization read it whole, or when a maintained write left it.
    pub fn record_dense(&self, base_table: &str, generation: u64) {
        let key = base_table.to_ascii_lowercase();
        self.dense_at.write().insert(key, generation);
    }

    /// Whether `base_table`, now at `generation` with `rows` rows, is still
    /// as last [recorded](Self::record_dense): nobody but the maintained
    /// write path touched it since, so it is still dense and its simple
    /// views (all of length `rows`) are current.
    pub fn is_dense(&self, base_table: &str, generation: u64, rows: usize) -> bool {
        let key = base_table.to_ascii_lowercase();
        let views = self.views.read();
        let mut simple = (views.iter())
            .filter(|v| v.base_table.eq_ignore_ascii_case(base_table) && !v.is_partitioned());
        self.dense_at.read().get(&key) == Some(&generation) && simple.all(|v| v.n() == rows as i64)
    }

    /// Whether `view` may join the registry: a new name, and partition
    /// metadata that matches its data.
    fn admits(&self, view: &SequenceView) -> Result<()> {
        if self.get(&view.name).is_some() {
            return Err(RfvError::catalog(format!(
                "sequence view `{}` already registered",
                view.name
            )));
        }
        if view.is_partitioned() == view.partition_columns.is_empty()
            || view.partition_columns.len() != view.partition_types.len()
        {
            return Err(RfvError::internal(
                "partitioned view data requires matching partition columns/types",
            ));
        }
        Ok(())
    }

    /// Register a view, creating and filling its mirror table in `catalog`
    /// (with a unique position index for simple views).
    pub fn register(&self, catalog: &Catalog, view: SequenceView) -> Result<()> {
        self.admits(&view)?;
        let table = catalog.create_table(&view.name, view.mirror_schema())?;
        {
            let mut guard = table.write();
            view.fill_mirror(&mut guard)?;
            if !view.is_partitioned() {
                guard.create_index(0, IndexKind::Unique)?;
            }
        }
        self.restore(view)
    }

    /// Re-attach a view whose mirror table already exists in the catalog —
    /// the snapshot-recovery path, where table images (mirrors included)
    /// are restored wholesale and only the in-memory sequence metadata is
    /// missing. Performs the same consistency checks as [`register`]
    /// (`Self::register`) but never touches the catalog.
    pub fn restore(&self, view: SequenceView) -> Result<()> {
        self.admits(&view)?;
        self.views.write().push(Arc::new(view));
        self.generation.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// All views over `base_table`.
    pub fn views_for(&self, base_table: &str) -> Vec<Arc<SequenceView>> {
        self.views
            .read()
            .iter()
            .filter(|v| v.base_table.eq_ignore_ascii_case(base_table))
            .cloned()
            .collect()
    }

    /// Look a view up by name.
    pub fn get(&self, name: &str) -> Option<Arc<SequenceView>> {
        self.views
            .read()
            .iter()
            .find(|v| v.name.eq_ignore_ascii_case(name))
            .cloned()
    }

    /// Names of all registered views.
    pub fn names(&self) -> Vec<String> {
        self.views.read().iter().map(|v| v.name.clone()).collect()
    }

    /// Drop a view (metadata + mirror table).
    pub fn drop(&self, catalog: &Catalog, name: &str) -> Result<()> {
        let mut views = self.views.write();
        let before = views.len();
        views.retain(|v| !v.name.eq_ignore_ascii_case(name));
        if views.len() == before {
            return Err(RfvError::catalog(format!(
                "sequence view `{name}` not found"
            )));
        }
        self.generation.fetch_add(1, Ordering::AcqRel);
        catalog.drop_table(name)
    }

    /// §2.3 maintenance of simple view `name`: `edit` changes the sequence
    /// in place and returns the stored-position intervals it changed, which
    /// are then written through to the mirror. Returns the mirror rows
    /// written and whether the mirror had to be healed (see the module
    /// docs) — or `None`, with nothing changed, when there is no such simple
    /// view (dropped since the caller looked) or its mirror is gone.
    pub fn patch(
        &self,
        catalog: &Catalog,
        name: &str,
        edit: impl FnOnce(&mut ViewData) -> Vec<(i64, i64)>,
    ) -> Option<(u64, bool)> {
        let mut views = self.views.write();
        let slot = views
            .iter_mut()
            .find(|v| v.name.eq_ignore_ascii_case(name))?;
        let (_, old_last) = slot.data.simple().ok()?.extent();
        let table = catalog.table(name).ok()?;
        let view = Arc::make_mut(slot);
        let intervals = edit(&mut view.data);
        // As in `refresh`: bumped before the views write lock is released.
        self.generation.fetch_add(1, Ordering::AcqRel);
        let mut guard = table.write();
        let synced = sync_mirror(&mut guard, view.data.simple().ok()?, old_last, &intervals);
        Some(match synced {
            Some(written) => (written, false),
            None => {
                guard.truncate();
                // Cannot fail on an empty table of the mirror's own schema.
                let _ = view.fill_mirror(&mut guard);
                (guard.stats().row_count as u64, true)
            }
        })
    }

    /// Replace the data of view `name` with a rematerialized body and
    /// refill the mirror table.
    pub fn refresh(&self, catalog: &Catalog, name: &str, data: ViewData) -> Result<()> {
        let mut views = self.views.write();
        let view = views
            .iter_mut()
            .find(|v| v.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| RfvError::catalog(format!("sequence view `{name}` not found")))?;
        Arc::make_mut(view).data = data;
        // Bump before releasing the views write lock: a plan cached
        // against the old data must be unreachable the moment the new
        // data is visible.
        self.generation.fetch_add(1, Ordering::AcqRel);
        let table = catalog.table(name)?;
        let mut guard = table.write();
        guard.truncate();
        view.fill_mirror(&mut guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_view(name: &str, raw: &[f64], l: i64, h: i64) -> SequenceView {
        SequenceView {
            name: name.into(),
            base_table: "seq".into(),
            pos_column: "pos".into(),
            val_column: "val".into(),
            partition_columns: vec![],
            partition_types: vec![],
            func: AggFunc::Sum,
            window: WindowSpec::sliding(l, h).unwrap(),
            data: ViewData::Sum(CompleteSequence::materialize(raw, l, h).unwrap()),
        }
    }

    fn partitioned_view(name: &str) -> SequenceView {
        let mut parts = BTreeMap::new();
        parts.insert(
            vec![Value::str("a")],
            CompleteSequence::materialize(&[1.0, 2.0], 1, 1).unwrap(),
        );
        parts.insert(
            vec![Value::str("b")],
            CompleteSequence::materialize(&[10.0, 20.0, 30.0], 1, 1).unwrap(),
        );
        SequenceView {
            name: name.into(),
            base_table: "seq".into(),
            pos_column: "pos".into(),
            val_column: "val".into(),
            partition_columns: vec!["grp".into()],
            partition_types: vec![DataType::Str],
            func: AggFunc::Sum,
            window: WindowSpec::sliding(1, 1).unwrap(),
            data: ViewData::PartitionedSum(parts),
        }
    }

    #[test]
    fn register_creates_mirror_table() {
        let catalog = Catalog::new();
        let reg = ViewRegistry::new();
        reg.register(&catalog, sum_view("mv", &[1.0, 2.0, 3.0], 1, 1))
            .unwrap();
        let t = catalog.table("mv").unwrap();
        // Positions 0..=4 → 5 rows.
        assert_eq!(t.read().stats().row_count, 5);
        assert_eq!(
            reg.views_for("SEQ").len(),
            1,
            "case-insensitive base lookup"
        );
        assert!(reg.get("MV").is_some());
    }

    #[test]
    fn duplicate_names_rejected() {
        let catalog = Catalog::new();
        let reg = ViewRegistry::new();
        reg.register(&catalog, sum_view("mv", &[1.0], 1, 1))
            .unwrap();
        assert!(reg
            .register(&catalog, sum_view("mv", &[1.0], 1, 1))
            .is_err());
    }

    #[test]
    fn drop_removes_table_and_metadata() {
        let catalog = Catalog::new();
        let reg = ViewRegistry::new();
        reg.register(&catalog, sum_view("mv", &[1.0], 1, 1))
            .unwrap();
        reg.drop(&catalog, "mv").unwrap();
        assert!(reg.get("mv").is_none());
        assert!(!catalog.contains("mv"));
        assert!(reg.drop(&catalog, "mv").is_err());
    }

    #[test]
    fn refresh_rewrites_mirror() {
        let catalog = Catalog::new();
        let reg = ViewRegistry::new();
        reg.register(&catalog, sum_view("mv", &[1.0, 2.0], 0, 0))
            .unwrap();
        let new_seq = CompleteSequence::materialize(&[5.0, 6.0, 7.0], 0, 0).unwrap();
        reg.refresh(&catalog, "mv", ViewData::Sum(new_seq)).unwrap();
        let t = catalog.table("mv").unwrap();
        assert_eq!(t.read().stats().row_count, 3);
        assert_eq!(reg.get("mv").unwrap().n(), 3);
    }

    #[test]
    fn registry_generation_tracks_register_refresh_drop() {
        let catalog = Catalog::new();
        let reg = ViewRegistry::new();
        assert_eq!(reg.generation(), 0);
        reg.register(&catalog, sum_view("mv", &[1.0, 2.0], 0, 0))
            .unwrap();
        assert_eq!(reg.generation(), 1);
        // Failed register (duplicate name) doesn't bump.
        assert!(reg
            .register(&catalog, sum_view("mv", &[1.0], 0, 0))
            .is_err());
        assert_eq!(reg.generation(), 1);
        let new_seq = CompleteSequence::materialize(&[5.0], 0, 0).unwrap();
        reg.refresh(&catalog, "mv", ViewData::Sum(new_seq)).unwrap();
        assert_eq!(reg.generation(), 2);
        assert!(reg
            .refresh(&catalog, "nope", sum_view("x", &[1.0], 0, 0).data)
            .is_err());
        assert_eq!(reg.generation(), 2);
        reg.drop(&catalog, "mv").unwrap();
        assert_eq!(reg.generation(), 3);
        // Reads don't bump; clones share the counter.
        let _ = reg.names();
        assert_eq!(reg.clone().generation(), 3);
    }

    #[test]
    fn minmax_views_store_nulls_for_empty_windows() {
        let catalog = Catalog::new();
        let reg = ViewRegistry::new();
        let seq = CompleteMinMaxSequence::materialize(&[2.0, 9.0], 1, 2, true).unwrap();
        let view = SequenceView {
            name: "mx".into(),
            base_table: "seq".into(),
            pos_column: "pos".into(),
            val_column: "val".into(),
            partition_columns: vec![],
            partition_types: vec![],
            func: AggFunc::Max,
            window: WindowSpec::sliding(1, 2).unwrap(),
            data: ViewData::MinMax(seq),
        };
        reg.register(&catalog, view).unwrap();
        let t = catalog.table("mx").unwrap();
        // Position −1's window [−2, 1] clips to [1,1] → 2.0; all stored.
        assert_eq!(t.read().stats().row_count, 5);
    }

    #[test]
    fn partitioned_view_mirror_has_three_columns() {
        let catalog = Catalog::new();
        let reg = ViewRegistry::new();
        let view = partitioned_view("pv");
        reg.register(&catalog, view).unwrap();
        let t = catalog.table("pv").unwrap();
        let guard = t.read();
        assert_eq!(guard.schema().len(), 3);
        // Partition 'a': positions 0..=3 (4 rows); 'b': 0..=4 (5 rows).
        assert_eq!(guard.stats().row_count, 9);
        let v = reg.get("pv").unwrap();
        assert!(v.is_partitioned());
        assert_eq!(v.n(), 5, "total body length across partitions");
    }

    #[test]
    fn partition_metadata_consistency_enforced() {
        let catalog = Catalog::new();
        let reg = ViewRegistry::new();
        let mut bad = partitioned_view("bad");
        bad.partition_columns = vec![];
        bad.partition_types = vec![];
        assert!(reg.register(&catalog, bad).is_err());
    }
}
