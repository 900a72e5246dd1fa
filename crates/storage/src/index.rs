//! Ordered (B-tree) index over one column.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;

use rfv_types::{Result, RfvError, Value};

use crate::table::RowId;

/// Whether an index enforces key uniqueness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Primary-key style index: at most one row per key.
    Unique,
    /// Secondary index: any number of rows per key.
    NonUnique,
}

/// An ordered index mapping column values to row ids.
///
/// Backed by `std::collections::BTreeMap`, giving `O(log n)` point lookups
/// and `O(log n + k)` range scans — the same asymptotics the paper's
/// "with primary key index" configurations rely on. NULL keys are stored
/// (they sort first per [`Value::total_cmp`]) but equality lookups for NULL
/// return nothing, matching SQL `NULL = NULL` being unknown.
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    column: usize,
    kind: IndexKind,
    entries: BTreeMap<Value, Vec<RowId>>,
}

impl OrderedIndex {
    pub fn new(column: usize, kind: IndexKind) -> Self {
        OrderedIndex {
            column,
            kind,
            entries: BTreeMap::new(),
        }
    }

    /// Which column of the owning table this index covers.
    pub fn column(&self) -> usize {
        self.column
    }

    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.entries.len()
    }

    /// Pre-flight check used by `Table` so multi-index inserts are atomic.
    pub fn check_insertable(&self, key: &Value) -> Result<()> {
        if self.kind == IndexKind::Unique
            && !key.is_null()
            && self.entries.get(key).is_some_and(|v| !v.is_empty())
        {
            return Err(RfvError::execution(format!(
                "duplicate key {key} in unique index on column {}",
                self.column
            )));
        }
        Ok(())
    }

    /// Insert a `(key, rid)` pair.
    pub fn insert(&mut self, key: Value, rid: RowId) -> Result<()> {
        self.check_insertable(&key)?;
        self.entries.entry(key).or_default().push(rid);
        Ok(())
    }

    /// Remove a `(key, rid)` pair if present.
    pub fn remove(&mut self, key: &Value, rid: RowId) {
        if let Some(rids) = self.entries.get_mut(key) {
            rids.retain(|&r| r != rid);
            if rids.is_empty() {
                self.entries.remove(key);
            }
        }
    }

    /// Row ids with column equal to `key`. NULL finds nothing.
    pub fn lookup(&self, key: &Value) -> Vec<RowId> {
        if key.is_null() {
            return Vec::new();
        }
        self.entries.get(key).cloned().unwrap_or_default()
    }

    /// Row ids with key between `lo` and `hi`, in ascending key order.
    /// SQL range predicates are unknown for NULL: NULL keys are never
    /// returned, and a NULL bound matches nothing. `±0.0` are one SQL value
    /// but two keys of the total order, so a bound at zero covers (or
    /// excludes) both. An inverted or doubly-excluded empty range is empty.
    pub fn range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        static NULL: Value = Value::Null;
        static NEG_ZERO: Value = Value::Float(-0.0);
        static POS_ZERO: Value = Value::Float(0.0);
        let is_null =
            |b: Bound<&Value>| matches!(b, Bound::Included(v) | Bound::Excluded(v) if v.is_null());
        if is_null(lo) || is_null(hi) {
            return Vec::new();
        }
        let is_zero = |v: &Value| *v == POS_ZERO || *v == NEG_ZERO;
        let lo = match lo {
            Bound::Included(v) if is_zero(v) => Bound::Included(&NEG_ZERO),
            Bound::Excluded(v) if is_zero(v) => Bound::Excluded(&POS_ZERO),
            // NULLs sort before every non-null value.
            Bound::Unbounded => Bound::Excluded(&NULL),
            other => other,
        };
        let hi = match hi {
            Bound::Included(v) if is_zero(v) => Bound::Included(&POS_ZERO),
            Bound::Excluded(v) if is_zero(v) => Bound::Excluded(&NEG_ZERO),
            other => other,
        };
        // `BTreeMap::range` panics on these instead of returning nothing.
        if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) =
            (lo, hi)
        {
            let closed = matches!((lo, hi), (Bound::Included(_), Bound::Included(_)));
            match a.total_cmp(b) {
                Ordering::Greater => return Vec::new(),
                Ordering::Equal if !closed => return Vec::new(),
                _ => {}
            }
        }
        self.entries
            .range::<Value, _>((lo, hi))
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect()
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Bound::{Excluded, Included, Unbounded};

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn lookup_finds_all_rids_for_key() {
        let mut ix = OrderedIndex::new(0, IndexKind::NonUnique);
        ix.insert(v(1), 10).unwrap();
        ix.insert(v(1), 11).unwrap();
        ix.insert(v(2), 12).unwrap();
        assert_eq!(ix.lookup(&v(1)), vec![10, 11]);
        assert_eq!(ix.lookup(&v(3)), Vec::<RowId>::new());
    }

    #[test]
    fn unique_index_rejects_second_key() {
        let mut ix = OrderedIndex::new(0, IndexKind::Unique);
        ix.insert(v(1), 0).unwrap();
        assert!(ix.insert(v(1), 1).is_err());
        // Null keys are exempt from uniqueness (SQL semantics).
        ix.insert(Value::Null, 2).unwrap();
        ix.insert(Value::Null, 3).unwrap();
    }

    #[test]
    fn null_lookup_returns_nothing() {
        let mut ix = OrderedIndex::new(0, IndexKind::NonUnique);
        ix.insert(Value::Null, 0).unwrap();
        assert!(ix.lookup(&Value::Null).is_empty());
    }

    #[test]
    fn range_is_inclusive_and_ordered() {
        let mut ix = OrderedIndex::new(0, IndexKind::NonUnique);
        for (i, k) in [5i64, 1, 3, 9, 7].into_iter().enumerate() {
            ix.insert(v(k), i).unwrap();
        }
        assert_eq!(ix.range(Included(&v(3)), Included(&v(7))), vec![2, 0, 4]);
        assert_eq!(ix.range(Unbounded, Included(&v(1))), vec![1]);
        assert_eq!(ix.range(Included(&v(8)), Unbounded), vec![3]);
        assert!(
            ix.range(Included(&v(7)), Included(&v(3))).is_empty(),
            "empty range"
        );
    }

    #[test]
    fn range_honours_strict_ends_and_never_panics_on_empty_ones() {
        let mut ix = OrderedIndex::new(0, IndexKind::NonUnique);
        for (i, k) in [1i64, 3, 5, 7].into_iter().enumerate() {
            ix.insert(v(k), i).unwrap();
        }
        assert_eq!(ix.range(Excluded(&v(3)), Excluded(&v(7))), vec![2]);
        assert_eq!(ix.range(Excluded(&v(3)), Included(&v(7))), vec![2, 3]);
        // A float bound between two integer keys.
        assert_eq!(ix.range(Excluded(&Value::Float(2.5)), Unbounded).len(), 3);
        // Inverted, and empty because an equal end is excluded.
        assert!(ix.range(Excluded(&v(7)), Excluded(&v(3))).is_empty());
        assert!(ix.range(Excluded(&v(3)), Excluded(&v(3))).is_empty());
        assert!(ix.range(Included(&v(3)), Excluded(&v(3))).is_empty());
        assert_eq!(ix.range(Included(&v(3)), Included(&v(3))), vec![1]);
        // A NULL bound is unknown for every key.
        assert!(ix.range(Included(&Value::Null), Unbounded).is_empty());
        assert!(ix.range(Unbounded, Excluded(&Value::Null)).is_empty());
    }

    #[test]
    fn a_bound_at_zero_treats_both_float_zeros_as_one_value() {
        let mut ix = OrderedIndex::new(0, IndexKind::NonUnique);
        for (i, k) in [-1.0, -0.0, 0.0, 1.0].into_iter().enumerate() {
            ix.insert(Value::Float(k), i).unwrap();
        }
        let zero = Value::Float(0.0);
        assert_eq!(ix.range(Included(&zero), Unbounded), vec![1, 2, 3]);
        assert_eq!(ix.range(Excluded(&v(0)), Unbounded), vec![3]);
        assert_eq!(
            ix.range(Unbounded, Included(&Value::Float(-0.0))),
            vec![0, 1, 2]
        );
        assert_eq!(ix.range(Unbounded, Excluded(&zero)), vec![0]);
        assert_eq!(ix.range(Included(&zero), Included(&zero)), vec![1, 2]);
        assert!(ix.range(Included(&zero), Excluded(&zero)).is_empty());
    }

    #[test]
    fn unbounded_range_skips_nulls() {
        let mut ix = OrderedIndex::new(0, IndexKind::NonUnique);
        ix.insert(Value::Null, 0).unwrap();
        ix.insert(v(1), 1).unwrap();
        assert_eq!(ix.range(Unbounded, Unbounded), vec![1]);
    }

    #[test]
    fn remove_drops_only_that_rid() {
        let mut ix = OrderedIndex::new(0, IndexKind::NonUnique);
        ix.insert(v(1), 10).unwrap();
        ix.insert(v(1), 11).unwrap();
        ix.remove(&v(1), 10);
        assert_eq!(ix.lookup(&v(1)), vec![11]);
        ix.remove(&v(1), 11);
        assert_eq!(ix.key_count(), 0);
    }
}
