//! Scan operators.

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use rfv_expr::Expr;
use rfv_storage::TableRef;
use rfv_types::{Gov, Result, RfvError, Row, Value};

use crate::mem::row_bytes;
use crate::sched::{self, ParStats};

/// Full table scan in slot order, through the morsel driver: runs of
/// slots are read under a read guard each and concatenate in slot order.
/// With a `predicate` the scan is also the filter: each stored row is
/// tested borrowed, under the guard, and only the rows it keeps (TRUE;
/// NULL/unknown drops the row) are cloned and charged to `gov`. Returns
/// those rows and the number of rows read. An unsplit scan is one read of
/// the table at one instant; like every read in this engine a split one is
/// not snapshot-isolated against concurrent writers — each morsel sees the
/// table as of its own read lock.
pub fn table_scan(
    table: &TableRef,
    predicate: Option<&Expr>,
    par: &mut ParStats,
    gov: &Gov,
) -> Result<(Vec<Row>, u64)> {
    let slots = table.read().stats().slot_count;
    let read = AtomicU64::new(0);
    let kept = sched::morsels(table, (0, slots), par, gov, |table, (lo, hi), gov| {
        let guard = table.read();
        // The last run reads to the table's end as of its own lock, not
        // as of the count above.
        let hi = if hi == slots { usize::MAX } else { hi };
        let mut out = Vec::new();
        let mut pending = 0u64;
        let mut rows = 0;
        for (i, (_, r)) in guard.scan_range(lo, hi).enumerate() {
            if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
                gov.charge(&mut pending)?;
            }
            rows = i + 1;
            if let Some(p) = predicate {
                if p.eval(r)?.as_bool()? != Some(true) {
                    continue;
                }
            }
            pending += row_bytes(r);
            out.push(r.clone());
        }
        gov.charge(&mut pending)?;
        read.fetch_add(rows as u64, Ordering::Relaxed);
        Ok(out)
    })?;
    Ok((kept, read.into_inner()))
}

/// Ordered range scan through the index on `column`.
pub fn index_range_scan(
    table: &TableRef,
    column: usize,
    lo: Bound<&Value>,
    hi: Bound<&Value>,
    gov: &Gov,
) -> Result<Vec<Row>> {
    let guard = table.read();
    let rids = guard.index_range(column, lo, hi)?;
    let mut out = Vec::with_capacity(rids.len());
    let mut pending = 0u64;
    for (i, rid) in rids.into_iter().enumerate() {
        gov.checkpoint(i)?;
        let row = guard.get(rid).cloned().ok_or_else(|| {
            RfvError::internal(format!(
                "index on column {column} returned dead row id {rid}"
            ))
        })?;
        pending += row_bytes(&row);
        out.push(row);
    }
    gov.charge(&mut pending)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_storage::{Catalog, IndexKind};
    use rfv_types::{row, DataType, Field, Schema};

    fn setup() -> TableRef {
        let cat = Catalog::new();
        let t = cat
            .create_table(
                "seq",
                Schema::new(vec![
                    Field::not_null("pos", DataType::Int),
                    Field::new("val", DataType::Float),
                ]),
            )
            .unwrap();
        {
            let mut g = t.write();
            for i in [3i64, 1, 2] {
                g.insert(row![i, (i * 10) as f64]).unwrap();
            }
            g.create_index(0, IndexKind::Unique).unwrap();
        }
        t
    }

    #[test]
    fn table_scan_returns_all_rows() {
        let t = setup();
        assert_eq!(
            table_scan(&t, None, &mut ParStats::default(), &Gov::none()).unwrap(),
            (
                vec![row![3i64, 30.0], row![1i64, 10.0], row![2i64, 20.0]],
                3
            )
        );
    }

    #[test]
    fn index_range_scan_is_ordered_and_bounded() {
        let t = setup();
        let rows = index_range_scan(
            &t,
            0,
            Bound::Included(&Value::Int(1)),
            Bound::Excluded(&Value::Int(3)),
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), &Value::Int(1));
        assert_eq!(rows[1].get(0), &Value::Int(2));
        // One-sided and unbounded scans come out in key order too.
        let tail = index_range_scan(
            &t,
            0,
            Bound::Excluded(&Value::Int(1)),
            Bound::Unbounded,
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].get(0), &Value::Int(2));
    }

    #[test]
    fn index_range_scan_without_index_errors() {
        let t = setup();
        assert!(index_range_scan(&t, 1, Bound::Unbounded, Bound::Unbounded, &Gov::none()).is_err());
    }

    #[test]
    fn cancelled_token_aborts_a_scan() {
        use rfv_types::CancelToken;
        use std::sync::Arc;
        let t = setup();
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let gov = Gov::new(Some(token));
        assert!(matches!(
            table_scan(&t, None, &mut ParStats::default(), &gov),
            Err(RfvError::Cancelled(_))
        ));
    }

    #[test]
    fn scans_account_materialized_bytes() {
        use rfv_types::CancelToken;
        use std::sync::Arc;
        let t = setup();
        let token = Arc::new(CancelToken::new());
        let gov = Gov::new(Some(token.clone()));
        table_scan(&t, None, &mut ParStats::default(), &gov).unwrap();
        assert!(token.mem_used() > 0, "scan must charge its clones");
    }

    #[test]
    fn a_filtered_scan_charges_only_its_survivors() {
        use rfv_types::CancelToken;
        use std::sync::Arc;
        let t = setup();
        let token = Arc::new(CancelToken::new());
        let gov = Gov::new(Some(token.clone()));
        let keep = Expr::col(0).eq(Expr::lit(2i64));
        let (rows, read) = table_scan(&t, Some(&keep), &mut ParStats::default(), &gov).unwrap();
        assert_eq!((rows, read), (vec![row![2i64, 20.0]], 3));
        assert_eq!(token.mem_used(), row_bytes(&row![2i64, 20.0]));
        // A predicate that keeps nothing reads every row and charges nothing.
        let token = Arc::new(CancelToken::new());
        let gov = Gov::new(Some(token.clone()));
        let none = Expr::col(0).gt(Expr::lit(9i64));
        let (rows, read) = table_scan(&t, Some(&none), &mut ParStats::default(), &gov).unwrap();
        assert_eq!((rows.len(), read), (0, 3));
        assert_eq!(token.mem_used(), 0);
    }
}
