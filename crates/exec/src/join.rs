//! Join operators: nested loop, index nested loop, hash.

use std::collections::HashMap;
use std::ops::Bound;

use rfv_expr::Expr;
use rfv_storage::TableRef;
use rfv_types::{Gov, Result, RfvError, Row, Value};

use crate::mem::{row_bytes, values_bytes};
use crate::physical::JoinType;

/// Tuple-at-a-time nested loop join. `on` is evaluated over `left ++ right`;
/// `None` means a cross join. `right_width` is the arity of the right input
/// (needed to pad NULLs for outer joins).
pub fn nested_loop_join(
    left: Vec<Row>,
    right: Vec<Row>,
    on: Option<&Expr>,
    join_type: JoinType,
    right_width: usize,
    gov: &Gov,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    let left_width = left.first().map(|r| r.len()).unwrap_or(0);
    // Reusable probe buffer: the predicate is evaluated on `left ++ right`
    // for every pair, so avoid one allocation per pair and materialize the
    // output row only on a match.
    let mut buf = Row::new(vec![Value::Null; left_width + right_width]);
    // The pair space (|L| × |R|) dominates the runtime, so the
    // cancellation checkpoint counts probed pairs, not left rows.
    let mut pairs = 0usize;
    let mut pending = 0u64;
    for l in &left {
        for (i, v) in l.values().iter().enumerate() {
            buf.set(i, v.clone());
        }
        let mut matched = false;
        for r in &right {
            gov.checkpoint(pairs)?;
            pairs = pairs.wrapping_add(1);
            for (i, v) in r.values().iter().enumerate() {
                buf.set(left_width + i, v.clone());
            }
            let keep = match on {
                None => true,
                Some(p) => p.eval(&buf)?.as_bool()? == Some(true),
            };
            if keep {
                matched = true;
                pending += row_bytes(&buf);
                out.push(buf.clone());
            }
        }
        gov.charge(&mut pending)?;
        if !matched && join_type == JoinType::LeftOuter {
            out.push(l.concat_nulls(right_width));
        }
    }
    Ok(out)
}

/// Index nested loop join against a stored table.
///
/// For each left row, the `lo`/`hi` bound expressions are evaluated over the
/// left row to produce a key range (each end inclusive, exclusive or open);
/// the right table's index on `right_column` feeds matching rows in key
/// order, and `residual` (over `left ++ right`) filters them. A NULL bound
/// means the range is unknown → no matches (SQL comparison semantics).
#[allow(clippy::too_many_arguments)]
pub fn index_nested_loop_join(
    left: Vec<Row>,
    right_table: &TableRef,
    right_column: usize,
    lo: &Bound<Expr>,
    hi: &Bound<Expr>,
    residual: Option<&Expr>,
    join_type: JoinType,
    right_width: usize,
    gov: &Gov,
) -> Result<Vec<Row>> {
    let guard = right_table.read();
    let mut out = Vec::new();
    let mut probes = 0usize;
    let mut pending = 0u64;
    for l in &left {
        gov.checkpoint(probes)?;
        probes = probes.wrapping_add(1);
        let eval = |end: &Bound<Expr>| -> Result<Bound<Value>> {
            Ok(match end {
                Bound::Included(e) => Bound::Included(e.eval(l)?),
                Bound::Excluded(e) => Bound::Excluded(e.eval(l)?),
                Bound::Unbounded => Bound::Unbounded,
            })
        };
        let (lo, hi) = (eval(lo)?, eval(hi)?);
        let mut matched = false;
        for rid in guard.index_range(right_column, lo.as_ref(), hi.as_ref())? {
            gov.checkpoint(probes)?;
            probes = probes.wrapping_add(1);
            let r = guard.get(rid).ok_or_else(|| {
                RfvError::internal(format!("join index returned stale row id {rid}"))
            })?;
            let combined = l.concat(r);
            let keep = match residual {
                None => true,
                Some(p) => p.eval(&combined)?.as_bool()? == Some(true),
            };
            if keep {
                matched = true;
                pending += row_bytes(&combined);
                out.push(combined);
            }
        }
        gov.charge(&mut pending)?;
        if !matched && join_type == JoinType::LeftOuter {
            out.push(l.concat_nulls(right_width));
        }
    }
    Ok(out)
}

/// Hash join on equi-keys; keys containing NULL never match. `residual`
/// is evaluated over `left ++ right` after the key match.
#[allow(clippy::too_many_arguments)]
pub fn hash_join(
    left: Vec<Row>,
    right: Vec<Row>,
    left_keys: &[Expr],
    right_keys: &[Expr],
    residual: Option<&Expr>,
    join_type: JoinType,
    right_width: usize,
    gov: &Gov,
) -> Result<Vec<Row>> {
    debug_assert_eq!(left_keys.len(), right_keys.len());
    // Build side: right. The key table is the join's resident memory;
    // charge each key as it is built.
    let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
    let mut pending = 0u64;
    'rows: for (i, r) in right.iter().enumerate() {
        if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
            gov.charge(&mut pending)?;
        }
        let mut key = Vec::with_capacity(right_keys.len());
        for e in right_keys {
            let v = e.eval(r)?;
            if v.is_null() {
                continue 'rows;
            }
            key.push(v);
        }
        pending += 24 + values_bytes(&key);
        table.entry(key).or_default().push(r);
    }
    gov.charge(&mut pending)?;
    let mut out = Vec::new();
    for (i, l) in left.iter().enumerate() {
        if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
            gov.charge(&mut pending)?;
        }
        let mut matched = false;
        let mut key = Some(Vec::with_capacity(left_keys.len()));
        for e in left_keys {
            let v = e.eval(l)?;
            if v.is_null() {
                key = None;
                break;
            }
            if let Some(k) = key.as_mut() {
                k.push(v);
            }
        }
        if let Some(key) = key {
            if let Some(candidates) = table.get(&key) {
                for r in candidates {
                    let combined = l.concat(r);
                    let keep = match residual {
                        None => true,
                        Some(p) => p.eval(&combined)?.as_bool()? == Some(true),
                    };
                    if keep {
                        matched = true;
                        pending += row_bytes(&combined);
                        out.push(combined);
                    }
                }
            }
        }
        if !matched && join_type == JoinType::LeftOuter {
            out.push(l.concat_nulls(right_width));
        }
    }
    gov.charge(&mut pending)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_storage::{Catalog, IndexKind};
    use rfv_types::{row, DataType, Field, Schema};

    fn rows_lr() -> (Vec<Row>, Vec<Row>) {
        (
            vec![row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]],
            vec![row![2i64, 20.0], row![3i64, 30.0], row![3i64, 33.0]],
        )
    }

    #[test]
    fn nlj_inner() {
        let (l, r) = rows_lr();
        let on = Expr::col(0).eq(Expr::col(2));
        let out = nested_loop_join(l, r, Some(&on), JoinType::Inner, 2, &Gov::none()).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], row![2i64, "b", 2i64, 20.0]);
    }

    #[test]
    fn nlj_left_outer_pads_nulls() {
        let (l, r) = rows_lr();
        let on = Expr::col(0).eq(Expr::col(2));
        let out = nested_loop_join(l, r, Some(&on), JoinType::LeftOuter, 2, &Gov::none()).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].get(0), &Value::Int(1));
        assert!(out[0].get(2).is_null() && out[0].get(3).is_null());
    }

    #[test]
    fn nlj_cross() {
        let (l, r) = rows_lr();
        let out = nested_loop_join(l, r, None, JoinType::Inner, 2, &Gov::none()).unwrap();
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn hash_join_matches_nlj() {
        let (l, r) = rows_lr();
        let on = Expr::col(0).eq(Expr::col(2));
        let nlj = nested_loop_join(
            l.clone(),
            r.clone(),
            Some(&on),
            JoinType::Inner,
            2,
            &Gov::none(),
        )
        .unwrap();
        let hj = hash_join(
            l,
            r,
            &[Expr::col(0)],
            &[Expr::col(0)],
            None,
            JoinType::Inner,
            2,
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(nlj.len(), hj.len());
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let l = vec![Row::new(vec![Value::Null])];
        let r = vec![Row::new(vec![Value::Null])];
        let out = hash_join(
            l.clone(),
            r.clone(),
            &[Expr::col(0)],
            &[Expr::col(0)],
            None,
            JoinType::Inner,
            1,
            &Gov::none(),
        )
        .unwrap();
        assert!(out.is_empty());
        let outer = hash_join(
            l,
            r,
            &[Expr::col(0)],
            &[Expr::col(0)],
            None,
            JoinType::LeftOuter,
            1,
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(outer.len(), 1, "outer join keeps the left row");
    }

    #[test]
    fn hash_join_residual() {
        let (l, r) = rows_lr();
        let residual = Expr::col(3).gt(Expr::lit(30.0f64));
        let out = hash_join(
            l,
            r,
            &[Expr::col(0)],
            &[Expr::col(0)],
            Some(&residual),
            JoinType::Inner,
            2,
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(3), &Value::Float(33.0));
    }

    #[test]
    fn index_nlj_range_probe() {
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
            for i in 1..=10i64 {
                g.insert(row![i, i as f64]).unwrap();
            }
            g.create_index(0, IndexKind::Unique).unwrap();
        }
        // Window-style probe: for each left pos, right pos in [pos-1, pos+1].
        let left: Vec<Row> = (1..=10i64).map(|i| row![i]).collect();
        let out = index_nested_loop_join(
            left,
            &t,
            0,
            &Bound::Included(Expr::col(0).sub(Expr::lit(1i64))),
            &Bound::Included(Expr::col(0).add(Expr::lit(1i64))),
            None,
            JoinType::Inner,
            2,
            &Gov::none(),
        )
        .unwrap();
        // Interior rows match 3 right rows, the two edge rows match 2.
        assert_eq!(out.len(), 8 * 3 + 2 * 2);
        // For left pos=1 the matches are pos 1 and 2 in index order.
        assert_eq!(out[0], row![1i64, 1i64, 1.0]);
        assert_eq!(out[1], row![1i64, 2i64, 2.0]);
    }

    #[test]
    fn index_nlj_null_bound_yields_no_match_but_outer_keeps_row() {
        let cat = Catalog::new();
        let t = cat
            .create_table("x", Schema::new(vec![Field::not_null("k", DataType::Int)]))
            .unwrap();
        {
            let mut g = t.write();
            g.insert(row![1i64]).unwrap();
            g.create_index(0, IndexKind::Unique).unwrap();
        }
        let left = vec![Row::new(vec![Value::Null])];
        let out = index_nested_loop_join(
            left,
            &t,
            0,
            &Bound::Included(Expr::col(0)),
            &Bound::Included(Expr::col(0)),
            None,
            JoinType::LeftOuter,
            1,
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].get(1).is_null());
    }
}
