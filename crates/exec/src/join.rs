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
/// is evaluated over `left ++ right` after the key match. The build side
/// (right) is one index: key → its first and last row, with `next`
/// chaining each row to the next one with its key, so a key's matches come
/// out in build order. Keys are evaluated into one buffer reused across
/// rows, and only a key new to the index is copied into it; a single-key
/// join keeps bare values, so it allocates per distinct key at most.
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
    if right.len() >= END as usize {
        return Err(RfvError::execution(format!(
            "hash join build side of {} rows exceeds {END} rows",
            right.len()
        )));
    }
    // Build side: right. The index and its chains are the join's resident
    // memory; charge them as they are built.
    let mut index = BuildIndex::new(right_keys.len());
    let mut next = vec![END; right.len()];
    let mut pending = 4 * right.len() as u64;
    let mut key = Vec::with_capacity(right_keys.len());
    for (i, r) in right.iter().enumerate() {
        if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
            gov.charge(&mut pending)?;
        }
        if !eval_key(right_keys, r, &mut key)? {
            continue;
        }
        let row = i as u32;
        match index.ends_mut(&key) {
            Some((_, last)) => {
                next[*last as usize] = row;
                *last = row;
            }
            None => {
                pending += 24 + values_bytes(&key);
                index.insert(&key, row);
            }
        }
    }
    gov.charge(&mut pending)?;
    let mut out = Vec::new();
    for (i, l) in left.iter().enumerate() {
        if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
            gov.charge(&mut pending)?;
        }
        let mut matched = false;
        let mut at = if eval_key(left_keys, l, &mut key)? {
            index.first(&key)
        } else {
            END
        };
        while at != END {
            let combined = l.concat(&right[at as usize]);
            at = next[at as usize];
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
        if !matched && join_type == JoinType::LeftOuter {
            out.push(l.concat_nulls(right_width));
        }
    }
    gov.charge(&mut pending)?;
    Ok(out)
}

/// End of a build-row chain (and the bound on build rows).
const END: u32 = u32::MAX;

/// Evaluate `exprs` over `row` into `key`, replacing what it held; `false`
/// when a value is NULL, which no key matches.
fn eval_key(exprs: &[Expr], row: &Row, key: &mut Vec<Value>) -> Result<bool> {
    key.clear();
    for e in exprs {
        let v = e.eval(row)?;
        if v.is_null() {
            return Ok(false);
        }
        key.push(v);
    }
    Ok(true)
}

/// A hash join's build-side index: each key's first and last build row.
/// One key is stored as a bare value, several as a vector.
enum BuildIndex {
    One(HashMap<Value, (u32, u32)>),
    Many(HashMap<Vec<Value>, (u32, u32)>),
}

impl BuildIndex {
    fn new(keys: usize) -> Self {
        match keys {
            1 => BuildIndex::One(HashMap::new()),
            _ => BuildIndex::Many(HashMap::new()),
        }
    }

    fn ends_mut(&mut self, key: &[Value]) -> Option<&mut (u32, u32)> {
        match self {
            BuildIndex::One(map) => map.get_mut(&key[0]),
            BuildIndex::Many(map) => map.get_mut(key),
        }
    }

    /// Index `key`, which must be new, at build row `row`.
    fn insert(&mut self, key: &[Value], row: u32) {
        match self {
            BuildIndex::One(map) => map.insert(key[0].clone(), (row, row)),
            BuildIndex::Many(map) => map.insert(key.to_vec(), (row, row)),
        };
    }

    /// The first build row with `key`, or [`END`].
    fn first(&self, key: &[Value]) -> u32 {
        let ends = match self {
            BuildIndex::One(map) => map.get(&key[0]),
            BuildIndex::Many(map) => map.get(key),
        };
        ends.map_or(END, |&(first, _)| first)
    }
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

    /// The right column of each output row, as integers.
    fn tags(out: &[Row], col: usize) -> Vec<i64> {
        (out.iter())
            .map(|r| match r.get(col) {
                Value::Int(i) => *i,
                v => panic!("not an integer: {v}"),
            })
            .collect()
    }

    #[test]
    fn hash_join_emits_duplicate_build_keys_in_build_order() {
        // One key: three build rows share key 1, interleaved with key 2
        // and a NULL key that matches nothing.
        let right = vec![
            row![1i64, 10i64],
            row![2i64, 20i64],
            row![1i64, 11i64],
            Row::new(vec![Value::Null, Value::Int(99)]),
            row![1i64, 12i64],
            row![2i64, 21i64],
        ];
        let left = vec![row![2i64], row![1i64], row![3i64]];
        let on = [Expr::col(0)];
        let out = hash_join(
            left,
            right,
            &on,
            &on,
            None,
            JoinType::Inner,
            2,
            &Gov::none(),
        );
        assert_eq!(tags(&out.unwrap(), 2), vec![20, 21, 10, 11, 12]);

        // Two keys: `(1, 1)` has three build rows, `(1, 2)` one between them.
        let right = vec![
            row![1i64, 1i64, 10i64],
            row![1i64, 2i64, 11i64],
            row![1i64, 1i64, 12i64],
            row![2i64, 1i64, 13i64],
            row![1i64, 1i64, 14i64],
        ];
        let left = vec![row![1i64, 1i64], row![1i64, 2i64], row![2i64, 2i64]];
        let on = [Expr::col(0), Expr::col(1)];
        let out = hash_join(
            left,
            right,
            &on,
            &on,
            None,
            JoinType::LeftOuter,
            3,
            &Gov::none(),
        );
        let out = out.unwrap();
        assert_eq!(tags(&out[..4], 4), vec![10, 12, 14, 11]);
        assert_eq!(
            out[4],
            row![2i64, 2i64, Value::Null, Value::Null, Value::Null]
        );
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
