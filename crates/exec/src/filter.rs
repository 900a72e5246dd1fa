//! Row-level operators: filter, project, sort.

use std::cmp::Ordering;
use std::collections::VecDeque;

use rfv_expr::Expr;
use rfv_types::{Gov, Result, Row, Value};

use crate::mem::{row_bytes, values_bytes};
use crate::physical::SortKey;
use crate::sched::{self, ParStats};

/// Keep rows for which `predicate` is TRUE (NULL/unknown drops the row).
/// Surviving rows are moved, not copied, so the governance hook is a
/// cancellation checkpoint only — no memory charge.
pub fn filter(rows: Vec<Row>, predicate: &Expr, gov: &Gov) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    for (i, row) in rows.into_iter().enumerate() {
        gov.checkpoint(i)?;
        if predicate.eval(&row)?.as_bool()? == Some(true) {
            out.push(row);
        }
    }
    Ok(out)
}

/// Evaluate one expression per output column.
pub fn project(rows: Vec<Row>, exprs: &[Expr], gov: &Gov) -> Result<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len());
    let mut pending = 0u64;
    for (i, row) in rows.iter().enumerate() {
        if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
            gov.charge(&mut pending)?;
        }
        // Collecting through `Result` loses the length and over-allocates;
        // a projected row may live on in the result cache, so size it exactly.
        let mut values: Vec<Value> = Vec::with_capacity(exprs.len());
        for e in exprs {
            values.push(e.eval(row)?);
        }
        let projected = Row::new(values);
        pending += row_bytes(&projected);
        out.push(projected);
    }
    gov.charge(&mut pending)?;
    Ok(out)
}

/// Morsel-parallel [`filter`]: contiguous input morsels are filtered
/// independently and concatenated in morsel order — byte-identical to the
/// serial scan order.
pub fn filter_par(
    rows: Vec<Row>,
    predicate: &Expr,
    par: &mut ParStats,
    gov: &Gov,
) -> Result<Vec<Row>> {
    if !sched::should_parallelize(rows.len(), 2) {
        return filter(rows, predicate, gov);
    }
    let chunks = sched::split_morsels(rows);
    if chunks.len() <= 1 {
        return filter(
            chunks.into_iter().next().unwrap_or_default(),
            predicate,
            gov,
        );
    }
    par.record(chunks.len());
    let predicate = predicate.clone();
    let worker_gov = gov.clone();
    let outs = sched::run_ordered_gov(chunks, gov.clone(), move |_, chunk| {
        filter(chunk, &predicate, &worker_gov)
    })?;
    Ok(concat(outs))
}

/// Morsel-parallel [`project`]: per-morsel projection, order-preserving
/// concatenation.
pub fn project_par(
    rows: Vec<Row>,
    exprs: &[Expr],
    par: &mut ParStats,
    gov: &Gov,
) -> Result<Vec<Row>> {
    if !sched::should_parallelize(rows.len(), 2) {
        return project(rows, exprs, gov);
    }
    let chunks = sched::split_morsels(rows);
    if chunks.len() <= 1 {
        return project(chunks.into_iter().next().unwrap_or_default(), exprs, gov);
    }
    par.record(chunks.len());
    let exprs = exprs.to_vec();
    let worker_gov = gov.clone();
    let outs = sched::run_ordered_gov(chunks, gov.clone(), move |_, chunk| {
        project(chunk, &exprs, &worker_gov)
    })?;
    Ok(concat(outs))
}

fn concat(chunks: Vec<Vec<Row>>) -> Vec<Row> {
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Evaluate the sort keys for a row.
fn key_values(row: &Row, keys: &[SortKey]) -> Result<Vec<Value>> {
    keys.iter().map(|k| k.expr.eval(row)).collect()
}

/// Compare two key vectors under the per-key direction flags.
pub(crate) fn compare_keys(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    for ((av, bv), key) in a.iter().zip(b).zip(keys) {
        let ord = av.total_cmp(bv);
        let ord = if key.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Stable sort by the given keys. The key decoration is the materialized
/// state, charged against the budget; the `sort_by` itself is in-place.
pub fn sort(rows: Vec<Row>, keys: &[SortKey], gov: &Gov) -> Result<Vec<Row>> {
    let mut pending = 0u64;
    let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for (i, r) in rows.into_iter().enumerate() {
        if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
            gov.charge(&mut pending)?;
        }
        let k = key_values(&r, keys)?;
        pending += values_bytes(&k);
        decorated.push((k, r));
    }
    gov.charge(&mut pending)?;
    decorated.sort_by(|(a, _), (b, _)| compare_keys(a, b, keys));
    Ok(decorated.into_iter().map(|(_, r)| r).collect())
}

/// Parallel sort: each contiguous input morsel is key-decorated and
/// stably sorted on the pool, then the sorted runs are k-way merged with
/// ties broken by morsel index. Morsels are contiguous input ranges in
/// order, so (morsel index, within-morsel position) reproduces the input
/// order on ties — the merged output is byte-identical to the serial
/// stable [`sort`].
pub fn sort_par(
    rows: Vec<Row>,
    keys: &[SortKey],
    par: &mut ParStats,
    gov: &Gov,
) -> Result<Vec<Row>> {
    if !sched::should_parallelize(rows.len(), 2) {
        return sort(rows, keys, gov);
    }
    let n = rows.len();
    let chunks = sched::split_morsels(rows);
    if chunks.len() <= 1 {
        return sort(chunks.into_iter().next().unwrap_or_default(), keys, gov);
    }
    par.record(chunks.len());
    let keys_owned: Vec<SortKey> = keys.to_vec();
    let worker_gov = gov.clone();
    let mut runs: Vec<VecDeque<(Vec<Value>, Row)>> =
        sched::run_ordered_gov(chunks, gov.clone(), move |_, chunk: Vec<Row>| {
            let mut pending = 0u64;
            let mut decorated: Vec<(Vec<Value>, Row)> = Vec::with_capacity(chunk.len());
            for r in chunk {
                let k = key_values(&r, &keys_owned)?;
                pending += values_bytes(&k);
                decorated.push((k, r));
            }
            worker_gov.charge(&mut pending)?;
            decorated.sort_by(|(a, _), (b, _)| compare_keys(a, b, &keys_owned));
            Ok(decorated.into_iter().collect::<VecDeque<_>>())
        })?;

    // K-way merge: linear scan over run heads (k is small — a few runs
    // per thread). Ties select the lowest run index, which is exactly
    // input order because runs are contiguous input ranges.
    let mut out = Vec::with_capacity(n);
    loop {
        gov.checkpoint(out.len())?;
        let mut best: Option<usize> = None;
        for (i, run) in runs.iter().enumerate() {
            let Some((key, _)) = run.front() else {
                continue;
            };
            let better = match best.and_then(|b| runs[b].front()) {
                None => true,
                Some((bkey, _)) => compare_keys(key, bkey, keys) == Ordering::Less,
            };
            if better {
                best = Some(i);
            }
        }
        match best.and_then(|i| runs[i].pop_front()) {
            Some((_, row)) => out.push(row),
            None => break,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_types::row;

    #[test]
    fn filter_drops_false_and_null() {
        let rows = vec![row![1i64], row![2i64], Row::new(vec![Value::Null])];
        let pred = Expr::col(0).gt(Expr::lit(1i64));
        let out = filter(rows, &pred, &Gov::none()).unwrap();
        assert_eq!(out, vec![row![2i64]], "NULL > 1 is unknown, dropped");
    }

    #[test]
    fn project_computes_columns() {
        let rows = vec![row![2i64, 3i64]];
        let out = project(
            rows,
            &[Expr::col(1), Expr::col(0).add(Expr::col(1))],
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(out, vec![row![3i64, 5i64]]);
    }

    /// A projected row may sit in the result cache for a long time: it
    /// holds exactly the values it has, whatever the column count.
    #[test]
    fn projected_rows_allocate_what_they_hold() {
        for width in 1..=5 {
            let exprs: Vec<Expr> = (0..width).map(|_| Expr::col(0)).collect();
            let out = project(vec![row![7i64], row![8i64]], &exprs, &Gov::none()).unwrap();
            for r in out {
                let values = r.into_values();
                assert_eq!(values.len(), width);
                assert_eq!(values.capacity(), values.len(), "{width} columns");
            }
        }
    }

    #[test]
    fn sort_multi_key_directions() {
        let rows = vec![row![1i64, "b"], row![2i64, "a"], row![1i64, "a"]];
        let keys = [SortKey::asc(Expr::col(0)), SortKey::desc(Expr::col(1))];
        let out = sort(rows, &keys, &Gov::none()).unwrap();
        assert_eq!(out, vec![row![1i64, "b"], row![1i64, "a"], row![2i64, "a"]]);
    }

    #[test]
    fn sort_nulls_first_on_asc() {
        let rows = vec![row![1i64], Row::new(vec![Value::Null])];
        let out = sort(rows, &[SortKey::asc(Expr::col(0))], &Gov::none()).unwrap();
        assert!(out[0].get(0).is_null());
        let rows = vec![Row::new(vec![Value::Null]), row![1i64]];
        let out = sort(rows, &[SortKey::desc(Expr::col(0))], &Gov::none()).unwrap();
        assert!(out[1].get(0).is_null(), "NULLs last on DESC");
    }

    #[test]
    fn sort_is_stable() {
        let rows = vec![row![1i64, 1i64], row![1i64, 2i64], row![1i64, 3i64]];
        let out = sort(rows.clone(), &[SortKey::asc(Expr::col(0))], &Gov::none()).unwrap();
        assert_eq!(out, rows);
    }

    #[test]
    fn tiny_budget_trips_projection() {
        use rfv_types::{CancelToken, RfvError};
        use std::sync::Arc;
        let rows: Vec<Row> = (0..10).map(|i| row![i as i64]).collect();
        let token = Arc::new(CancelToken::new().with_mem_budget(8));
        let gov = Gov::new(Some(token));
        assert!(matches!(
            project(rows, &[Expr::col(0)], &gov),
            Err(RfvError::ResourceExhausted(_))
        ));
    }
}
