//! Row-level operators: filter, project, sort.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

use rfv_expr::Expr;
use rfv_types::{Gov, Result, RfvError, Row, Value};

use crate::mem::{row_bytes, value_bytes};
use crate::physical::SortKey;
use crate::sched::{self, ParStats};

/// Keep rows for which `predicate` is TRUE (NULL/unknown drops the row),
/// per morsel. Surviving rows are moved, not copied, so the governance hook
/// is a cancellation checkpoint only — no memory charge.
pub fn filter(rows: Vec<Row>, predicate: &Expr, par: &mut ParStats, gov: &Gov) -> Result<Vec<Row>> {
    sched::morsels(predicate, rows, par, gov, |predicate, rows, gov| {
        let mut out = Vec::new();
        for (i, row) in rows.into_iter().enumerate() {
            gov.checkpoint(i)?;
            if predicate.eval(&row)?.as_bool()? == Some(true) {
                out.push(row);
            }
        }
        Ok(out)
    })
}

/// Evaluate one expression per output column, per morsel.
pub fn project(rows: Vec<Row>, exprs: &[Expr], par: &mut ParStats, gov: &Gov) -> Result<Vec<Row>> {
    sched::morsels(exprs, rows, par, gov, |exprs, rows, gov| {
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
    })
}

/// What the ordering routine found in its input; `EXPLAIN ANALYZE` prints
/// it as `order=…` on `Sort` and `Window` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderFound {
    /// Already in key order: the rows were returned untouched.
    Input,
    /// In order on the first `prefix` of `keys` keys only: each of the
    /// `runs` runs of equal prefix was sorted on the remaining keys.
    Runs {
        runs: usize,
        prefix: usize,
        keys: usize,
    },
    /// In order on no key prefix: one sort of the whole input.
    Full,
}

impl fmt::Display for OrderFound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderFound::Input => write!(f, "input"),
            OrderFound::Runs { runs, prefix, keys } => {
                write!(f, "runs({runs}) on {prefix} of {keys} keys")
            }
            OrderFound::Full => write!(f, "full"),
        }
    }
}

/// One expression evaluated over some rows, in the lane its values were
/// observed to fit: all `Float` or all `Int` — hence without NULLs — is a
/// plain vector, anything else (NULLs, mixed numerics, strings) stays boxed.
pub(crate) enum Column {
    Float(Vec<f64>),
    Int(Vec<i64>),
    Values(Vec<Value>),
}

impl Column {
    /// One column per expression, in one pass over `rows`. The columns are
    /// materialized state, charged here.
    pub fn eval(rows: &[Row], exprs: &[&Expr], gov: &Gov) -> Result<Vec<Column>> {
        let mut cols: Vec<Column> = (exprs.iter()).map(|_| Column::Values(Vec::new())).collect();
        let mut pending = 0u64;
        for (i, row) in rows.iter().enumerate() {
            if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
                gov.charge(&mut pending)?;
            }
            for (col, e) in cols.iter_mut().zip(exprs) {
                let computed;
                let v = match e {
                    Expr::Column(c) if *c < row.len() => row.get(*c),
                    e => {
                        computed = e.eval(row)?;
                        &computed
                    }
                };
                pending += value_bytes(v);
                col.push(v, rows.len());
            }
        }
        gov.charge(&mut pending)?;
        Ok(cols)
    }

    /// Append `v` to a column that will hold `cap` values: the first value
    /// picks the lane, the first that does not fit it moves the column to
    /// the boxed lane.
    fn push(&mut self, v: &Value, cap: usize) {
        fn lane<T>(first: T, cap: usize) -> Vec<T> {
            let mut lane = Vec::with_capacity(cap);
            lane.push(first);
            lane
        }
        match (&mut *self, v) {
            (Column::Float(lane), Value::Float(f)) => return lane.push(*f),
            (Column::Int(lane), Value::Int(i)) => return lane.push(*i),
            (Column::Values(lane), v) if !lane.is_empty() => return lane.push(v.clone()),
            (Column::Values(_), Value::Float(f)) => return *self = Column::Float(lane(*f, cap)),
            (Column::Values(_), Value::Int(i)) => return *self = Column::Int(lane(*i, cap)),
            _ => {}
        }
        let mut boxed = Vec::with_capacity(cap);
        match self {
            Column::Float(lane) => boxed.extend(lane.iter().map(|f| Value::Float(*f))),
            Column::Int(lane) => boxed.extend(lane.iter().map(|i| Value::Int(*i))),
            Column::Values(_) => {}
        }
        boxed.push(v.clone());
        *self = Column::Values(boxed);
    }

    /// Row `i` as a `u64` whose order is the lane's [`Value::total_cmp`]
    /// order; the boxed lane has none.
    fn code(&self, i: usize) -> Option<u64> {
        const SIGN: u64 = 1 << 63;
        match self {
            Column::Float(lane) => {
                let bits = lane[i].to_bits();
                Some(if bits & SIGN == 0 { bits | SIGN } else { !bits })
            }
            Column::Int(lane) => Some(lane[i] as u64 ^ SIGN),
            Column::Values(_) => None,
        }
    }

    /// [`Value::total_cmp`] of this column's rows `i` and `j`.
    fn cmp_at(&self, i: usize, j: usize) -> Ordering {
        match self {
            Column::Float(lane) => lane[i].total_cmp(&lane[j]),
            Column::Int(lane) => lane[i].cmp(&lane[j]),
            Column::Values(lane) => lane[i].total_cmp(&lane[j]),
        }
    }
}

/// Compare rows `i` and `j` of the key columns `cols` on the keys from
/// `from` on, under the per-key direction flags.
fn compare_at(keys: &[SortKey], from: usize, cols: &[Column], i: usize, j: usize) -> Ordering {
    for (col, key) in cols.iter().zip(keys).skip(from) {
        let ord = col.cmp_at(i, j);
        if ord != Ordering::Equal {
            return if key.desc { ord.reverse() } else { ord };
        }
    }
    Ordering::Equal
}

/// Up to three keys, all in slice lanes, sort as plain integers: per row the
/// keys' codes (inverted under DESC), then the row's position — which breaks
/// ties the way a stable sort does. `None` for other keys.
fn sort_codes(cols: &[Column], keys: &[SortKey], n: usize) -> Option<Vec<[u64; 4]>> {
    if cols.len() > 3 {
        return None;
    }
    (0..n)
        .map(|i| {
            let mut row = [0, 0, 0, i as u64];
            for (c, (col, key)) in cols.iter().zip(keys).enumerate() {
                let code = col.code(i)?;
                row[c] = if key.desc { !code } else { code };
            }
            Some(row)
        })
        .collect()
}

/// The sort keys of some rows, evaluated once into one column per key, and
/// the stable key order of those rows.
pub(crate) struct KeyOrder {
    cols: Vec<Column>,
    /// Output position → input position; `None` is the identity.
    perm: Option<Vec<u32>>,
    pub found: OrderFound,
}

impl KeyOrder {
    /// The one ordering routine, behind the `Sort` and the `Window` node:
    /// the stable order by `keys` of the rows whose keys `cols` holds, one
    /// column per key, sorting no more than the input's own order leaves to
    /// sort. The columns tell the longest key prefix the input is already
    /// non-decreasing on. All keys: nothing is sorted. Otherwise a `u32`
    /// permutation (charged here) is stable-sorted on the remaining keys
    /// inside runs of equal prefix only (segmented sort; no prefix is one
    /// run, the full sort) — which is the stable sort of the whole, since
    /// the runs already follow each other in prefix order.
    pub fn of(cols: Vec<Column>, n: usize, keys: &[SortKey], gov: &Gov) -> Result<KeyOrder> {
        let mut prefix = keys.len();
        for i in 1..n {
            gov.checkpoint(i)?;
            // A descent on key `c` behind equal keys `..c` ends the prefix at `c`.
            if compare_at(&keys[..prefix], 0, &cols, i - 1, i) == Ordering::Greater {
                prefix = (0..prefix)
                    .find(|&c| cols[c].cmp_at(i - 1, i) != Ordering::Equal)
                    .unwrap_or(0);
            }
        }
        if prefix == keys.len() {
            return Ok(KeyOrder {
                cols,
                perm: None,
                found: OrderFound::Input,
            });
        }
        let len = u32::try_from(n).map_err(|_| {
            RfvError::resource_exhausted(format!("cannot order {n} rows (limit 2^32)"))
        })?;
        let mut coded = sort_codes(&cols[prefix..], &keys[prefix..], n);
        let mut perm: Vec<u32> = match coded {
            Some(_) => Vec::new(),
            None => (0..len).collect(),
        };
        gov.reserve(u64::from(len) * if coded.is_some() { 32 } else { 4 })?;
        let (mut runs, mut lo) = (0, 0);
        for hi in 1..=n {
            if hi == n || compare_at(&keys[..prefix], 0, &cols, hi - 1, hi) != Ordering::Equal {
                gov.check()?;
                match &mut coded {
                    Some(coded) => coded[lo..hi].sort_unstable(),
                    None => perm[lo..hi]
                        .sort_by(|&a, &b| compare_at(keys, prefix, &cols, a as usize, b as usize)),
                }
                runs += 1;
                lo = hi;
            }
        }
        if let Some(coded) = coded {
            perm = coded.iter().map(|row| row[3] as u32).collect();
        }
        let found = match prefix {
            0 => OrderFound::Full,
            _ => OrderFound::Runs {
                runs,
                prefix,
                keys: keys.len(),
            },
        };
        Ok(KeyOrder {
            cols,
            perm: Some(perm),
            found,
        })
    }

    /// Input position of the row at output position `i`.
    #[inline]
    fn at(&self, i: usize) -> usize {
        self.perm.as_ref().map_or(i, |p| p[i] as usize)
    }

    /// Whether output rows `i − 1` and `i` differ on any of `keys`.
    pub fn differs(&self, i: usize, keys: Range<usize>) -> bool {
        let (a, b) = (self.at(i - 1), self.at(i));
        (self.cols[keys].iter()).any(|col| col.cmp_at(a, b) != Ordering::Equal)
    }

    /// `rows` — the rows the keys were evaluated on — moved into key order.
    pub fn apply(&self, mut rows: Vec<Row>) -> Vec<Row> {
        match &self.perm {
            None => rows,
            Some(perm) => (perm.iter())
                .map(|&i| std::mem::replace(&mut rows[i as usize], Row::empty()))
                .collect(),
        }
    }

    /// `col` — evaluated on the same rows as the keys — put into key order.
    pub fn apply_to(&self, col: Column) -> Column {
        let Some(perm) = &self.perm else { return col };
        let at = perm.iter().map(|&i| i as usize);
        match &col {
            Column::Float(lane) => Column::Float(at.map(|i| lane[i]).collect()),
            Column::Int(lane) => Column::Int(at.map(|i| lane[i]).collect()),
            Column::Values(lane) => Column::Values(at.map(|i| lane[i].clone()).collect()),
        }
    }
}

/// [`KeyOrder::of`] the keys of `rows`.
fn order(rows: &[Row], keys: &[SortKey], gov: &Gov) -> Result<KeyOrder> {
    let exprs: Vec<&Expr> = keys.iter().map(|k| &k.expr).collect();
    KeyOrder::of(Column::eval(rows, &exprs, gov)?, rows.len(), keys, gov)
}

/// Stable sort by the given keys (see [`KeyOrder::of`]), and what it found.
pub fn sort(rows: Vec<Row>, keys: &[SortKey], gov: &Gov) -> Result<(Vec<Row>, OrderFound)> {
    let ord = order(&rows, keys, gov)?;
    Ok((ord.apply(rows), ord.found))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecProbe, PhysicalPlan};
    use rfv_types::{row, DataType, Schema, SchemaRef};

    #[test]
    fn filter_drops_false_and_null() {
        let rows = vec![row![1i64], row![2i64], Row::new(vec![Value::Null])];
        let pred = Expr::col(0).gt(Expr::lit(1i64));
        let out = filter(rows, &pred, &mut ParStats::default(), &Gov::none()).unwrap();
        assert_eq!(out, vec![row![2i64]], "NULL > 1 is unknown, dropped");
    }

    #[test]
    fn project_computes_columns() {
        let rows = vec![row![2i64, 3i64]];
        let out = project(
            rows,
            &[Expr::col(1), Expr::col(0).add(Expr::col(1))],
            &mut ParStats::default(),
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
            let rows = vec![row![7i64], row![8i64]];
            let out = project(rows, &exprs, &mut ParStats::default(), &Gov::none()).unwrap();
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
        let (out, found) = sort(rows, &keys, &Gov::none()).unwrap();
        assert_eq!(out, vec![row![1i64, "b"], row![1i64, "a"], row![2i64, "a"]]);
        assert_eq!(found, OrderFound::Full);
    }

    #[test]
    fn sort_nulls_first_on_asc() {
        let rows = vec![row![1i64], Row::new(vec![Value::Null])];
        let (out, _) = sort(rows, &[SortKey::asc(Expr::col(0))], &Gov::none()).unwrap();
        assert!(out[0].get(0).is_null());
        let rows = vec![Row::new(vec![Value::Null]), row![1i64]];
        let (out, _) = sort(rows, &[SortKey::desc(Expr::col(0))], &Gov::none()).unwrap();
        assert!(out[1].get(0).is_null(), "NULLs last on DESC");
    }

    #[test]
    fn sort_is_stable() {
        let rows = vec![row![1i64, 1i64], row![1i64, 2i64], row![1i64, 3i64]];
        let (out, found) = sort(rows.clone(), &[SortKey::asc(Expr::col(0))], &Gov::none()).unwrap();
        assert_eq!(out, rows);
        assert_eq!(found, OrderFound::Input);
    }

    /// The reference the ordering routine is checked against: the sort it
    /// replaced — key tuples decorated onto the rows, one stable `sort_by`.
    fn reference_sort(rows: Vec<Row>, keys: &[SortKey]) -> Vec<Row> {
        let mut decorated: Vec<(Vec<Value>, Row)> = rows
            .into_iter()
            .map(|r| (keys.iter().map(|k| k.expr.eval(&r).unwrap()).collect(), r))
            .collect();
        decorated.sort_by(|(a, _), (b, _)| {
            for ((av, bv), key) in a.iter().zip(b).zip(keys) {
                let ord = av.total_cmp(bv);
                if ord != Ordering::Equal {
                    return if key.desc { ord.reverse() } else { ord };
                }
            }
            Ordering::Equal
        });
        decorated.into_iter().map(|(_, r)| r).collect()
    }

    /// Key `code` as a value of a column of `kind`: integers (a slice
    /// lane), floats with both zeros (the other), or whatever was written
    /// before a column had one type — NULLs, and `Int(1)` beside the
    /// `Float(1.0)` it ties with.
    fn key_value(kind: u8, code: u8) -> Value {
        match (kind % 3, code % 6) {
            (0, c) => Value::Int(i64::from(c) - 2),
            (1, 0) => Value::Float(-0.0),
            (1, 1) => Value::Float(0.0),
            (1, c) => Value::Float(f64::from(c) * 0.5 - 2.0),
            (_, 0) => Value::Null,
            (_, 1) => Value::Int(1),
            (_, 2) => Value::Float(1.0),
            (_, 3) => Value::str("a"),
            (_, c) => Value::Float(f64::from(c) - 4.5),
        }
    }

    type OrderCase = (Vec<(u8, u8, u8)>, (u8, u8, u8), (bool, bool, bool), u8);

    /// Rows `(k0, k1, k2, id)` — `id` is the input position, so comparing
    /// rows checks where every tie went — in the input shape `shape` asks
    /// for, and the three sort keys.
    fn order_case((codes, kinds, desc, shape): &OrderCase) -> (Vec<Row>, Vec<SortKey>) {
        let keys: Vec<SortKey> = [desc.0, desc.1, desc.2]
            .iter()
            .enumerate()
            .map(|(c, &desc)| SortKey {
                expr: Expr::col(c),
                desc,
            })
            .collect();
        let row = |&(a, b, c): &(u8, u8, u8)| match shape % 7 {
            5 => (0, 0, 0),             // all equal
            6 => (a % 2, b % 2, c % 2), // heavy ties
            _ => (a, b, c),
        };
        let rows: Vec<Row> = codes
            .iter()
            .map(row)
            .map(|(a, b, c)| {
                vec![
                    key_value(kinds.0, a),
                    key_value(kinds.1, b),
                    key_value(kinds.2, c),
                ]
            })
            .map(Row::new)
            .collect();
        let mut rows = match shape % 7 {
            1 | 2 => reference_sort(rows, &keys), // ordered (2: then reversed)
            3 => reference_sort(rows, &keys[..1]), // ordered on one key
            4 => reference_sort(rows, &keys[..2]), // ordered on two
            _ => rows,
        };
        if shape % 7 == 2 {
            rows.reverse();
        }
        let rows = (rows.into_iter().enumerate())
            .map(|(id, r)| {
                let mut values = r.into_values();
                values.push(Value::Int(id as i64));
                Row::new(values)
            })
            .collect();
        (rows, keys)
    }

    fn order_cases(rng: &mut rfv_testkit::Rng) -> OrderCase {
        use rfv_testkit::gen;
        let code = |rng: &mut rfv_testkit::Rng| rng.u64_below(6) as u8;
        let codes = gen::vec_of(
            move |rng: &mut rfv_testkit::Rng| (code(rng), code(rng), code(rng)),
            0,
            48,
        )(rng);
        let kinds = (code(rng), code(rng), code(rng));
        (
            codes,
            kinds,
            (rng.bool(), rng.bool(), rng.bool()),
            rng.u64_below(7) as u8,
        )
    }

    #[test]
    fn ordering_matches_the_stable_sort_it_replaced() {
        rfv_testkit::check_config(
            600,
            "sort ≡ decorate + stable sort_by, ties included",
            order_cases,
            |case| {
                let (rows, keys) = order_case(case);
                let want = reference_sort(rows.clone(), &keys);
                let (got, found) = sort(rows.clone(), &keys, &Gov::none()).unwrap();
                assert_eq!(got, want, "found {found}");
                // What it says it found is what the input was.
                let ordered = |k: usize| reference_sort(rows.clone(), &keys[..k]) == rows;
                match found {
                    OrderFound::Input => assert!(ordered(3)),
                    OrderFound::Full => assert!(!ordered(1)),
                    OrderFound::Runs { prefix, keys, .. } => {
                        assert!(keys == 3 && ordered(prefix) && !ordered(prefix + 1));
                    }
                }
            },
        );
    }

    #[test]
    fn parallel_sort_matches_serial_at_every_thread_count() {
        let _guard = sched::knob_guard();
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                sched::set_threads(0);
                sched::set_parallel_threshold(usize::MAX);
            }
        }
        let _reset = Reset;
        sched::set_parallel_threshold(4);
        rfv_testkit::check_config(
            200,
            "the thread setting does not reach Sort: threads {1, 2, 8}",
            order_cases,
            |case| {
                let (rows, keys) = order_case(case);
                let (want, found) = sort(rows.clone(), &keys, &Gov::none()).unwrap();
                let fields = (0..4).map(|c| rfv_types::Field::new(format!("c{c}"), DataType::Int));
                let plan = PhysicalPlan::Sort {
                    input: Box::new(PhysicalPlan::Values {
                        schema: SchemaRef::new(Schema::new(fields.collect())),
                        rows,
                    }),
                    keys,
                };
                let probe = ExecProbe {
                    counters: None,
                    trace: true,
                    token: None,
                };
                for threads in [1, 2, 8] {
                    sched::set_threads(threads);
                    let (got, metrics) = plan.execute_probed(&probe).unwrap();
                    assert_eq!(got, want, "threads={threads}");
                    let metrics = metrics.expect("traced");
                    assert_eq!(metrics.morsels, 0, "threads={threads}");
                    assert_eq!(metrics.note, Some(format!("order={found}")));
                }
            },
        );
    }

    #[test]
    fn more_than_three_keys_and_strings_sort_through_the_comparator() {
        // Four remaining keys: past the integer-coded sort.
        let rows: Vec<Row> = (0..40i64)
            .map(|i| row![i % 2, (i * 7) % 3, (i * 5) % 4, -(i % 5), i])
            .collect();
        let keys: Vec<SortKey> = (0..4).map(|c| SortKey::asc(Expr::col(c))).collect();
        let (got, found) = sort(rows.clone(), &keys, &Gov::none()).unwrap();
        assert_eq!(got, reference_sort(rows, &keys));
        assert_eq!(found, OrderFound::Full);
    }

    #[test]
    fn tiny_budget_trips_projection() {
        use rfv_types::{CancelToken, RfvError};
        use std::sync::Arc;
        let rows: Vec<Row> = (0..10).map(|i| row![i as i64]).collect();
        let token = Arc::new(CancelToken::new().with_mem_budget(8));
        let gov = Gov::new(Some(token));
        assert!(matches!(
            project(rows, &[Expr::col(0)], &mut ParStats::default(), &gov),
            Err(RfvError::ResourceExhausted(_))
        ));
    }
}
