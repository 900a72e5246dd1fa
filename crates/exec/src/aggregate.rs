//! Hash aggregation.

use std::collections::HashMap;

use rfv_expr::{Accumulator, AggFunc, Expr};
use rfv_types::{Gov, Result, Row, Value};

use crate::mem::values_bytes;

/// Hash aggregate: group rows by `group_exprs`, fold `aggregates`.
///
/// Output rows consist of the group values followed by the aggregate
/// results. Groups are emitted in first-seen order so results are
/// deterministic. With an empty `group_exprs`, exactly one row is produced
/// even for empty input (SQL global aggregate semantics). One accumulator
/// chain per group, fed in input order at every thread count: a group's
/// float sum cannot be split without reassociating it. Each row's key is
/// evaluated into one reused buffer; only a new group's key is kept.
pub fn hash_aggregate(
    rows: Vec<Row>,
    group_exprs: &[Expr],
    aggregates: &[(AggFunc, Option<Expr>)],
    gov: &Gov,
) -> Result<Vec<Row>> {
    let make_accs = || -> Vec<Box<dyn Accumulator>> {
        aggregates.iter().map(|(f, _)| f.accumulator()).collect()
    };

    // group key -> index into `groups`, one accumulator set per group in
    // first-seen order
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut groups: Vec<Vec<Box<dyn Accumulator>>> = Vec::new();

    if group_exprs.is_empty() {
        groups.push(make_accs());
        index.insert(Vec::new(), 0);
    }

    let mut pending = 0u64;
    let mut key: Vec<Value> = Vec::with_capacity(group_exprs.len());
    for (i, row) in rows.iter().enumerate() {
        if i & (rfv_types::governance::CHECK_STRIDE - 1) == 0 {
            gov.charge(&mut pending)?;
        }
        key.clear();
        for e in group_exprs {
            key.push(e.eval(row)?);
        }
        let slot = match index.get(key.as_slice()) {
            Some(&slot) => slot,
            None => {
                // A new group's key is resident in the hash table (plus
                // one accumulator set) until the aggregate finishes.
                pending += 48 + values_bytes(&key);
                groups.push(make_accs());
                index.insert(key.clone(), groups.len() - 1);
                groups.len() - 1
            }
        };
        for ((_, arg), acc) in aggregates.iter().zip(groups[slot].iter_mut()) {
            let v = match arg {
                Some(e) => e.eval(row)?,
                // COUNT(*): the value is irrelevant, any non-null works;
                // CountStar counts rows regardless.
                None => Value::Int(1),
            };
            acc.update(&v)?;
        }
    }
    gov.charge(&mut pending)?;

    let mut keys = vec![Vec::new(); groups.len()];
    for (key, slot) in index {
        keys[slot] = key;
    }
    keys.into_iter()
        .zip(groups)
        .map(|(mut key, accs)| {
            for acc in &accs {
                key.push(acc.finish()?);
            }
            Ok(Row::new(key))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_types::row;

    fn sample() -> Vec<Row> {
        vec![
            row!["a", 1i64],
            row!["b", 10i64],
            row!["a", 2i64],
            row!["b", 20i64],
            row!["a", 3i64],
        ]
    }

    #[test]
    fn groups_in_first_seen_order() {
        let out = hash_aggregate(
            sample(),
            &[Expr::col(0)],
            &[(AggFunc::Sum, Some(Expr::col(1)))],
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(out, vec![row!["a", 6i64], row!["b", 30i64]]);
    }

    #[test]
    fn multiple_aggregates() {
        let out = hash_aggregate(
            sample(),
            &[Expr::col(0)],
            &[
                (AggFunc::CountStar, None),
                (AggFunc::Min, Some(Expr::col(1))),
                (AggFunc::Max, Some(Expr::col(1))),
                (AggFunc::Avg, Some(Expr::col(1))),
            ],
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(out[0], row!["a", 3i64, 1i64, 3i64, 2.0f64]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let out = hash_aggregate(
            vec![],
            &[],
            &[
                (AggFunc::CountStar, None),
                (AggFunc::Sum, Some(Expr::col(0))),
            ],
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], Row::new(vec![Value::Int(0), Value::Null]));
    }

    #[test]
    fn grouped_aggregate_on_empty_input_is_empty() {
        let out = hash_aggregate(
            vec![],
            &[Expr::col(0)],
            &[(AggFunc::CountStar, None)],
            &Gov::none(),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn null_group_keys_form_a_group() {
        let rows = vec![
            Row::new(vec![Value::Null, Value::Int(1)]),
            Row::new(vec![Value::Null, Value::Int(2)]),
        ];
        let out = hash_aggregate(
            rows,
            &[Expr::col(0)],
            &[(AggFunc::Sum, Some(Expr::col(1)))],
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(out.len(), 1, "NULLs group together in GROUP BY");
        assert_eq!(out[0].get(1), &Value::Int(3));
    }

    #[test]
    fn two_key_groups_keep_first_seen_order_and_null_keys_group() {
        let null = Value::Null;
        let rows = vec![
            Row::new(vec![null.clone(), Value::Int(1), Value::Int(1)]),
            Row::new(vec![Value::str("a"), null.clone(), Value::Int(2)]),
            Row::new(vec![null.clone(), Value::Int(1), Value::Int(3)]),
            Row::new(vec![Value::str("b"), Value::Int(2), Value::Int(4)]),
            Row::new(vec![Value::str("a"), null.clone(), Value::Int(5)]),
            Row::new(vec![null.clone(), null.clone(), Value::Int(6)]),
        ];
        let out = hash_aggregate(
            rows,
            &[Expr::col(0), Expr::col(1)],
            &[
                (AggFunc::Sum, Some(Expr::col(2))),
                (AggFunc::CountStar, None),
            ],
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(
            out,
            vec![
                Row::new(vec![
                    null.clone(),
                    Value::Int(1),
                    Value::Int(4),
                    Value::Int(2)
                ]),
                Row::new(vec![
                    Value::str("a"),
                    null.clone(),
                    Value::Int(7),
                    Value::Int(2)
                ]),
                Row::new(vec![
                    Value::str("b"),
                    Value::Int(2),
                    Value::Int(4),
                    Value::Int(1)
                ]),
                Row::new(vec![null.clone(), null, Value::Int(6), Value::Int(1)]),
            ]
        );
    }

    #[test]
    fn grouping_by_expression() {
        let rows: Vec<Row> = (1..=6i64).map(|i| row![i, 1i64]).collect();
        let out = hash_aggregate(
            rows,
            &[Expr::col(0).modulo(Expr::lit(2i64))],
            &[(AggFunc::CountStar, None)],
            &Gov::none(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], row![1i64, 3i64]);
        assert_eq!(out[1], row![0i64, 3i64]);
    }
}
