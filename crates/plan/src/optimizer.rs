//! Logical rewrite rules.
//!
//! Deliberately small: constant folding, filter merging, projection
//! merging, and pushing filter conjuncts into joins. The last rule is what
//! turns the paper's `FROM c_transactions, l_locations WHERE c_locid =
//! l_locid AND …` comma joins into proper equi-joins the physical planner
//! can hash or probe through an index.

use rfv_expr::{fold_constants, BinaryOp, Expr};

use crate::logical::{LogicalJoinType, LogicalPlan};

/// Apply all rewrite rules bottom-up until stable (single pass suffices for
/// the rule set: each rule is applied to already-optimized children).
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    rewrite(plan)
}

fn rewrite(plan: LogicalPlan) -> LogicalPlan {
    // Recurse into children first.
    let plan = match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(rewrite(*input)),
            predicate: fold_constants(&predicate),
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(rewrite(*input)),
            exprs: exprs.iter().map(fold_constants).collect(),
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
        } => LogicalPlan::Join {
            left: Box::new(rewrite(*left)),
            right: Box::new(rewrite(*right)),
            join_type,
            on: on.map(|e| fold_constants(&e)),
        },
        LogicalPlan::Aggregate {
            input,
            group_exprs,
            aggregates,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(rewrite(*input)),
            group_exprs: group_exprs.iter().map(fold_constants).collect(),
            aggregates: aggregates
                .into_iter()
                .map(|(f, a)| (f, a.map(|e| fold_constants(&e))))
                .collect(),
            schema,
        },
        LogicalPlan::Window {
            input,
            partition_by,
            order_by,
            window_exprs,
            mode,
            schema,
        } => LogicalPlan::Window {
            input: Box::new(rewrite(*input)),
            partition_by: partition_by.iter().map(fold_constants).collect(),
            order_by,
            window_exprs,
            mode,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(rewrite(*input)),
            keys,
        },
        LogicalPlan::UnionAll { inputs } => LogicalPlan::UnionAll {
            inputs: inputs.into_iter().map(rewrite).collect(),
        },
        LogicalPlan::Limit { input, n } => LogicalPlan::Limit {
            input: Box::new(rewrite(*input)),
            n,
        },
        leaf => leaf,
    };
    // Then apply the structural rules at this node.
    let plan = merge_filters(plan);
    let plan = merge_projections(plan);
    push_filter_into_join(plan)
}

/// Split an AND tree into conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        if let Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } = e
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e.clone());
        }
    }
    walk(expr, &mut out);
    out
}

/// AND a list of conjuncts back together.
pub fn conjoin(mut conjuncts: Vec<Expr>) -> Option<Expr> {
    let first = if conjuncts.is_empty() {
        return None;
    } else {
        conjuncts.remove(0)
    };
    Some(conjuncts.into_iter().fold(first, |acc, c| acc.and(c)))
}

/// `Filter(Filter(x))` → single filter with ANDed predicate.
fn merge_filters(plan: LogicalPlan) -> LogicalPlan {
    if let LogicalPlan::Filter { input, predicate } = plan {
        if let LogicalPlan::Filter {
            input: inner,
            predicate: inner_pred,
        } = *input
        {
            return LogicalPlan::Filter {
                input: inner,
                predicate: inner_pred.and(predicate),
            };
        }
        return LogicalPlan::Filter { input, predicate };
    }
    plan
}

/// `Project(Project(x))`, the outer one only picking columns → one
/// projection over `x` with the outer schema: each pick becomes the inner
/// expression it names. A derived table plans one projection, not two.
fn merge_projections(plan: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Project {
        input,
        exprs,
        schema,
    } = plan
    else {
        return plan;
    };
    let picked: Option<Vec<Expr>> = match input.as_ref() {
        LogicalPlan::Project { exprs: inner, .. } => exprs
            .iter()
            .map(|e| match e {
                Expr::Column(i) => inner.get(*i).cloned(),
                _ => None,
            })
            .collect(),
        _ => None,
    };
    match (picked, *input) {
        (Some(exprs), LogicalPlan::Project { input, .. }) => LogicalPlan::Project {
            input,
            exprs,
            schema,
        },
        (_, input) => LogicalPlan::Project {
            input: Box::new(input),
            exprs,
            schema,
        },
    }
}

/// Classify a conjunct relative to a join with `left_width` left columns.
enum Side {
    Left,
    Right,
    Both,
    /// References no columns at all (constant) — stays above the join.
    Neither,
}

fn classify(expr: &Expr, left_width: usize) -> Side {
    let cols = expr.referenced_columns();
    if cols.is_empty() {
        return Side::Neither;
    }
    let any_left = cols.iter().any(|&c| c < left_width);
    let any_right = cols.iter().any(|&c| c >= left_width);
    match (any_left, any_right) {
        (true, false) => Side::Left,
        (false, true) => Side::Right,
        _ => Side::Both,
    }
}

/// Push filter conjuncts over an inner/cross join down into the join:
/// single-side conjuncts move below the join; both-side conjuncts join the
/// ON condition (turning a cross join into an inner join).
///
/// Left-outer joins are left untouched — pushing a WHERE predicate into the
/// null-producing side changes semantics.
fn push_filter_into_join(plan: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return plan;
    };
    let LogicalPlan::Join {
        left,
        right,
        join_type,
        on,
    } = *input
    else {
        return LogicalPlan::Filter { input, predicate };
    };
    if join_type == LogicalJoinType::LeftOuter {
        return LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left,
                right,
                join_type,
                on,
            }),
            predicate,
        };
    }
    let left_width = left.schema().len();
    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut join_preds: Vec<Expr> = on.map(|e| split_conjuncts(&e)).unwrap_or_default();
    let mut keep = Vec::new();
    for conjunct in split_conjuncts(&predicate) {
        match classify(&conjunct, left_width) {
            Side::Left => left_preds.push(conjunct),
            Side::Right => right_preds.push(conjunct.remap_columns(&|c| c - left_width)),
            Side::Both => join_preds.push(conjunct),
            Side::Neither => keep.push(conjunct),
        }
    }
    let mut new_left = *left;
    if let Some(p) = conjoin(left_preds) {
        new_left = LogicalPlan::Filter {
            input: Box::new(new_left),
            predicate: p,
        };
    }
    let mut new_right = *right;
    if let Some(p) = conjoin(right_preds) {
        new_right = LogicalPlan::Filter {
            input: Box::new(new_right),
            predicate: p,
        };
    }
    let new_on = conjoin(join_preds);
    let new_type = if new_on.is_some() && join_type == LogicalJoinType::Cross {
        LogicalJoinType::Inner
    } else {
        join_type
    };
    let mut result = LogicalPlan::Join {
        left: Box::new(new_left),
        right: Box::new(new_right),
        join_type: new_type,
        on: new_on,
    };
    if let Some(p) = conjoin(keep) {
        result = LogicalPlan::Filter {
            input: Box::new(result),
            predicate: p,
        };
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_types::{DataType, Field, Schema, SchemaRef};

    fn scan(name: &str, cols: &[&str]) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: SchemaRef::new(Schema::new(
                cols.iter()
                    .map(|c| Field::new(*c, DataType::Int).with_qualifier(name))
                    .collect(),
            )),
        }
    }

    #[test]
    fn split_and_conjoin_round_trip() {
        let e = Expr::col(0)
            .eq(Expr::lit(1i64))
            .and(Expr::col(1).gt(Expr::lit(2i64)))
            .and(Expr::col(2).lt(Expr::lit(3i64)));
        let parts = split_conjuncts(&e);
        assert_eq!(parts.len(), 3);
        assert_eq!(conjoin(parts).unwrap(), e);
        assert_eq!(conjoin(vec![]), None);
    }

    #[test]
    fn cross_join_plus_where_becomes_inner_join() {
        // WHERE a.x = b.y AND a.x > 1 over a CROSS b.
        let join = LogicalPlan::Join {
            left: Box::new(scan("a", &["x"])),
            right: Box::new(scan("b", &["y"])),
            join_type: LogicalJoinType::Cross,
            on: None,
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: Expr::col(0)
                .eq(Expr::col(1))
                .and(Expr::col(0).gt(Expr::lit(1i64))),
        };
        let optimized = optimize(filtered);
        let LogicalPlan::Join {
            join_type,
            on,
            left,
            right,
        } = optimized
        else {
            panic!("expected Join at top, got something else");
        };
        assert_eq!(join_type, LogicalJoinType::Inner);
        assert!(on.is_some());
        assert!(
            matches!(*left, LogicalPlan::Filter { .. }),
            "left-side predicate pushed down"
        );
        assert!(matches!(*right, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn right_side_predicates_are_remapped() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("a", &["x"])),
            right: Box::new(scan("b", &["y"])),
            join_type: LogicalJoinType::Inner,
            on: Some(Expr::col(0).eq(Expr::col(1))),
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: Expr::col(1).gt(Expr::lit(5i64)),
        };
        let optimized = optimize(filtered);
        let LogicalPlan::Join { right, .. } = optimized else {
            panic!()
        };
        let LogicalPlan::Filter { predicate, .. } = *right else {
            panic!("right predicate not pushed")
        };
        assert_eq!(
            predicate,
            Expr::col(0).gt(Expr::lit(5i64)),
            "remapped to right-local"
        );
    }

    #[test]
    fn outer_join_filters_stay_above() {
        let join = LogicalPlan::Join {
            left: Box::new(scan("a", &["x"])),
            right: Box::new(scan("b", &["y"])),
            join_type: LogicalJoinType::LeftOuter,
            on: Some(Expr::col(0).eq(Expr::col(1))),
        };
        let filtered = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: Expr::col(1).gt(Expr::lit(5i64)),
        };
        let optimized = optimize(filtered);
        assert!(matches!(optimized, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn stacked_filters_merge() {
        let inner = LogicalPlan::Filter {
            input: Box::new(scan("a", &["x"])),
            predicate: Expr::col(0).gt(Expr::lit(1i64)),
        };
        let outer = LogicalPlan::Filter {
            input: Box::new(inner),
            predicate: Expr::col(0).lt(Expr::lit(9i64)),
        };
        let optimized = optimize(outer);
        let LogicalPlan::Filter { input, .. } = optimized else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn stacked_column_projections_merge() {
        let inner = LogicalPlan::Project {
            input: Box::new(scan("a", &["x", "y"])),
            exprs: vec![Expr::col(1).add(Expr::lit(1i64)), Expr::col(0)],
            schema: SchemaRef::new(Schema::new(vec![
                Field::new("y1", DataType::Int),
                Field::new("x", DataType::Int),
            ])),
        };
        let outer_schema = SchemaRef::new(Schema::new(vec![
            Field::new("x", DataType::Int).with_qualifier("t"),
            Field::new("y1", DataType::Int).with_qualifier("t"),
        ]));
        let outer = LogicalPlan::Project {
            input: Box::new(inner.clone()),
            exprs: vec![Expr::col(1), Expr::col(0)],
            schema: outer_schema.clone(),
        };
        let LogicalPlan::Project {
            input,
            exprs,
            schema,
        } = optimize(outer)
        else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Scan { .. }));
        assert_eq!(exprs, vec![Expr::col(0), Expr::col(1).add(Expr::lit(1i64))]);
        assert_eq!(schema, outer_schema, "the outer schema is kept");
        // An outer projection that computes stays on top of the inner one.
        let computing = LogicalPlan::Project {
            input: Box::new(inner),
            exprs: vec![Expr::col(1).add(Expr::col(0))],
            schema: outer_schema,
        };
        let LogicalPlan::Project { input, .. } = optimize(computing) else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Project { .. }));
    }

    #[test]
    fn constants_fold_in_predicates() {
        let f = LogicalPlan::Filter {
            input: Box::new(scan("a", &["x"])),
            predicate: Expr::col(0).gt(Expr::lit(1i64).add(Expr::lit(2i64))),
        };
        let optimized = optimize(f);
        let LogicalPlan::Filter { predicate, .. } = optimized else {
            panic!()
        };
        assert_eq!(predicate, Expr::col(0).gt(Expr::lit(3i64)));
    }
}
