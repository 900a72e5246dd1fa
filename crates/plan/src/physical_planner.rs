//! Logical → physical planning.
//!
//! The consequential choice is the join strategy. In the paper's Table 1
//! the *same* SQL runs 20–100× faster once a primary-key index exists,
//! because the self join flips from a nested loop to an index nested loop;
//! this planner reproduces exactly that flip:
//!
//! 1. If the right side is a bare table scan and the join condition bounds
//!    an indexed right column by expressions over the left row
//!    (equality, both-sided range, or BETWEEN), plan an
//!    [`PhysicalPlan::IndexNestedLoopJoin`].
//! 2. Else if the condition contains left = right equi-conjuncts, plan a
//!    [`PhysicalPlan::HashJoin`].
//! 3. Else fall back to [`PhysicalPlan::NestedLoopJoin`].

use rfv_exec::{JoinType, PhysicalPlan};
use rfv_expr::{BinaryOp, Expr};
use rfv_storage::Catalog;
use rfv_types::Result;

use crate::logical::{LogicalJoinType, LogicalPlan};
use crate::optimizer::{conjoin, split_conjuncts};

/// Plan a logical plan against a catalog.
pub fn plan_physical(plan: &LogicalPlan, catalog: &Catalog) -> Result<PhysicalPlan> {
    PhysicalPlanner::new(catalog).plan(plan)
}

/// Stateful planner (currently only carries the catalog handle).
pub struct PhysicalPlanner<'a> {
    catalog: &'a Catalog,
}

impl<'a> PhysicalPlanner<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        PhysicalPlanner { catalog }
    }

    /// Translate one logical node (recursively).
    pub fn plan(&self, plan: &LogicalPlan) -> Result<PhysicalPlan> {
        match plan {
            LogicalPlan::Scan { table, schema } => Ok(PhysicalPlan::TableScan {
                table: self.catalog.table(table)?,
                schema: schema.clone(),
            }),
            LogicalPlan::Values { schema, rows } => Ok(PhysicalPlan::Values {
                schema: schema.clone(),
                rows: rows.clone(),
            }),
            LogicalPlan::Filter { input, predicate } => {
                // Filter directly over a scanned table: try to turn
                // constant range/equality conjuncts on an indexed column
                // into an ordered index range scan.
                if let LogicalPlan::Scan { table, schema } = input.as_ref() {
                    let table_ref = self.catalog.table(table)?;
                    let indexed = table_ref.read().indexed_columns();
                    if let Some(scan) = try_index_scan(predicate, &indexed, table_ref, schema) {
                        return Ok(scan);
                    }
                }
                Ok(PhysicalPlan::Filter {
                    input: Box::new(self.plan(input)?),
                    predicate: predicate.clone(),
                })
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => Ok(PhysicalPlan::Project {
                input: Box::new(self.plan(input)?),
                exprs: exprs.clone(),
                schema: schema.clone(),
            }),
            LogicalPlan::Join {
                left,
                right,
                join_type,
                on,
            } => self.plan_join(left, right, *join_type, on.as_ref()),
            LogicalPlan::Aggregate {
                input,
                group_exprs,
                aggregates,
                schema,
            } => Ok(PhysicalPlan::HashAggregate {
                input: Box::new(self.plan(input)?),
                group_exprs: group_exprs.clone(),
                aggregates: aggregates.clone(),
                schema: schema.clone(),
            }),
            LogicalPlan::Window {
                input,
                partition_by,
                order_by,
                window_exprs,
                mode,
                schema,
            } => Ok(PhysicalPlan::Window {
                input: Box::new(self.plan(input)?),
                partition_by: partition_by.clone(),
                order_by: order_by.clone(),
                window_exprs: window_exprs.clone(),
                mode: *mode,
                schema: schema.clone(),
                sources: Vec::new(),
            }),
            LogicalPlan::Sort { input, keys } => Ok(PhysicalPlan::Sort {
                input: Box::new(self.plan(input)?),
                keys: keys.clone(),
            }),
            LogicalPlan::UnionAll { inputs } => Ok(PhysicalPlan::UnionAll {
                inputs: inputs
                    .iter()
                    .map(|p| self.plan(p))
                    .collect::<Result<Vec<_>>>()?,
            }),
            LogicalPlan::Limit { input, n } => Ok(PhysicalPlan::Limit {
                input: Box::new(self.plan(input)?),
                n: *n,
            }),
        }
    }

    fn plan_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        join_type: LogicalJoinType,
        on: Option<&Expr>,
    ) -> Result<PhysicalPlan> {
        let physical_type = match join_type {
            LogicalJoinType::Inner | LogicalJoinType::Cross => JoinType::Inner,
            LogicalJoinType::LeftOuter => JoinType::LeftOuter,
        };
        let left_width = left.schema().len();
        let left_plan = self.plan(left)?;

        if let Some(on) = on {
            // 1. Index nested loop against a bare scanned table.
            if let LogicalPlan::Scan { table, schema } = right {
                let table_ref = self.catalog.table(table)?;
                let indexed = table_ref.read().indexed_columns();
                if let Some(inlj) = try_index_join(on, left_width, &indexed, schema.len()) {
                    return Ok(PhysicalPlan::IndexNestedLoopJoin {
                        left: Box::new(left_plan),
                        right_table: table_ref,
                        right_schema: schema.clone(),
                        right_column: inlj.column,
                        lo_expr: inlj.lo,
                        hi_expr: inlj.hi,
                        residual: inlj.residual,
                        join_type: physical_type,
                    });
                }
            }
            // 2. Hash join on equi-conjuncts.
            let right_plan = self.plan(right)?;
            let mut left_keys = Vec::new();
            let mut right_keys = Vec::new();
            let mut residual = Vec::new();
            for conjunct in split_conjuncts(on) {
                if let Expr::Binary {
                    left: l,
                    op: BinaryOp::Eq,
                    right: r,
                } = &conjunct
                {
                    match (side_of(l, left_width), side_of(r, left_width)) {
                        (Some(ExprSide::Left), Some(ExprSide::Right)) => {
                            left_keys.push((**l).clone());
                            right_keys.push(r.remap_columns(&|c| c - left_width));
                            continue;
                        }
                        (Some(ExprSide::Right), Some(ExprSide::Left)) => {
                            left_keys.push((**r).clone());
                            right_keys.push(l.remap_columns(&|c| c - left_width));
                            continue;
                        }
                        _ => {}
                    }
                }
                residual.push(conjunct);
            }
            if !left_keys.is_empty() {
                return Ok(PhysicalPlan::HashJoin {
                    left: Box::new(left_plan),
                    right: Box::new(right_plan),
                    left_keys,
                    right_keys,
                    residual: conjoin(residual),
                    join_type: physical_type,
                });
            }
            // 3. Nested loop.
            return Ok(PhysicalPlan::NestedLoopJoin {
                left: Box::new(left_plan),
                right: Box::new(right_plan),
                on: Some(on.clone()),
                join_type: physical_type,
            });
        }
        Ok(PhysicalPlan::NestedLoopJoin {
            left: Box::new(left_plan),
            right: Box::new(self.plan(right)?),
            on: None,
            join_type: physical_type,
        })
    }
}

/// If `predicate` bounds an indexed column with *constant* values
/// (literals after constant folding), plan an [`PhysicalPlan::IndexRangeScan`]
/// with the remaining conjuncts as a residual filter. Both bounds are
/// required (the storage API takes an inclusive range; one-sided ranges
/// stay a filter — acceptable for this engine's workloads).
fn try_index_scan(
    predicate: &Expr,
    indexed: &[usize],
    table: rfv_storage::TableRef,
    schema: &rfv_types::SchemaRef,
) -> Option<PhysicalPlan> {
    use rfv_types::Value;

    let conjuncts = split_conjuncts(predicate);
    for &col in indexed {
        let mut lo: Option<Value> = None;
        let mut hi: Option<Value> = None;
        let mut residual: Vec<Expr> = Vec::new();
        for conjunct in &conjuncts {
            // `left_width = 0` makes `extract_bounds` accept only
            // constant (column-free) bound expressions.
            if let Some((new_lo, new_hi)) = extract_bounds(conjunct, col, 0) {
                let as_const = |e: Option<Expr>| -> Option<Value> {
                    match e.map(|e| rfv_expr::fold_constants(&e)) {
                        Some(Expr::Literal(v)) => Some(v),
                        _ => None,
                    }
                };
                let (cl, ch) = (as_const(new_lo), as_const(new_hi));
                let mut used = false;
                if lo.is_none() && cl.is_some() {
                    lo = cl;
                    used = true;
                }
                if hi.is_none() && ch.is_some() {
                    hi = ch;
                    used = true;
                }
                if used {
                    continue;
                }
            }
            residual.push(conjunct.clone());
        }
        if let (Some(lo), Some(hi)) = (lo, hi) {
            let scan = PhysicalPlan::IndexRangeScan {
                table,
                schema: schema.clone(),
                column: col,
                lo: Some(lo),
                hi: Some(hi),
            };
            return Some(match conjoin(residual) {
                Some(p) => PhysicalPlan::Filter {
                    input: Box::new(scan),
                    predicate: p,
                },
                None => scan,
            });
        }
    }
    None
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExprSide {
    Left,
    Right,
}

/// Which join side does this expression exclusively reference?
/// `None` if it spans both sides or references nothing.
fn side_of(expr: &Expr, left_width: usize) -> Option<ExprSide> {
    let cols = expr.referenced_columns();
    if cols.is_empty() {
        return None;
    }
    if cols.iter().all(|&c| c < left_width) {
        Some(ExprSide::Left)
    } else if cols.iter().all(|&c| c >= left_width) {
        Some(ExprSide::Right)
    } else {
        None
    }
}

struct IndexJoin {
    column: usize,
    /// Bounds evaluated over the *left* row.
    lo: Expr,
    hi: Expr,
    /// Residual over `left ++ right`.
    residual: Option<Expr>,
}

/// Try to turn the join condition into an index probe on one of the
/// `indexed` right columns. Recognized shapes (where `e` references only
/// left columns and `#rc` is a plain right column reference):
///
/// * `#rc = e` / `e = #rc`                      → point probe
/// * `#rc >= e1 AND #rc <= e2` (or >, <, mixed) → range probe
/// * `#rc BETWEEN e1 AND e2`                    → range probe
///
/// Strict bounds are widened by ±1 only for integer-typed expressions via
/// `e ± 1`; other conjuncts become the residual.
fn try_index_join(
    on: &Expr,
    left_width: usize,
    indexed: &[usize],
    _right_width: usize,
) -> Option<IndexJoin> {
    let conjuncts = split_conjuncts(on);
    for &col in indexed {
        let rc = left_width + col;
        let mut lo: Option<Expr> = None;
        let mut hi: Option<Expr> = None;
        let mut residual = Vec::new();
        for conjunct in &conjuncts {
            if let Some((new_lo, new_hi)) = extract_bounds(conjunct, rc, left_width) {
                // First bound of each kind wins; further ones stay residual
                // (still correct, just not used for the probe).
                let mut used = false;
                if let (Some(b), None) = (&new_lo, &lo) {
                    lo = Some(b.clone());
                    used = true;
                }
                if let (Some(b), None) = (&new_hi, &hi) {
                    hi = Some(b.clone());
                    used = true;
                }
                if used {
                    continue;
                }
            }
            residual.push(conjunct.clone());
        }
        if let (Some(lo), Some(hi)) = (lo, hi) {
            return Some(IndexJoin {
                column: col,
                lo,
                hi,
                residual: conjoin(residual),
            });
        }
    }
    None
}

/// If `conjunct` bounds right column `rc` by left-only expressions, return
/// `(lo, hi)` bounds (either side may be None).
fn extract_bounds(
    conjunct: &Expr,
    rc: usize,
    left_width: usize,
) -> Option<(Option<Expr>, Option<Expr>)> {
    let is_rc = |e: &Expr| matches!(e, Expr::Column(c) if *c == rc);
    let left_only = |e: &Expr| {
        let cols = e.referenced_columns();
        !cols.is_empty() && cols.iter().all(|&c| c < left_width) || cols.is_empty()
    };
    match conjunct {
        Expr::Binary { left, op, right } => {
            let (col_first, other, op) = if is_rc(left) && left_only(right) {
                (true, right, *op)
            } else if is_rc(right) && left_only(left) {
                (false, left, *op)
            } else {
                return None;
            };
            let e = (**other).clone();
            // Normalize to `rc OP e`.
            let op = if col_first {
                op
            } else {
                match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    other => other,
                }
            };
            match op {
                BinaryOp::Eq => Some((Some(e.clone()), Some(e))),
                BinaryOp::GtEq => Some((Some(e), None)),
                BinaryOp::LtEq => Some((None, Some(e))),
                BinaryOp::Gt => Some((Some(e.add(Expr::lit(1i64))), None)),
                BinaryOp::Lt => Some((None, Some(e.sub(Expr::lit(1i64))))),
                _ => None,
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => {
            if is_rc(expr) && left_only(low) && left_only(high) {
                Some((Some((**low).clone()), Some((**high).clone())))
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_storage::IndexKind;
    use rfv_types::{row, DataType, Field, Schema, SchemaRef};

    fn setup() -> (Catalog, LogicalPlan, LogicalPlan) {
        let catalog = Catalog::new();
        let t = catalog
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
            for i in 1..=20i64 {
                g.insert(row![i, i as f64]).unwrap();
            }
            g.create_index(0, IndexKind::Unique).unwrap();
        }
        let schema = SchemaRef::new(t.read().schema().qualified("s1"));
        let scan1 = LogicalPlan::Scan {
            table: "seq".into(),
            schema,
        };
        let schema2 = SchemaRef::new(t.read().schema().qualified("s2"));
        let scan2 = LogicalPlan::Scan {
            table: "seq".into(),
            schema: schema2,
        };
        (catalog, scan1, scan2)
    }

    #[test]
    fn between_join_uses_index() {
        let (catalog, s1, s2) = setup();
        // s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 (fig. 2 with index).
        let on = Expr::col(2).between(
            Expr::col(0).sub(Expr::lit(1i64)),
            Expr::col(0).add(Expr::lit(1i64)),
        );
        let join = LogicalPlan::Join {
            left: Box::new(s1),
            right: Box::new(s2),
            join_type: LogicalJoinType::Inner,
            on: Some(on),
        };
        let phys = plan_physical(&join, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::IndexNestedLoopJoin { .. }),
            "{}",
            phys.explain()
        );
        // Execute and sanity-check the row count: 18 interior * 3 + 2 edge * 2.
        assert_eq!(phys.execute().unwrap().len(), 18 * 3 + 2 * 2);
    }

    #[test]
    fn equality_join_without_scan_right_uses_hash() {
        let (catalog, s1, s2) = setup();
        // Wrap right side in a filter so it is not a bare scan.
        let right = LogicalPlan::Filter {
            input: Box::new(s2),
            predicate: Expr::col(0).gt(Expr::lit(0i64)),
        };
        let on = Expr::col(0).eq(Expr::col(2));
        let join = LogicalPlan::Join {
            left: Box::new(s1),
            right: Box::new(right),
            join_type: LogicalJoinType::Inner,
            on: Some(on),
        };
        let phys = plan_physical(&join, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::HashJoin { .. }),
            "{}",
            phys.explain()
        );
        assert_eq!(phys.execute().unwrap().len(), 20);
    }

    #[test]
    fn point_probe_on_equality_against_scan() {
        let (catalog, s1, s2) = setup();
        let on = Expr::col(0).eq(Expr::col(2));
        let join = LogicalPlan::Join {
            left: Box::new(s1),
            right: Box::new(s2),
            join_type: LogicalJoinType::Inner,
            on: Some(on),
        };
        let phys = plan_physical(&join, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::IndexNestedLoopJoin { .. }),
            "{}",
            phys.explain()
        );
        assert_eq!(phys.execute().unwrap().len(), 20);
    }

    #[test]
    fn non_indexable_predicate_falls_back_to_nlj() {
        let (catalog, s1, s2) = setup();
        // Pure inequality — neither index-probe-able (one-sided) nor hashable.
        let on = Expr::col(0).lt(Expr::col(2).modulo(Expr::lit(3i64)));
        let join = LogicalPlan::Join {
            left: Box::new(s1),
            right: Box::new(s2),
            join_type: LogicalJoinType::Inner,
            on: Some(on),
        };
        let phys = plan_physical(&join, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::NestedLoopJoin { .. }),
            "{}",
            phys.explain()
        );
    }

    #[test]
    fn strict_bounds_are_widened_for_ints() {
        let (catalog, s1, s2) = setup();
        // s2.pos > s1.pos AND s2.pos < s1.pos + 3 → range [pos+1, pos+2].
        let on = Expr::col(2)
            .gt(Expr::col(0))
            .and(Expr::col(2).lt(Expr::col(0).add(Expr::lit(3i64))));
        let join = LogicalPlan::Join {
            left: Box::new(s1),
            right: Box::new(s2),
            join_type: LogicalJoinType::Inner,
            on: Some(on),
        };
        let phys = plan_physical(&join, &catalog).unwrap();
        let rows = phys.execute().unwrap();
        // Every pos 1..=18 matches pos+1, pos+2; pos 19 matches only 20.
        assert_eq!(rows.len(), 18 * 2 + 1);
    }
}

#[cfg(test)]
mod index_scan_tests {
    use super::*;
    use rfv_storage::IndexKind;
    use rfv_types::{row, DataType, Field, Schema, SchemaRef};

    fn setup() -> (Catalog, LogicalPlan) {
        let catalog = Catalog::new();
        let t = catalog
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
            for i in 1..=100i64 {
                g.insert(row![i, i as f64]).unwrap();
            }
            g.create_index(0, IndexKind::Unique).unwrap();
        }
        let schema = SchemaRef::new(t.read().schema().qualified("s"));
        (
            catalog,
            LogicalPlan::Scan {
                table: "seq".into(),
                schema,
            },
        )
    }

    fn filter(scan: LogicalPlan, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(scan),
            predicate,
        }
    }

    #[test]
    fn constant_between_becomes_index_range_scan() {
        let (catalog, scan) = setup();
        let plan = filter(
            scan,
            Expr::col(0).between(Expr::lit(10i64), Expr::lit(20i64)),
        );
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::IndexRangeScan { .. }),
            "{}",
            phys.explain()
        );
        assert_eq!(phys.execute().unwrap().len(), 11);
    }

    #[test]
    fn equality_becomes_point_range() {
        let (catalog, scan) = setup();
        let plan = filter(scan, Expr::col(0).eq(Expr::lit(42i64)));
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::IndexRangeScan { .. }),
            "{}",
            phys.explain()
        );
        let rows = phys.execute().unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn folded_arithmetic_bounds_still_qualify() {
        let (catalog, scan) = setup();
        // Bounds that are constant only after folding: 5 + 5 … 4 * 5.
        let plan = filter(
            scan,
            Expr::col(0)
                .gt_eq(Expr::lit(5i64).add(Expr::lit(5i64)))
                .and(Expr::col(0).lt_eq(Expr::lit(4i64).mul(Expr::lit(5i64)))),
        );
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::IndexRangeScan { .. }),
            "{}",
            phys.explain()
        );
        assert_eq!(phys.execute().unwrap().len(), 11);
    }

    #[test]
    fn residual_conjuncts_kept_above_the_scan() {
        let (catalog, scan) = setup();
        let plan = filter(
            scan,
            Expr::col(0)
                .between(Expr::lit(1i64), Expr::lit(50i64))
                .and(Expr::col(1).gt(Expr::lit(40.0f64))),
        );
        let phys = plan_physical(&plan, &catalog).unwrap();
        let explain = phys.explain();
        assert!(explain.contains("IndexRangeScan"), "{explain}");
        assert!(explain.trim_start().starts_with("Filter"), "{explain}");
        assert_eq!(phys.execute().unwrap().len(), 10, "41..=50");
    }

    #[test]
    fn one_sided_or_non_constant_ranges_stay_filters() {
        let (catalog, scan) = setup();
        // One-sided.
        let plan = filter(scan.clone(), Expr::col(0).gt(Expr::lit(10i64)));
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::Filter { .. }),
            "{}",
            phys.explain()
        );
        // Non-constant bound (references a column).
        let plan = filter(scan, Expr::col(0).between(Expr::col(1), Expr::lit(10i64)));
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::Filter { .. }),
            "{}",
            phys.explain()
        );
    }

    #[test]
    fn unindexed_column_stays_filter() {
        let (catalog, scan) = setup();
        let plan = filter(
            scan,
            Expr::col(1).between(Expr::lit(1.0f64), Expr::lit(5.0f64)),
        );
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::Filter { .. }),
            "{}",
            phys.explain()
        );
        assert_eq!(phys.execute().unwrap().len(), 5);
    }
}
