//! Logical → physical planning.
//!
//! The consequential choice is the join strategy. In the paper's Table 1
//! the *same* SQL runs 20–100× faster once a primary-key index exists,
//! because the self join flips from a nested loop to an index nested loop;
//! this planner reproduces exactly that flip:
//!
//! 1. If the right side is a bare table scan and the join condition bounds
//!    an indexed right column by expressions over the left row
//!    (equality, both-sided range — strict or not — or BETWEEN), plan an
//!    [`PhysicalPlan::IndexNestedLoopJoin`].
//! 2. Else if the condition contains left = right equi-conjuncts, plan a
//!    [`PhysicalPlan::HashJoin`].
//! 3. Else fall back to [`PhysicalPlan::NestedLoopJoin`].
//!
//! The same index serves reads: constant bounds on an indexed column
//! become an [`PhysicalPlan::IndexRangeScan`] (one- or two-sided, strict
//! or inclusive), and `ORDER BY` that column needs no sort when the index
//! already delivers its order. A [`WindowSources`] rule, when attached,
//! answers window expressions from data outside the plan (views).

use std::ops::Bound;

use rfv_exec::{JoinType, PhysicalPlan, SequenceSources, SortKey, WindowExprSpec};
use rfv_expr::{BinaryOp, Expr};
use rfv_storage::{Catalog, IndexKind, TableRef};
use rfv_types::{DataType, Result, SchemaRef, Value};

use crate::logical::{LogicalJoinType, LogicalPlan};
use crate::optimizer::{conjoin, split_conjuncts};

/// Plan a logical plan against a catalog.
pub fn plan_physical(plan: &LogicalPlan, catalog: &Catalog) -> Result<PhysicalPlan> {
    PhysicalPlanner::new(catalog).plan(plan)
}

/// Chooses, per expression of a window node, a source that answers it
/// instead of the native kernel. The node's input is lowered as it would
/// be without the rule, so a source sees exactly the rows of `input`.
pub trait WindowSources {
    /// One entry per `window_exprs` element (`None`: the native kernel
    /// runs it), or an empty list when no expression has a source.
    fn sources(
        &self,
        input: &LogicalPlan,
        partition_by: &[Expr],
        order_by: &[SortKey],
        window_exprs: &[WindowExprSpec],
    ) -> Result<SequenceSources>;
}

/// Stateful planner: the catalog handle and the optional window rule.
pub struct PhysicalPlanner<'a> {
    catalog: &'a Catalog,
    window_sources: Option<&'a dyn WindowSources>,
}

impl<'a> PhysicalPlanner<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        PhysicalPlanner {
            catalog,
            window_sources: None,
        }
    }

    /// Ask `rule` for the sources of every window node lowered.
    pub fn with_window_sources(mut self, rule: &'a dyn WindowSources) -> Self {
        self.window_sources = Some(rule);
        self
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
                    if let Some(scan) = try_index_scan(predicate, table_ref, schema) {
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
                sources: match self.window_sources {
                    Some(rule) => rule.sources(input, partition_by, order_by, window_exprs)?,
                    None => Vec::new(),
                },
                partition_by: partition_by.clone(),
                order_by: order_by.clone(),
                window_exprs: window_exprs.clone(),
                mode: *mode,
                schema: schema.clone(),
            }),
            LogicalPlan::Sort { input, keys } => {
                let mut input = self.plan(input)?;
                if let [SortKey {
                    expr: Expr::Column(c),
                    desc: false,
                }] = keys.as_slice()
                {
                    let ordered;
                    (input, ordered) = in_index_order(input, *c);
                    if ordered {
                        return Ok(input);
                    }
                }
                Ok(PhysicalPlan::Sort {
                    input: Box::new(input),
                    keys: keys.clone(),
                })
            }
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
                if let Some(inlj) = try_index_join(on, left_width, &indexed) {
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

/// The two ends of a range over one column, as a conjunct states them.
type Ends<T> = (Bound<T>, Bound<T>);

/// Take the ends one conjunct `stated` into `probe` where the probe has
/// none yet (the first bound of each kind wins). Returns whether *every*
/// stated end was taken: only then does the probe imply the conjunct, and
/// only then may the conjunct leave the residual.
fn absorb<T>(probe: &mut Ends<T>, stated: Ends<T>) -> bool {
    let mut all = true;
    for (slot, end) in [(&mut probe.0, stated.0), (&mut probe.1, stated.1)] {
        match (&*slot, end) {
            (_, Bound::Unbounded) => {}
            (Bound::Unbounded, end) => *slot = end,
            _ => all = false,
        }
    }
    all
}

/// `end` as a constant the index on a `key_type` column can be probed
/// with: `Unbounded` stays, a literal (after folding) of a type the column
/// compares with becomes a value bound, anything else is `None`. NULL
/// compares (as unknown) with every type: the scan then matches nothing.
fn constant_end(end: Bound<Expr>, key_type: DataType) -> Option<Bound<Value>> {
    let constant = |e: Expr| match rfv_expr::fold_constants(&e) {
        Expr::Literal(v) => {
            let numeric = |t| matches!(t, DataType::Int | DataType::Float);
            let comparable = match v.data_type() {
                None => true,
                Some(t) => t == key_type || (numeric(t) && numeric(key_type)),
            };
            comparable.then_some(v)
        }
        _ => None,
    };
    Some(match end {
        Bound::Included(e) => Bound::Included(constant(e)?),
        Bound::Excluded(e) => Bound::Excluded(constant(e)?),
        Bound::Unbounded => Bound::Unbounded,
    })
}

/// If `predicate` bounds an indexed column with *constant* values
/// (literals after constant folding), plan an [`PhysicalPlan::IndexRangeScan`]
/// with the remaining conjuncts as a residual filter. One bounded end is
/// enough; a column bounded on both sides beats one bounded on one.
fn try_index_scan(predicate: &Expr, table: TableRef, schema: &SchemaRef) -> Option<PhysicalPlan> {
    let conjuncts = split_conjuncts(predicate);
    let indexed = table.read().indexed_columns();
    let mut best: Option<(usize, Ends<Value>, Vec<Expr>)> = None;
    for col in indexed {
        let key_type = schema.field(col).data_type;
        let mut probe: Ends<Value> = (Bound::Unbounded, Bound::Unbounded);
        let mut residual: Vec<Expr> = Vec::new();
        for conjunct in &conjuncts {
            // `left_width = 0` makes `extract_bounds` accept only
            // constant (column-free) bound expressions.
            let absorbed = extract_bounds(conjunct, col, 0).is_some_and(|(lo, hi)| {
                // An end that is no usable constant stays unstated here;
                // the conjunct then stays in the residual.
                let lo_const = constant_end(lo, key_type);
                let hi_const = constant_end(hi, key_type);
                let whole = lo_const.is_some() && hi_const.is_some();
                let stated = (
                    lo_const.unwrap_or(Bound::Unbounded),
                    hi_const.unwrap_or(Bound::Unbounded),
                );
                absorb(&mut probe, stated) && whole
            });
            if !absorbed {
                residual.push(conjunct.clone());
            }
        }
        let ends = |p: &Ends<Value>| {
            usize::from(p.0 != Bound::Unbounded) + usize::from(p.1 != Bound::Unbounded)
        };
        if ends(&probe) > best.as_ref().map_or(0, |(_, p, _)| ends(p)) {
            best = Some((col, probe, residual));
        }
    }
    let (column, (lo, hi), residual) = best?;
    let scan = PhysicalPlan::IndexRangeScan {
        table,
        schema: schema.clone(),
        column,
        lo,
        hi,
    };
    Some(match conjoin(residual) {
        Some(predicate) => PhysicalPlan::Filter {
            input: Box::new(scan),
            predicate,
        },
        None => scan,
    })
}

/// `plan`, and whether it delivers its rows in ascending order of column
/// `col`: an index range scan on `col`, with or without a filter on top,
/// does; a bare table scan is turned into an unbounded range scan on `col`
/// that does; any other plan comes back as it is and still needs its sort.
/// Only a `Unique` index on a NOT NULL column qualifies: a range scan never
/// returns NULL keys, and a non-unique index could order ties differently
/// from the stable sort it replaces.
fn in_index_order(plan: PhysicalPlan, col: usize) -> (PhysicalPlan, bool) {
    let orders = |table: &TableRef| {
        let guard = table.read();
        let unique = guard
            .index_on(col)
            .is_some_and(|ix| ix.kind() == IndexKind::Unique);
        unique
            && guard
                .schema()
                .fields()
                .get(col)
                .is_some_and(|f| !f.nullable)
    };
    let ranged = |plan: &PhysicalPlan| {
        matches!(plan, PhysicalPlan::IndexRangeScan { table, column, .. }
            if *column == col && orders(table))
    };
    match plan {
        PhysicalPlan::Filter { ref input, .. } if ranged(input) => (plan, true),
        PhysicalPlan::TableScan { table, schema } if orders(&table) => {
            let scan = PhysicalPlan::IndexRangeScan {
                table,
                schema,
                column: col,
                lo: Bound::Unbounded,
                hi: Bound::Unbounded,
            };
            (scan, true)
        }
        plan => {
            let ordered = ranged(&plan);
            (plan, ordered)
        }
    }
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
    lo: Bound<Expr>,
    hi: Bound<Expr>,
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
/// Strict bounds stay strict (the key need not be an integer); conjuncts
/// the probe does not fully imply become the residual.
fn try_index_join(on: &Expr, left_width: usize, indexed: &[usize]) -> Option<IndexJoin> {
    let conjuncts = split_conjuncts(on);
    for &col in indexed {
        let rc = left_width + col;
        let mut probe: Ends<Expr> = (Bound::Unbounded, Bound::Unbounded);
        let mut residual = Vec::new();
        for conjunct in &conjuncts {
            let absorbed = extract_bounds(conjunct, rc, left_width)
                .is_some_and(|stated| absorb(&mut probe, stated));
            if !absorbed {
                residual.push(conjunct.clone());
            }
        }
        // A one-sided probe would still walk half the index per left row.
        if !matches!(probe, (Bound::Unbounded, _) | (_, Bound::Unbounded)) {
            return Some(IndexJoin {
                column: col,
                lo: probe.0,
                hi: probe.1,
                residual: conjoin(residual),
            });
        }
    }
    None
}

/// If `conjunct` bounds right column `rc` by left-only expressions, return
/// the ends it states (either may be `Unbounded`).
fn extract_bounds(conjunct: &Expr, rc: usize, left_width: usize) -> Option<Ends<Expr>> {
    let is_rc = |e: &Expr| matches!(e, Expr::Column(c) if *c == rc);
    let left_only = |e: &Expr| e.referenced_columns().iter().all(|&c| c < left_width);
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
                BinaryOp::Eq => Some((Bound::Included(e.clone()), Bound::Included(e))),
                BinaryOp::GtEq => Some((Bound::Included(e), Bound::Unbounded)),
                BinaryOp::LtEq => Some((Bound::Unbounded, Bound::Included(e))),
                BinaryOp::Gt => Some((Bound::Excluded(e), Bound::Unbounded)),
                BinaryOp::Lt => Some((Bound::Unbounded, Bound::Excluded(e))),
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
                Some((
                    Bound::Included((**low).clone()),
                    Bound::Included((**high).clone()),
                ))
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
        // s2.pos > s1.pos AND s2.pos < s1.pos + 3 → range (pos, pos+3),
        // which on an integer key is [pos+1, pos+2].
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
        // One-sided: a range scan open at the other end, strict end kept.
        let plan = filter(scan.clone(), Expr::col(0).gt(Expr::lit(10i64)));
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::IndexRangeScan { .. }),
            "{}",
            phys.explain()
        );
        assert!(
            phys.explain().contains("(10 .. +inf)"),
            "{}",
            phys.explain()
        );
        assert_eq!(phys.execute().unwrap().len(), 90);
        // Non-constant bound (references a column): the conjunct stays a
        // filter; its constant end may still narrow the scan below it.
        let plan = filter(scan, Expr::col(0).between(Expr::col(1), Expr::lit(10i64)));
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::Filter { .. }),
            "{}",
            phys.explain()
        );
        assert_eq!(phys.execute().unwrap().len(), 10);
    }

    #[test]
    fn a_conjunct_leaves_the_residual_only_when_every_end_was_absorbed() {
        let (catalog, scan) = setup();
        // `pos >= 1` takes the low end; BETWEEN's low end is then not part
        // of the probe, so BETWEEN must stay as a filter.
        let plan = filter(
            scan.clone(),
            Expr::col(0)
                .gt_eq(Expr::lit(1i64))
                .and(Expr::col(0).between(Expr::lit(5i64), Expr::lit(7i64))),
        );
        let phys = plan_physical(&plan, &catalog).unwrap();
        let explain = phys.explain();
        assert!(explain.trim_start().starts_with("Filter"), "{explain}");
        assert!(
            explain.contains("IndexRangeScan: seq col#0 [1 .. 7]"),
            "{explain}"
        );
        assert_eq!(phys.execute().unwrap().len(), 3);
        // A literal the key does not compare with is no probe at all.
        let plan = filter(scan.clone(), Expr::col(0).gt(Expr::lit("x")));
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::Filter { .. }),
            "{}",
            phys.explain()
        );
        // A NULL bound is a probe that matches nothing.
        let plan = filter(scan, Expr::col(0).lt(Expr::Literal(rfv_types::Value::Null)));
        let phys = plan_physical(&plan, &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::IndexRangeScan { .. }),
            "{}",
            phys.explain()
        );
        assert!(phys.execute().unwrap().is_empty());
    }

    fn sorted(input: LogicalPlan, key: Expr, desc: bool) -> LogicalPlan {
        LogicalPlan::Sort {
            input: Box::new(input),
            keys: vec![rfv_exec::SortKey { expr: key, desc }],
        }
    }

    #[test]
    fn order_by_a_unique_not_null_key_reads_in_index_order() {
        let (catalog, scan) = setup();
        // Over a range scan on the key: the scan as is.
        let ranged = filter(scan.clone(), Expr::col(0).gt(Expr::lit(90i64)));
        let phys = plan_physical(&sorted(ranged, Expr::col(0), false), &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::IndexRangeScan { .. }),
            "{}",
            phys.explain()
        );
        let rows = phys.execute().unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.windows(2).all(|w| w[0].get(0) < w[1].get(0)));
        // Over a bare table scan: an unbounded range scan.
        let phys = plan_physical(&sorted(scan.clone(), Expr::col(0), false), &catalog).unwrap();
        assert!(
            phys.explain().contains("(-inf .. +inf)"),
            "{}",
            phys.explain()
        );
        assert_eq!(phys.execute().unwrap().len(), 100);
        // Descending, another column, or an expression still sort.
        for (key, desc) in [
            (Expr::col(0), true),
            (Expr::col(1), false),
            (Expr::col(0).add(Expr::lit(1i64)), false),
        ] {
            let phys = plan_physical(&sorted(scan.clone(), key, desc), &catalog).unwrap();
            assert!(
                matches!(phys, PhysicalPlan::Sort { .. }),
                "{}",
                phys.explain()
            );
        }
        // A non-unique index, or a nullable key, keeps the sort too.
        catalog
            .table("seq")
            .unwrap()
            .write()
            .create_index(1, IndexKind::NonUnique)
            .unwrap();
        let ranged = filter(scan, Expr::col(1).gt(Expr::lit(90.0f64)));
        let phys = plan_physical(&sorted(ranged, Expr::col(1), false), &catalog).unwrap();
        assert!(
            matches!(phys, PhysicalPlan::Sort { .. }),
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
