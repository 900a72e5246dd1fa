//! Relational operator patterns (Figs. 2, 4, 10, 13 of the paper).
//!
//! The paper's second contribution besides the algorithms themselves: each
//! computation/derivation can be phrased as a *pure relational* plan —
//! self joins with `MOD`-arithmetic predicates, `CASE` negation, grouping,
//! and a final left outer join — so that an engine **without** native
//! sequence support can still answer reporting-function queries from
//! materialized views ("applied in query rewrite directly after parsing",
//! §1).
//!
//! For the derivation patterns (Figs. 10 and 13) both variants that the
//! paper's Table 2 compares are provided:
//!
//! * [`PatternVariant::Disjunctive`] — a single self join whose ON clause
//!   ORs all series conditions together (one `O(n²)` nested loop);
//! * [`PatternVariant::UnionSimple`] — one join per series condition with
//!   a *simple* conjunctive predicate, `UNION ALL`-ed and then aggregated.
//!
//! A third variant, [`PatternVariant::UnionHash`], is an ablation beyond
//! the paper: each simple `MOD`-equality predicate is executed as a hash
//! join on the residue classes — what a modern planner would do, and the
//! mechanism behind the plan-switch the paper observed in DB2 at large `n`
//! (Table 2 rows 3000/5000).
//!
//! All plan builders take the view's window parameters and the body length
//! `n`; the view table must contain the *complete* sequence (header and
//! trailer rows, paper Fig. 7). Output schema is `(pos BIGINT, val DOUBLE)`
//! ordered by `pos`.

use std::ops::Bound;

use rfv_exec::{JoinType, PhysicalPlan, SortKey};
use rfv_expr::Expr;
use rfv_storage::Catalog;
use rfv_types::{DataType, Field, Result, RfvError, Schema, SchemaRef};

use crate::derive::maxoa;

/// How a derivation pattern executes its disjunctive series predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternVariant {
    /// Single nested-loop self join with an ORed predicate (paper default).
    Disjunctive,
    /// UNION ALL of nested-loop joins with simple predicates (paper's
    /// comparison point).
    UnionSimple,
    /// UNION ALL of *hash* joins on `MOD` residue classes (ablation).
    UnionHash,
}

fn out_schema() -> SchemaRef {
    SchemaRef::new(Schema::new(vec![
        Field::not_null("pos", DataType::Int),
        Field::new("val", DataType::Float),
    ]))
}

fn scan(catalog: &Catalog, table: &str, alias: &str) -> Result<PhysicalPlan> {
    let t = catalog.table(table)?;
    let schema = SchemaRef::new(t.read().schema().qualified(alias));
    Ok(PhysicalPlan::TableScan { table: t, schema })
}

/// `CASE WHEN cond THEN 1 ELSE 0 END` — coefficient building block.
fn indicator(cond: Expr) -> Expr {
    Expr::Case {
        branches: vec![(cond, Expr::lit(1i64))],
        else_expr: Some(Box::new(Expr::lit(0i64))),
    }
}

/// `MOD(a, m) = 0` with `m` a literal.
fn divisible(a: Expr, m: i64) -> Expr {
    a.modulo(Expr::lit(m)).eq(Expr::lit(0i64))
}

// Column layout inside the join: s1.pos=#0, s1.val=#1, s2.pos=#2, s2.val=#3.
const S1_POS: usize = 0;
#[allow(dead_code)]
const S1_VAL: usize = 1;
const S2_POS: usize = 2;
const S2_VAL: usize = 3;

/// One series of a derivation pattern: positions `anchor + offset − i·w`
/// for `i ≥ i_min`, with a ±1 coefficient.
struct Series {
    /// s2.pos ≡ s1.pos + shift (mod w), scanning downwards/upwards.
    shift: i64,
    /// Lowest admissible `i` (0 ⇒ the head itself, 1 ⇒ strictly shifted).
    i_min: i64,
    /// `true` for downward series (`s2.pos = s1.pos + shift − i·w`),
    /// `false` for upward (`s2.pos = s1.pos + shift + i·w`).
    downward: bool,
    positive: bool,
}

impl Series {
    /// The join condition for this series over `(s1 ++ s2)`.
    fn condition(&self, w: i64) -> Expr {
        let s1 = Expr::col(S1_POS);
        let s2 = Expr::col(S2_POS);
        if self.downward {
            // d = s1.pos + shift − s2.pos = i·w, i ≥ i_min.
            let d = s1.add(Expr::lit(self.shift)).sub(s2);
            let range = if self.i_min == 0 {
                d.clone().gt_eq(Expr::lit(0i64))
            } else {
                d.clone().gt_eq(Expr::lit(self.i_min * w))
            };
            range.and(divisible(d, w))
        } else {
            // d = s2.pos − s1.pos − shift = i·w, i ≥ i_min.
            let d = Expr::col(S2_POS)
                .sub(Expr::col(S1_POS))
                .sub(Expr::lit(self.shift));
            let range = if self.i_min == 0 {
                d.clone().gt_eq(Expr::lit(0i64))
            } else {
                d.clone().gt_eq(Expr::lit(self.i_min * w))
            };
            range.and(divisible(d, w))
        }
    }

    /// Hash-join keys `(left_key over s1 row, right_key over s2 row)` for
    /// the residue-class equality, plus the residual range condition.
    fn hash_keys(&self, w: i64) -> (Expr, Expr) {
        // s2.pos ≡ s1.pos + shift (mod w)  ⟺
        // MOD(MOD(s1.pos + shift, w) + w, w) = MOD(MOD(s2.pos, w) + w, w)
        // (double-MOD normalizes negative dividends).
        let norm = |e: Expr| {
            e.modulo(Expr::lit(w))
                .add(Expr::lit(w))
                .modulo(Expr::lit(w))
        };
        let left = norm(Expr::col(0).add(Expr::lit(self.shift)));
        let right = norm(Expr::col(0)); // over the s2-local row
        (left, right)
    }

    /// Residual range predicate over `(s1 ++ s2)` for the hash variant.
    fn range_condition(&self, w: i64) -> Expr {
        let s1 = Expr::col(S1_POS);
        let s2 = Expr::col(S2_POS);
        if self.downward {
            let d = s1.add(Expr::lit(self.shift)).sub(s2);
            d.gt_eq(Expr::lit(self.i_min * w))
        } else {
            let d = s2.sub(s1).sub(Expr::lit(self.shift));
            d.gt_eq(Expr::lit(self.i_min * w))
        }
    }
}

/// Fig. 2: compute an `(l, h)` sliding-window SUM over raw table
/// `table(pos, val)` with a self join —
/// `s1 ⋈ s2 ON s2.pos BETWEEN s1.pos−l AND s1.pos+h`, grouped by `s1.pos`.
///
/// `use_index = true` plans the probe side through the table's position
/// index (the paper's "with primary key index" configuration); `false`
/// forces the quadratic nested loop.
pub fn self_join_window(
    catalog: &Catalog,
    table: &str,
    l: i64,
    h: i64,
    use_index: bool,
) -> Result<PhysicalPlan> {
    if l < 0 || h < 0 {
        return Err(RfvError::derivation(format!(
            "window ({l},{h}) must be non-negative"
        )));
    }
    let s1 = scan(catalog, table, "s1")?;
    let join = if use_index {
        let t = catalog.table(table)?;
        let right_schema = SchemaRef::new(t.read().schema().qualified("s2"));
        PhysicalPlan::IndexNestedLoopJoin {
            left: Box::new(s1),
            right_table: t,
            right_schema,
            right_column: 0,
            lo_expr: Bound::Included(Expr::col(S1_POS).sub(Expr::lit(l))),
            hi_expr: Bound::Included(Expr::col(S1_POS).add(Expr::lit(h))),
            residual: None,
            join_type: JoinType::Inner,
        }
    } else {
        let s2 = scan(catalog, table, "s2")?;
        let on = Expr::col(S2_POS).between(
            Expr::col(S1_POS).sub(Expr::lit(l)),
            Expr::col(S1_POS).add(Expr::lit(h)),
        );
        PhysicalPlan::NestedLoopJoin {
            left: Box::new(s1),
            right: Box::new(s2),
            on: Some(on),
            join_type: JoinType::Inner,
        }
    };
    let agg = PhysicalPlan::HashAggregate {
        input: Box::new(join),
        group_exprs: vec![Expr::col(S1_POS)],
        aggregates: vec![(rfv_expr::AggFunc::Sum, Some(Expr::col(S2_VAL)))],
        schema: out_schema(),
    };
    Ok(PhysicalPlan::Sort {
        input: Box::new(agg),
        keys: vec![SortKey::asc(Expr::col(0))],
    })
}

/// Fig. 4: reconstruct raw values from a materialized *cumulative* view
/// `view(pos, val)` — self join on `s2.pos IN (s1.pos−1, s1.pos)` with a
/// `CASE` negating the predecessor, summed per position.
pub fn reconstruct_raw_from_cumulative(
    catalog: &Catalog,
    view_table: &str,
) -> Result<PhysicalPlan> {
    let s1 = scan(catalog, view_table, "s1")?;
    let s2 = scan(catalog, view_table, "s2")?;
    let on = Expr::col(S2_POS).in_list(vec![
        Expr::col(S1_POS).sub(Expr::lit(1i64)),
        Expr::col(S1_POS),
    ]);
    let join = PhysicalPlan::NestedLoopJoin {
        left: Box::new(s1),
        right: Box::new(s2),
        on: Some(on),
        join_type: JoinType::Inner,
    };
    // SUM(CASE WHEN s1.pos = s2.pos THEN s2.val ELSE −s2.val END)
    let signed = Expr::Case {
        branches: vec![(Expr::col(S1_POS).eq(Expr::col(S2_POS)), Expr::col(S2_VAL))],
        else_expr: Some(Box::new(Expr::col(S2_VAL).neg())),
    };
    let agg = PhysicalPlan::HashAggregate {
        input: Box::new(join),
        group_exprs: vec![Expr::col(S1_POS)],
        aggregates: vec![(rfv_expr::AggFunc::Sum, Some(signed))],
        schema: out_schema(),
    };
    Ok(PhysicalPlan::Sort {
        input: Box::new(agg),
        keys: vec![SortKey::asc(Expr::col(0))],
    })
}

/// Fig. 10: the MaxOA derivation pattern. Derives the `(l_y, h_y)` query
/// from complete view table `view(pos, val)` with window `(l_x, h_x)` and
/// body length `n`. Requires the MaxOA preconditions (§4).
#[allow(clippy::too_many_arguments)] // mirrors the paper's (x̃, ỹ, n) parameterization
pub fn maxoa_pattern(
    catalog: &Catalog,
    view_table: &str,
    lx: i64,
    hx: i64,
    ly: i64,
    hy: i64,
    n: i64,
    variant: PatternVariant,
) -> Result<PhysicalPlan> {
    let f = maxoa::factors(lx, hx, ly, hy)?;
    let w = lx + hx + 1;
    // Each side contributes a ± pair; with Δ = 0 the pair cancels
    // identically (the explicit form's bracket is zero) and is omitted.
    let mut series = Vec::new();
    if f.delta_l > 0 {
        // Lower positive: s2.pos = s1.pos − i·w, i ≥ 1.
        series.push(Series {
            shift: 0,
            i_min: 1,
            downward: true,
            positive: true,
        });
        // Lower negative: s2.pos = s1.pos − Δl − i·w, i ≥ 1.
        series.push(Series {
            shift: -f.delta_l,
            i_min: 1,
            downward: true,
            positive: false,
        });
    }
    if f.delta_h > 0 {
        // Upper positive: s2.pos = s1.pos + i·w, i ≥ 1.
        series.push(Series {
            shift: 0,
            i_min: 1,
            downward: false,
            positive: true,
        });
        // Upper negative: s2.pos = s1.pos + Δh + i·w, i ≥ 1.
        series.push(Series {
            shift: f.delta_h,
            i_min: 1,
            downward: false,
            positive: false,
        });
    }
    if series.is_empty() {
        // Identity derivation: the view body *is* the answer.
        let body = PhysicalPlan::Filter {
            input: Box::new(scan(catalog, view_table, "s")?),
            predicate: Expr::col(0).between(Expr::lit(1i64), Expr::lit(n)),
        };
        return Ok(PhysicalPlan::Sort {
            input: Box::new(body),
            keys: vec![SortKey::asc(Expr::col(0))],
        });
    }
    derivation_pattern(catalog, view_table, w, n, &series, true, variant)
}

/// Fig. 13: the MinOA derivation pattern. No window-size precondition —
/// any `(l_y, h_y)` is derivable from a complete `(l_x, h_x)` view.
#[allow(clippy::too_many_arguments)] // mirrors the paper's (x̃, ỹ, n) parameterization
pub fn minoa_pattern(
    catalog: &Catalog,
    view_table: &str,
    lx: i64,
    hx: i64,
    ly: i64,
    hy: i64,
    n: i64,
    variant: PatternVariant,
) -> Result<PhysicalPlan> {
    if lx < 0 || hx < 0 || ly < 0 || hy < 0 {
        return Err(RfvError::derivation(
            "window parameters must be non-negative",
        ));
    }
    let w = lx + hx + 1;
    let delta_l = ly - lx;
    let delta_h = hy - hx;
    let series = vec![
        // Positive: s2.pos = s1.pos + Δh − i·w, i ≥ 0.
        Series {
            shift: delta_h,
            i_min: 0,
            downward: true,
            positive: true,
        },
        // Negative: s2.pos = s1.pos − Δl − i·w, i ≥ 1.
        Series {
            shift: -delta_l,
            i_min: 1,
            downward: true,
            positive: false,
        },
    ];
    derivation_pattern(catalog, view_table, w, n, &series, false, variant)
}

/// Shared skeleton of Figs. 10/13: filter the view body (positions
/// `1..=n`), join against the full view per the series conditions, sum the
/// signed contributions per position, and stitch with a left outer join so
/// positions without compensation terms survive.
fn derivation_pattern(
    catalog: &Catalog,
    view_table: &str,
    w: i64,
    n: i64,
    series: &[Series],
    add_self: bool,
    variant: PatternVariant,
) -> Result<PhysicalPlan> {
    let body = |alias: &str| -> Result<PhysicalPlan> {
        Ok(PhysicalPlan::Filter {
            input: Box::new(scan(catalog, view_table, alias)?),
            predicate: Expr::col(0).between(Expr::lit(1i64), Expr::lit(n)),
        })
    };

    // (pos, term) rows of all series contributions.
    let terms: PhysicalPlan = match variant {
        PatternVariant::Disjunctive => {
            let on = series
                .iter()
                .map(|s| s.condition(w))
                .reduce(|a, b| a.or(b))
                .ok_or_else(|| RfvError::internal("derivation pattern needs ≥ 1 series"))?;
            let join = PhysicalPlan::NestedLoopJoin {
                left: Box::new(body("s1")?),
                right: Box::new(scan(catalog, view_table, "s2")?),
                on: Some(on),
                join_type: JoinType::Inner,
            };
            // Signed coefficient: Σ ±[condition] — conditions can coincide
            // (Δ ≡ 0 mod w), in which case the contributions cancel.
            let coeff = series
                .iter()
                .map(|s| {
                    let ind = indicator(s.condition(w));
                    if s.positive {
                        ind
                    } else {
                        ind.neg()
                    }
                })
                .reduce(|a, b| a.add(b))
                .ok_or_else(|| RfvError::internal("derivation pattern needs ≥ 1 series"))?;
            PhysicalPlan::Project {
                input: Box::new(join),
                exprs: vec![Expr::col(S1_POS), coeff.mul(Expr::col(S2_VAL))],
                schema: out_schema(),
            }
        }
        PatternVariant::UnionSimple | PatternVariant::UnionHash => {
            let mut branches = Vec::new();
            for s in series {
                let join = match variant {
                    PatternVariant::UnionSimple => PhysicalPlan::NestedLoopJoin {
                        left: Box::new(body("s1")?),
                        right: Box::new(scan(catalog, view_table, "s2")?),
                        on: Some(s.condition(w)),
                        join_type: JoinType::Inner,
                    },
                    PatternVariant::UnionHash => {
                        let (lk, rk) = s.hash_keys(w);
                        PhysicalPlan::HashJoin {
                            left: Box::new(body("s1")?),
                            right: Box::new(scan(catalog, view_table, "s2")?),
                            left_keys: vec![lk],
                            right_keys: vec![rk],
                            residual: Some(s.range_condition(w)),
                            join_type: JoinType::Inner,
                        }
                    }
                    PatternVariant::Disjunctive => {
                        return Err(RfvError::internal(
                            "disjunctive variant in union branch emitter",
                        ))
                    }
                };
                let term = if s.positive {
                    Expr::col(S2_VAL)
                } else {
                    Expr::col(S2_VAL).neg()
                };
                branches.push(PhysicalPlan::Project {
                    input: Box::new(join),
                    exprs: vec![Expr::col(S1_POS), term],
                    schema: out_schema(),
                });
            }
            PhysicalPlan::UnionAll { inputs: branches }
        }
    };

    // Σ terms per position.
    let comp = PhysicalPlan::HashAggregate {
        input: Box::new(terms),
        group_exprs: vec![Expr::col(0)],
        aggregates: vec![(rfv_expr::AggFunc::Sum, Some(Expr::col(1)))],
        schema: out_schema(),
    };

    // Stitch: body LEFT OUTER JOIN comp ON pos = pos, preserving positions
    // with no compensation terms (paper: "to preserve the original sequence
    // values at the lower positions").
    let stitched = PhysicalPlan::HashJoin {
        left: Box::new(body("s")?),
        right: Box::new(comp),
        left_keys: vec![Expr::col(0)],
        right_keys: vec![Expr::col(0)],
        residual: None,
        join_type: JoinType::LeftOuter,
    };
    // Final value: s.val + COALESCE(comp, 0) for MaxOA (the x̃_k term),
    // plain COALESCE(comp, 0) for MinOA.
    let value = if add_self {
        Expr::col(1).add(Expr::Coalesce(vec![Expr::col(3), Expr::lit(0.0f64)]))
    } else {
        Expr::Coalesce(vec![Expr::col(3), Expr::lit(0.0f64)])
    };
    let projected = PhysicalPlan::Project {
        input: Box::new(stitched),
        exprs: vec![Expr::col(0), value],
        schema: out_schema(),
    };
    Ok(PhysicalPlan::Sort {
        input: Box::new(projected),
        keys: vec![SortKey::asc(Expr::col(0))],
    })
}

/// Materialize a complete `(l, h)` SUM view of raw table `table(pos, val)`
/// into a new table `view_name(pos, val)` with a unique position index —
/// the storage half of `CREATE MATERIALIZED VIEW` used by tests and
/// benches that drive the patterns directly.
pub fn materialize_view_table(
    catalog: &Catalog,
    table: &str,
    view_name: &str,
    l: i64,
    h: i64,
) -> Result<crate::sequence::CompleteSequence> {
    use rfv_types::row;

    let base = catalog.table(table)?;
    let mut rows: Vec<(i64, f64)> = base
        .read()
        .scan()
        .map(|(_, r)| {
            let pos = r
                .get(0)
                .as_int()?
                .ok_or_else(|| RfvError::derivation("NULL position in sequence table"))?;
            let val = r.get(1).as_f64()?.unwrap_or(0.0);
            Ok((pos, val))
        })
        .collect::<Result<_>>()?;
    rows.sort_by_key(|(p, _)| *p);
    for (i, (p, _)) in rows.iter().enumerate() {
        if *p != i as i64 + 1 {
            return Err(RfvError::derivation(format!(
                "sequence table `{table}` must have dense positions 1..=n \
                 (found {p} at rank {})",
                i + 1
            )));
        }
    }
    let raw: Vec<f64> = rows.into_iter().map(|(_, v)| v).collect();
    let seq = crate::sequence::CompleteSequence::materialize(&raw, l, h)?;

    let view = catalog.create_table(
        view_name,
        Schema::new(vec![
            Field::not_null("pos", DataType::Int),
            Field::new("val", DataType::Float),
        ]),
    )?;
    {
        let mut guard = view.write();
        for (pos, val) in seq.entries() {
            guard.insert(row![pos, val])?;
        }
        guard.create_index(0, rfv_storage::IndexKind::Unique)?;
    }
    Ok(seq)
}

// ---------------------------------------------------------------------------
// Paper-SQL emitters: the textual form of the patterns, as an engine's
// query-rewrite layer would inject them ("applied in query rewrite directly
// after parsing", §1). The golden tests pin these strings; they also parse
// and execute through [`crate::Database`], so the emitted SQL is checked
// against the plan-level builders above, not just eyeballed.

/// Fig. 2 as SQL: an `(l, h)` sliding-window SUM over `table(pos, val)`
/// via a self join with a `BETWEEN` predicate, grouped by position.
pub fn self_join_sql(table: &str, l: i64, h: i64) -> String {
    format!(
        "SELECT s1.pos AS pos, SUM(s2.val) AS val \
         FROM {table} s1, {table} s2 \
         WHERE s2.pos BETWEEN s1.pos - {l} AND s1.pos + {h} \
         GROUP BY s1.pos ORDER BY s1.pos"
    )
}

/// Render one series condition (`d = i·w, i ≥ i_min`) as SQL over
/// aliases `s1`/`s2`.
fn series_sql(s: &Series, w: i64) -> String {
    let d = if s.downward {
        match s.shift.cmp(&0) {
            std::cmp::Ordering::Equal => "s1.pos - s2.pos".to_string(),
            std::cmp::Ordering::Greater => format!("s1.pos + {} - s2.pos", s.shift),
            std::cmp::Ordering::Less => format!("s1.pos - {} - s2.pos", -s.shift),
        }
    } else {
        match s.shift.cmp(&0) {
            std::cmp::Ordering::Equal => "s2.pos - s1.pos".to_string(),
            std::cmp::Ordering::Greater => format!("s2.pos - s1.pos - {}", s.shift),
            std::cmp::Ordering::Less => format!("s2.pos - s1.pos + {}", -s.shift),
        }
    };
    format!("({d} >= {} AND MOD({d}, {w}) = 0)", s.i_min * w)
}

/// Shared SQL skeleton of Figs. 10/13 in the disjunctive form: compensation
/// terms via a self join of the view, summed per position, stitched back
/// with a left outer join.
fn derivation_sql(view_table: &str, w: i64, n: i64, series: &[Series], add_self: bool) -> String {
    let on = series
        .iter()
        .map(|s| series_sql(s, w))
        .collect::<Vec<_>>()
        .join(" OR ");
    let coeff = series
        .iter()
        .map(|s| {
            let ind = format!("CASE WHEN {} THEN 1 ELSE 0 END", series_sql(s, w));
            if s.positive {
                ind
            } else {
                format!("- {ind}")
            }
        })
        .collect::<Vec<_>>()
        .join(" + ");
    let value = if add_self {
        "s.val + COALESCE(c.val, 0)"
    } else {
        "COALESCE(c.val, 0)"
    };
    format!(
        "SELECT s.pos AS pos, {value} AS val \
         FROM {view_table} s LEFT OUTER JOIN \
         (SELECT s1.pos AS pos, SUM(({coeff}) * s2.val) AS val \
          FROM {view_table} s1, {view_table} s2 \
          WHERE s1.pos BETWEEN 1 AND {n} AND ({on}) \
          GROUP BY s1.pos) c \
         ON s.pos = c.pos \
         WHERE s.pos BETWEEN 1 AND {n} ORDER BY s.pos"
    )
}

/// Fig. 10 as SQL: the MaxOA derivation pattern over a complete `(lx, hx)`
/// view table. Errors if MaxOA's precondition (`Δ ≤ w`) is violated.
pub fn maxoa_sql(view_table: &str, lx: i64, hx: i64, ly: i64, hy: i64, n: i64) -> Result<String> {
    let f = maxoa::factors(lx, hx, ly, hy)?;
    let w = lx + hx + 1;
    let mut series = Vec::new();
    if f.delta_l > 0 {
        series.push(Series {
            shift: 0,
            i_min: 1,
            downward: true,
            positive: true,
        });
        series.push(Series {
            shift: -f.delta_l,
            i_min: 1,
            downward: true,
            positive: false,
        });
    }
    if f.delta_h > 0 {
        series.push(Series {
            shift: 0,
            i_min: 1,
            downward: false,
            positive: true,
        });
        series.push(Series {
            shift: f.delta_h,
            i_min: 1,
            downward: false,
            positive: false,
        });
    }
    if series.is_empty() {
        return Ok(format!(
            "SELECT pos, val FROM {view_table} \
             WHERE pos BETWEEN 1 AND {n} ORDER BY pos"
        ));
    }
    Ok(derivation_sql(view_table, w, n, &series, true))
}

/// Fig. 13 as SQL: the MinOA derivation pattern — no precondition.
pub fn minoa_sql(view_table: &str, lx: i64, hx: i64, ly: i64, hy: i64, n: i64) -> Result<String> {
    if lx < 0 || hx < 0 || ly < 0 || hy < 0 {
        return Err(RfvError::derivation(
            "window parameters must be non-negative",
        ));
    }
    let w = lx + hx + 1;
    let series = vec![
        Series {
            shift: hy - hx,
            i_min: 0,
            downward: true,
            positive: true,
        },
        Series {
            shift: -(ly - lx),
            i_min: 1,
            downward: true,
            positive: false,
        },
    ];
    Ok(derivation_sql(view_table, w, n, &series, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::brute_force_sum;
    use rfv_storage::IndexKind;
    use rfv_types::{row, Value};

    fn setup(raw: &[f64]) -> Catalog {
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
        let mut g = t.write();
        for (i, &v) in raw.iter().enumerate() {
            g.insert(row![(i + 1) as i64, v]).unwrap();
        }
        g.create_index(0, IndexKind::Unique).unwrap();
        drop(g);
        catalog
    }

    fn result_vals(plan: &PhysicalPlan) -> Vec<f64> {
        plan.execute()
            .unwrap()
            .into_iter()
            .map(|r| r.get(1).as_f64().unwrap().unwrap())
            .collect()
    }

    #[test]
    fn fig2_self_join_window_both_modes() {
        let raw: Vec<f64> = (1..=10).map(f64::from).collect();
        let catalog = setup(&raw);
        let expected = brute_force_sum(&raw, 1, 1);
        for use_index in [false, true] {
            let plan = self_join_window(&catalog, "seq", 1, 1, use_index).unwrap();
            assert_eq!(result_vals(&plan), expected, "use_index={use_index}");
        }
    }

    #[test]
    fn fig2_plan_shapes_differ_by_index() {
        let catalog = setup(&[1.0, 2.0]);
        let nl = self_join_window(&catalog, "seq", 1, 1, false)
            .unwrap()
            .explain();
        let ix = self_join_window(&catalog, "seq", 1, 1, true)
            .unwrap()
            .explain();
        assert!(nl.contains("NestedLoopJoin"), "{nl}");
        assert!(ix.contains("IndexNestedLoopJoin"), "{ix}");
    }

    #[test]
    fn fig4_raw_reconstruction_from_cumulative() {
        let raw = [3.0, -1.0, 4.0, 1.0, -5.0, 9.0];
        let catalog = setup(&raw);
        // Materialize a cumulative view manually: (pos, running sum).
        let view = catalog
            .create_table(
                "cumv",
                Schema::new(vec![
                    Field::not_null("pos", DataType::Int),
                    Field::new("val", DataType::Float),
                ]),
            )
            .unwrap();
        {
            let mut g = view.write();
            let mut sum = 0.0;
            for (i, &v) in raw.iter().enumerate() {
                sum += v;
                g.insert(row![(i + 1) as i64, sum]).unwrap();
            }
        }
        let plan = reconstruct_raw_from_cumulative(&catalog, "cumv").unwrap();
        let vals = result_vals(&plan);
        for (a, b) in vals.iter().zip(&raw) {
            assert!((a - b).abs() < 1e-9, "{vals:?}");
        }
    }

    #[test]
    fn materialize_view_table_stores_complete_sequence() {
        let raw: Vec<f64> = (1..=6).map(f64::from).collect();
        let catalog = setup(&raw);
        let seq = materialize_view_table(&catalog, "seq", "mv", 2, 1).unwrap();
        let view = catalog.table("mv").unwrap();
        let stored = view.read().stats().row_count as i64;
        // Positions 1−h ..= n+l = 0..=8 → 9 rows.
        assert_eq!(stored, 9);
        assert_eq!(seq.n(), 6);
        // Header row present:
        let hits = view.read().index_lookup(0, &Value::Int(0)).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn materialize_rejects_sparse_positions() {
        let catalog = Catalog::new();
        let t = catalog
            .create_table(
                "gap",
                Schema::new(vec![
                    Field::not_null("pos", DataType::Int),
                    Field::new("val", DataType::Float),
                ]),
            )
            .unwrap();
        t.write().insert(row![1i64, 1.0]).unwrap();
        t.write().insert(row![3i64, 3.0]).unwrap();
        assert!(materialize_view_table(&catalog, "gap", "mv", 1, 1).is_err());
    }

    #[test]
    fn fig10_maxoa_pattern_all_variants() {
        let raw: Vec<f64> = (1..=20).map(|i| f64::from(i * i % 13)).collect();
        let catalog = setup(&raw);
        materialize_view_table(&catalog, "seq", "mv", 2, 1).unwrap();
        let expected = brute_force_sum(&raw, 3, 1);
        for variant in [
            PatternVariant::Disjunctive,
            PatternVariant::UnionSimple,
            PatternVariant::UnionHash,
        ] {
            let plan =
                maxoa_pattern(&catalog, "mv", 2, 1, 3, 1, raw.len() as i64, variant).unwrap();
            let vals = result_vals(&plan);
            for (i, (a, b)) in vals.iter().zip(&expected).enumerate() {
                assert!(
                    (a - b).abs() < 1e-6,
                    "{variant:?} pos {}: {a} vs {b}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn fig10_maxoa_double_sided() {
        let raw: Vec<f64> = (1..=25).map(|i| f64::from((i * 7) % 11)).collect();
        let catalog = setup(&raw);
        materialize_view_table(&catalog, "seq", "mv", 2, 2).unwrap();
        let expected = brute_force_sum(&raw, 4, 3);
        let plan = maxoa_pattern(
            &catalog,
            "mv",
            2,
            2,
            4,
            3,
            raw.len() as i64,
            PatternVariant::Disjunctive,
        )
        .unwrap();
        let vals = result_vals(&plan);
        for (a, b) in vals.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-6, "{vals:?}\n{expected:?}");
        }
    }

    #[test]
    fn fig13_minoa_pattern_all_variants() {
        let raw: Vec<f64> = (1..=20).map(|i| f64::from((3 * i) % 17)).collect();
        let catalog = setup(&raw);
        materialize_view_table(&catalog, "seq", "mv", 2, 1).unwrap();
        for (ly, hy) in [(3, 1), (4, 2), (1, 0), (7, 5)] {
            let expected = brute_force_sum(&raw, ly, hy);
            for variant in [
                PatternVariant::Disjunctive,
                PatternVariant::UnionSimple,
                PatternVariant::UnionHash,
            ] {
                let plan =
                    minoa_pattern(&catalog, "mv", 2, 1, ly, hy, raw.len() as i64, variant).unwrap();
                let vals = result_vals(&plan);
                for (i, (a, b)) in vals.iter().zip(&expected).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-6,
                        "{variant:?} ({ly},{hy}) pos {}: {a} vs {b}",
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    fn maxoa_pattern_respects_preconditions() {
        let catalog = setup(&[1.0, 2.0, 3.0]);
        materialize_view_table(&catalog, "seq", "mv", 1, 1).unwrap();
        // Δl = 4 > w = 3 → rejected.
        assert!(maxoa_pattern(&catalog, "mv", 1, 1, 5, 1, 3, PatternVariant::Disjunctive).is_err());
    }

    #[test]
    fn pattern_output_positions_are_exactly_the_body() {
        let raw: Vec<f64> = (1..=7).map(f64::from).collect();
        let catalog = setup(&raw);
        materialize_view_table(&catalog, "seq", "mv", 2, 1).unwrap();
        let plan =
            minoa_pattern(&catalog, "mv", 2, 1, 3, 1, 7, PatternVariant::UnionSimple).unwrap();
        let rows = plan.execute().unwrap();
        let positions: Vec<i64> = rows
            .iter()
            .map(|r| r.get(0).as_int().unwrap().unwrap())
            .collect();
        assert_eq!(positions, (1..=7).collect::<Vec<_>>());
    }
}
