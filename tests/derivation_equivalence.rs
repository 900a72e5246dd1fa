//! Property-based integration tests: every derivation path — algebraic
//! evaluators, relational operator patterns, and the SQL-level rewriter —
//! must agree with brute-force recomputation for random data and window
//! shapes.
//!
//! The heart of the file is a [`rfv_testkit::DiffMatrix`]: each engine
//! computation path registers as a strategy, and the matrix asserts they
//! all produce the same body values as the testkit's independent
//! brute-force oracle. Failures replay exactly via the printed `RFV_SEED`.

use rfv_core::derive::{self, cumulative, linear, maxoa, minoa};
use rfv_core::patterns::{self, PatternVariant};
use rfv_core::sequence::{CompleteSequence, CumulativeSequence};
use rfv_core::{compute, Database, WindowSpec};
use rfv_storage::Catalog;
use rfv_testkit::{check_config, gen, oracle, DiffMatrix};
use rfv_types::{row, DataType, Field, Schema};

fn setup_catalog(raw: &[f64]) -> Catalog {
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
    g.create_index(0, rfv_storage::IndexKind::Unique).unwrap();
    drop(g);
    catalog
}

fn plan_body_values(plan: &rfv_exec::PhysicalPlan) -> Vec<f64> {
    plan.execute()
        .unwrap()
        .iter()
        .map(|r| r.get(1).as_f64().unwrap().unwrap())
        .collect()
}

/// The one-pass kernels queries run (`derive::linear`), each as a matrix
/// strategy deriving the `(l, h)` target from the `(lx, hx)` view of the
/// matrix's raw data: MinOA as strided prefix-sum lookups; the cumulative
/// sequence from the view and back by two-point difference; the raw values
/// re-windowed; and the §6.2 reduction of the data cut into partitions.
fn with_linear_kernels<'a>(
    matrix: DiffMatrix<'a>,
    view: &'a CompleteSequence,
    lx: i64,
    hx: i64,
) -> DiffMatrix<'a> {
    matrix
        .strategy("linear::sliding_from_sliding", move |_raw, l, h| {
            linear::sliding_from_sliding(view, l, h).map_err(|e| e.to_string())
        })
        .strategy(
            "linear::cumulative_from_sliding, two-point difference",
            move |_raw, l, h| {
                let running =
                    CumulativeSequence::from_values(linear::cumulative_from_sliding(view));
                cumulative::sliding_from_cumulative(&running, l, h).map_err(|e| e.to_string())
            },
        )
        .strategy(
            "linear::raw_from_sliding, re-windowed",
            move |_raw, l, h| {
                CompleteSequence::materialize(&linear::raw_from_sliding(view), l, h)
                    .map(|seq| seq.body())
                    .map_err(|e| e.to_string())
            },
        )
        .strategy("linear::reduce_partitions", move |raw, l, h| {
            let parts = raw
                .chunks(raw.len().div_ceil(3).max(1))
                .map(|part| CompleteSequence::materialize(part, lx, hx))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            linear::reduce_partitions(&parts, l, h).map_err(|e| e.to_string())
        })
}

/// The full differential matrix: direct evaluators, algebraic derivation
/// (MinOA always, explicit and one-pass; MaxOA where its precondition
/// holds), and the relational operator patterns in every variant — all
/// against the brute-force oracle and therefore against each other.
#[test]
fn all_computation_paths_agree() {
    check_config(
        48,
        "all_computation_paths_agree",
        |rng| (gen::int_values(1, 35)(rng), gen::widening(3, 4)(rng)),
        |&(ref raw, (lx, hx, dl, dh))| {
            let n = raw.len() as i64;
            let (ly, hy) = (lx + dl, hx + dh);
            let view = CompleteSequence::materialize(raw, lx, hx).unwrap();
            let catalog = setup_catalog(raw);
            patterns::materialize_view_table(&catalog, "seq", "mv", lx, hx).unwrap();

            let w = lx + hx + 1;
            let mut matrix = DiffMatrix::new()
                .tolerance(1e-6)
                .strategy("compute_explicit", |raw, l, h| {
                    let spec = WindowSpec::sliding(l, h).map_err(|e| e.to_string())?;
                    Ok(compute::compute_explicit(raw, spec))
                })
                .strategy("compute_pipelined", |raw, l, h| {
                    let spec = WindowSpec::sliding(l, h).map_err(|e| e.to_string())?;
                    Ok(compute::compute_pipelined(raw, spec))
                })
                .strategy("minoa::derive_sum", {
                    let view = view.clone();
                    move |_raw, l, h| minoa::derive_sum(&view, l, h).map_err(|e| e.to_string())
                })
                .strategy("maxoa::derive_sum", {
                    let view = view.clone();
                    move |_raw, l, h| maxoa::derive_sum(&view, l, h).map_err(|e| e.to_string())
                })
                .strategy("maxoa::derive_sum_recursive", {
                    let view = view.clone();
                    move |_raw, l, h| {
                        maxoa::derive_sum_recursive(&view, l, h).map_err(|e| e.to_string())
                    }
                });
            matrix = with_linear_kernels(matrix, &view, lx, hx);
            for variant in [
                PatternVariant::Disjunctive,
                PatternVariant::UnionSimple,
                PatternVariant::UnionHash,
            ] {
                let minoa_plan =
                    patterns::minoa_pattern(&catalog, "mv", lx, hx, ly, hy, n, variant).unwrap();
                matrix = matrix.strategy(
                    match variant {
                        PatternVariant::Disjunctive => "minoa_pattern(disjunctive)",
                        PatternVariant::UnionSimple => "minoa_pattern(union)",
                        PatternVariant::UnionHash => "minoa_pattern(union_hash)",
                    },
                    move |_raw, _l, _h| Ok(plan_body_values(&minoa_plan)),
                );
            }
            if dl <= w && dh <= w {
                let maxoa_plan = patterns::maxoa_pattern(
                    &catalog,
                    "mv",
                    lx,
                    hx,
                    ly,
                    hy,
                    n,
                    PatternVariant::Disjunctive,
                )
                .unwrap();
                matrix = matrix.strategy("maxoa_pattern(disjunctive)", move |_raw, _l, _h| {
                    Ok(plan_body_values(&maxoa_plan))
                });
            }

            let ran = matrix.check(raw, ly, hy);
            // MaxOA's algebraic strategies may skip (precondition), but the
            // evaluators, MinOA in both forms, the other one-pass kernels
            // and the three MinOA patterns always run.
            assert!(ran >= 10, "only {ran} strategies ran");
        },
    );
}

/// The one-pass kernels on every target shape MinOA admits — wider,
/// narrower, the collision `Δl + Δh ≡ 0 (mod w_x)` where the positive and
/// negative series share positions, and wider than the data — next to the
/// explicit form, against brute force.
#[test]
fn linear_kernels_agree_on_every_target_shape() {
    check_config(
        48,
        "linear_kernels_agree_on_every_target_shape",
        |rng| {
            let raw = gen::int_values(1, 35)(rng);
            let (lx, hx) = gen::window(3)(rng);
            let (w, n) = (lx + hx + 1, raw.len() as i64);
            let (ly, hy) = match rng.u64_below(4) {
                0 => (lx + rng.i64_in(0, 6), hx + rng.i64_in(0, 6)),
                1 => (rng.i64_in(0, lx), rng.i64_in(0, hx)),
                2 => {
                    let dl = rng.i64_in(0, 2 * w);
                    (lx + dl, hx + 2 * w - dl)
                }
                _ => (n + rng.i64_in(0, 5), n + rng.i64_in(0, 5)),
            };
            (raw, lx, hx, ly, hy)
        },
        |&(ref raw, lx, hx, ly, hy)| {
            let view = CompleteSequence::materialize(raw, lx, hx).unwrap();
            let matrix = DiffMatrix::new()
                .tolerance(1e-6)
                .strategy("minoa::derive_sum", |_raw, l, h| {
                    minoa::derive_sum(&view, l, h).map_err(|e| e.to_string())
                });
            let ran = with_linear_kernels(matrix, &view, lx, hx).check(raw, ly, hy);
            assert_eq!(ran, 5);
        },
    );
}

/// n = 20 000, the size at which the join-pattern path ran out of memory
/// and the explicit forms take seconds: the one-pass kernels against brute
/// force alone.
#[test]
fn linear_kernels_agree_at_twenty_thousand_positions() {
    let raw = gen::int_values(20_000, 20_000)(&mut rfv_testkit::Rng::new(20_000));
    let view = CompleteSequence::materialize(&raw, 2, 1).unwrap();
    let matrix = with_linear_kernels(DiffMatrix::new().tolerance(1e-6), &view, 2, 1);
    for (ly, hy) in [(3, 1), (1, 0), (5, 3), (40, 25)] {
        assert_eq!(matrix.check(&raw, ly, hy), 4, "({ly},{hy})");
    }
}

/// Fig. 2's self-join mapping equals the native window operator for
/// random windows, with and without the position index.
#[test]
fn self_join_mapping_equals_native_window() {
    check_config(
        48,
        "self_join_mapping_equals_native_window",
        |rng| {
            let (l, h) = gen::window(3)(rng);
            (gen::int_values(1, 30)(rng), l, h)
        },
        |&(ref raw, l, h)| {
            let expected = oracle::brute_sum(raw, l, h);
            let catalog = setup_catalog(raw);
            for use_index in [false, true] {
                let plan = patterns::self_join_window(&catalog, "seq", l, h, use_index).unwrap();
                oracle::assert_close_with(
                    &plan_body_values(&plan),
                    &expected,
                    1e-6,
                    if use_index {
                        "self-join (indexed)"
                    } else {
                        "self-join (scan)"
                    },
                );
            }
        },
    );
}

/// SQL-level: the rewriter's answers equal direct evaluation for random
/// view/query window combinations.
#[test]
fn sql_rewrite_is_transparent() {
    check_config(
        48,
        "sql_rewrite_is_transparent",
        |rng| {
            let raw: Vec<f64> = {
                let len = rng.usize_in(1, 25);
                (0..len).map(|_| rng.i64_in(-50, 50) as f64).collect()
            };
            let (lx, hx) = gen::window(2)(rng);
            let ly = rng.i64_in(0, 5);
            let hy = rng.i64_in(0, 5);
            (raw, lx, hx, ly, hy)
        },
        |&(ref raw, lx, hx, ly, hy)| {
            let db = Database::new();
            db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
                .unwrap();
            for (i, v) in raw.iter().enumerate() {
                db.execute(&format!("INSERT INTO seq VALUES ({}, {})", i + 1, v))
                    .unwrap();
            }
            db.execute(&format!(
                "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
                 (ORDER BY pos ROWS BETWEEN {lx} PRECEDING AND {hx} FOLLOWING) AS s FROM seq"
            ))
            .unwrap();
            let sql = format!(
                "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN {ly} PRECEDING \
                 AND {hy} FOLLOWING) AS s FROM seq"
            );
            let derived = db.execute(&sql).unwrap().column_f64(1).unwrap();
            db.set_view_rewrite(false);
            let direct = db.execute(&sql).unwrap().column_f64(1).unwrap();
            assert_eq!(derived.len(), direct.len());
            for (a, b) in derived.iter().zip(&direct) {
                let (a, b) = (a.unwrap(), b.unwrap());
                assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        },
    );
}

/// Raw-data reconstruction (§3) composes with re-materialization:
/// view → raw → any other window.
#[test]
fn reconstruction_round_trip() {
    check_config(
        48,
        "reconstruction_round_trip",
        |rng| {
            let (lx, hx) = gen::window(3)(rng);
            let (ly, hy) = gen::window(3)(rng);
            (gen::int_values(1, 30)(rng), lx, hx, ly, hy)
        },
        |&(ref raw, lx, hx, ly, hy)| {
            let view = CompleteSequence::materialize(raw, lx, hx).unwrap();
            let reconstructed = derive::raw::from_sliding(&view).unwrap();
            let reseq = CompleteSequence::materialize(&reconstructed, ly, hy).unwrap();
            let expected = oracle::brute_sum(raw, ly, hy);
            oracle::assert_close_with(&reseq.body(), &expected, 1e-6, "reconstruction");
        },
    );
}

/// Incremental maintenance through the *engine* — a random
/// UPDATE/INSERT/DELETE stream applied via the `sequence_*` DML API with a
/// live materialized view, checked against full recomputation after every
/// operation. The integration-level face of §2.3.
#[test]
fn view_maintenance_stream_matches_recompute() {
    check_config(
        32,
        "view_maintenance_stream_matches_recompute",
        |rng| {
            let initial = gen::int_values(1, 12)(rng);
            let ops = gen::seq_ops(10)(rng);
            let (lx, hx) = gen::window(2)(rng);
            (initial, ops, lx, hx)
        },
        |&(ref initial, ref ops, lx, hx)| {
            let db = Database::new();
            db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
                .unwrap();
            for (i, v) in initial.iter().enumerate() {
                db.execute(&format!("INSERT INTO seq VALUES ({}, {})", i + 1, v))
                    .unwrap();
            }
            db.execute(&format!(
                "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
                 (ORDER BY pos ROWS BETWEEN {lx} PRECEDING AND {hx} FOLLOWING) AS s FROM seq"
            ))
            .unwrap();
            let mut model = initial.clone();
            for op in ops {
                let n = model.len() as i64;
                match *op {
                    rfv_testkit::SeqOp::Update { pos_seed, val } if n > 0 => {
                        let k = 1 + (pos_seed as i64 % n);
                        db.sequence_update("seq", k, val).unwrap();
                        model[(k - 1) as usize] = val;
                    }
                    rfv_testkit::SeqOp::Insert { pos_seed, val } => {
                        let k = 1 + (pos_seed as i64 % (n + 1));
                        db.sequence_insert("seq", k, val).unwrap();
                        model.insert((k - 1) as usize, val);
                    }
                    rfv_testkit::SeqOp::Delete { pos_seed } if n > 0 => {
                        let k = 1 + (pos_seed as i64 % n);
                        db.sequence_delete("seq", k).unwrap();
                        model.remove((k - 1) as usize);
                    }
                    _ => {}
                }
                let got: Vec<f64> = db
                    .execute("SELECT pos, val FROM mv ORDER BY pos")
                    .unwrap()
                    .column_f64(1)
                    .unwrap()
                    .into_iter()
                    .map(|v| v.unwrap_or(0.0))
                    .collect();
                let expected = oracle::brute_sum(&model, lx, hx);
                // The view table stores the complete sequence (header +
                // body + trailer); compare the body slice.
                let lo = hx as usize;
                let body = &got[lo..lo + model.len()];
                oracle::assert_close_with(body, &expected, 1e-6, "view after op");
            }
        },
    );
}
