//! Where the ordering and window operators can be stopped.
//!
//! The cancellation injector in `rfv_types::governance` is process-global,
//! which is why these tests have a binary — a process — of their own, and
//! serialize on [`injector`]. A plan's *cancel points* are counted by
//! arming the injector at 1, 2, 3, … checks until the plan runs through:
//! every armed count before that must surface as `Cancelled`. Inputs stay
//! below the scheduler's parallel threshold, so execution is serial and
//! the counts are exact.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rfv_exec::{
    ExecProbe, PhysicalPlan, SortKey, WindowExprSpec, WindowFrame, WindowFuncKind, WindowMode,
};
use rfv_expr::{AggFunc, Expr};
use rfv_types::{
    governance, CancelToken, DataType, Field, RfvError, Row, Schema, SchemaRef, Value,
};

fn injector() -> MutexGuard<'static, ()> {
    static INJECTOR: Mutex<()> = Mutex::new(());
    INJECTOR.lock().unwrap_or_else(PoisonError::into_inner)
}

fn probe(token: CancelToken) -> ExecProbe {
    ExecProbe {
        counters: None,
        trace: false,
        token: Some(Arc::new(token)),
    }
}

/// `(part, pos, val)` rows as a plan leaf.
fn values(rows: Vec<(i64, i64, f64)>) -> PhysicalPlan {
    let schema = SchemaRef::new(Schema::new(vec![
        Field::not_null("part", DataType::Int),
        Field::not_null("pos", DataType::Int),
        Field::not_null("val", DataType::Float),
    ]));
    let rows = (rows.into_iter())
        .map(|(part, pos, val)| {
            Row::new(vec![Value::Int(part), Value::Int(pos), Value::Float(val)])
        })
        .collect();
    PhysicalPlan::Values { schema, rows }
}

/// `funcs` of `val` over `(PARTITION BY part ORDER BY pos ROWS 2 PRECEDING)`.
fn window(input: PhysicalPlan, funcs: &[AggFunc]) -> PhysicalPlan {
    let window_exprs: Vec<WindowExprSpec> = funcs
        .iter()
        .map(|&f| WindowExprSpec::agg(f, Some(Expr::col(2)), WindowFrame::sliding(2, 0)))
        .collect();
    let mut fields = input.schema().fields().to_vec();
    for spec in &window_exprs {
        let ty = WindowFuncKind::result_type(spec.func, DataType::Float);
        fields.push(Field::new("w", ty));
    }
    PhysicalPlan::Window {
        input: Box::new(input),
        partition_by: vec![Expr::col(0)],
        order_by: vec![SortKey::asc(Expr::col(1))],
        window_exprs,
        mode: WindowMode::Pipelined,
        schema: SchemaRef::new(Schema::new(fields)),
        sources: Vec::new(),
    }
}

/// How many governance checks `plan` performs: armed at any count up to
/// that, it must come back `Cancelled`; armed beyond, it runs through.
fn cancel_points(plan: &PhysicalPlan) -> u64 {
    for armed in 1.. {
        governance::arm_cancel_after(armed);
        let outcome = plan.execute_probed(&probe(CancelToken::new()));
        governance::reset_injection();
        match outcome {
            Err(RfvError::Cancelled(_)) => {}
            Ok(_) => return armed - 1,
            Err(other) => panic!("armed at {armed}: injection must cancel, got {other}"),
        }
    }
    unreachable!("the plan terminates")
}

#[test]
fn a_budget_below_the_key_columns_trips_inside_the_ordering_routine() {
    let _serial = injector();
    // `Values` charges nothing, so the first bytes a `Sort` over it
    // charges are the ordering routine's key columns: 2 × 4096 × 16.
    let rows = (0..4096).map(|i| (i % 7, -i, 0.5)).collect();
    let plan = PhysicalPlan::Sort {
        input: Box::new(values(rows)),
        keys: vec![SortKey::asc(Expr::col(0)), SortKey::desc(Expr::col(1))],
    };
    let starved = plan.execute_probed(&probe(CancelToken::new().with_mem_budget(64 << 10)));
    assert!(matches!(starved, Err(RfvError::ResourceExhausted(_))));
    let fed = plan.execute_probed(&probe(CancelToken::new().with_mem_budget(4 << 20)));
    assert_eq!(fed.unwrap().0.len(), 4096);
}

#[test]
fn the_cancel_injector_fires_between_the_sorted_runs_of_a_window() {
    let _serial = injector();
    // 16 partitions of 40 rows, partitions in order, positions in each
    // descending: ordered on 1 of 2 keys, so 16 runs are sorted. The same
    // rows with positions ascending need no sort at all. Every per-row
    // loop is shorter than a checkpoint stride on both sides, so what the
    // first plan has more is exactly its checks between runs.
    let rows = |descending: bool| {
        (0..16i64)
            .flat_map(|part| (0..40i64).map(move |i| (part, if descending { -i } else { i }, 1.5)))
            .collect()
    };
    let runs = cancel_points(&window(values(rows(true)), &[AggFunc::Sum]));
    let ordered = cancel_points(&window(values(rows(false)), &[AggFunc::Sum]));
    assert_eq!(runs - ordered, 16, "{runs} vs {ordered}");
}

#[test]
fn the_cancel_injector_fires_inside_the_kernel_loops() {
    let _serial = injector();
    // One partition of 3 073 ordered rows. A second and a third expression
    // add no pass over the rows but their own kernel's (the argument column
    // is shared, the stitch is one loop): 4 checkpoints each, at rows 0,
    // 1 024, 2 048 and 3 072 — one in the running-sum recurrence, one in
    // the MIN/MAX deque.
    let rows = || (0..3073i64).map(|i| (0, i, i as f64)).collect();
    let one = cancel_points(&window(values(rows()), &[AggFunc::Sum]));
    let two = cancel_points(&window(values(rows()), &[AggFunc::Sum, AggFunc::Avg]));
    let three = cancel_points(&window(
        values(rows()),
        &[AggFunc::Sum, AggFunc::Avg, AggFunc::Min],
    ));
    assert_eq!((two - one, three - two), (4, 4), "{one}, {two}, {three}");
}
