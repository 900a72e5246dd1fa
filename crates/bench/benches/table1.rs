//! **Table 1** of the paper: computing sequence values from raw data.
//!
//! Four configurations over `SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1
//! PRECEDING AND 1 FOLLOWING)`:
//!
//! * native reporting functionality, no index,
//! * self-join simulation (Fig. 2), no index → quadratic nested loop,
//! * native reporting functionality, with primary-key index,
//! * self-join simulation, with primary-key index → index nested loop.
//!
//! Sizes are scaled down from the paper's 5k/10k/15k so the suite stays
//! responsive; `cargo run -p rfv-bench --release --bin table1` runs the
//! full paper sizes and prints the paper-vs-measured table.

use rfv_bench::harness::Group;
use rfv_bench::{checksum, random_values, seq_catalog};
use rfv_core::patterns;
use rfv_exec::{
    FrameBound, PhysicalPlan, SortKey, WindowExprSpec, WindowFrame, WindowFuncKind, WindowMode,
};
use rfv_expr::{AggFunc, Expr};

fn native_plan(catalog: &rfv_storage::Catalog, mode: WindowMode) -> PhysicalPlan {
    let t = catalog.table("seq").unwrap();
    let schema = t.read().schema().clone();
    let frame = WindowFrame::new(FrameBound::Offset(-1), FrameBound::Offset(1)).unwrap();
    let mut fields = schema.fields().to_vec();
    fields.push(rfv_types::Field::new("w", rfv_types::DataType::Float));
    PhysicalPlan::Window {
        input: Box::new(PhysicalPlan::TableScan { table: t, schema }),
        partition_by: vec![],
        order_by: vec![SortKey::asc(Expr::col(0))],
        window_exprs: vec![WindowExprSpec {
            func: WindowFuncKind::Agg(AggFunc::Sum),
            arg: Some(Expr::col(1)),
            frame,
        }],
        mode,
        schema: rfv_types::SchemaRef::new(rfv_types::Schema::new(fields)),
        sources: Vec::new(),
    }
}

fn main() {
    let mut group = Group::new("table1");
    for &n in &[500usize, 1000, 2000] {
        let values = random_values(n, 42);

        for (label, with_index) in [("no_index", false), ("pk_index", true)] {
            let catalog = seq_catalog(&values, with_index);

            let native = native_plan(&catalog, WindowMode::Pipelined);
            group.bench(&format!("native_{label}/{n}"), || {
                let rows = native.execute().unwrap();
                std::hint::black_box(checksum(&rows, 2));
            });

            let self_join = patterns::self_join_window(&catalog, "seq", 1, 1, with_index).unwrap();
            group.bench(&format!("self_join_{label}/{n}"), || {
                let rows = self_join.execute().unwrap();
                std::hint::black_box(checksum(&rows, 1));
            });
        }
    }
}
