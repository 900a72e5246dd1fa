//! Regenerate **Table 1** of the paper: query runtimes for computing
//! sequence values from raw data, native reporting functionality vs. the
//! Fig. 2 self-join simulation, each with and without a primary-key index.
//!
//! ```sh
//! cargo run -p rfv-bench --release --bin table1            # paper sizes
//! cargo run -p rfv-bench --release --bin table1 -- --quick # scaled down
//! ```
//!
//! Prints measured seconds next to the paper's DB2-V7.1-on-PII-466 numbers
//! together with the two ratios the paper's §7 discussion rests on.

use rfv_bench::harness::{percentile, sample_secs, samples_or, warmup_or, CaseStats, Report};
use rfv_bench::{checksum, random_values, seq_catalog};
use rfv_core::patterns;
use rfv_exec::{
    FrameBound, PhysicalPlan, SortKey, WindowExprSpec, WindowFrame, WindowFuncKind, WindowMode,
};
use rfv_expr::{AggFunc, Expr};

/// Paper Table 1 (seconds): (n, native no-ix, selfjoin no-ix, native ix,
/// selfjoin ix).
const PAPER: [(usize, f64, f64, f64, f64); 3] = [
    (5_000, 0.751, 39.016, 0.701, 1.822),
    (10_000, 1.482, 157.656, 1.492, 3.675),
    (15_000, 2.244, 357.774, 2.284, 5.528),
];

fn native_plan(catalog: &rfv_storage::Catalog) -> PhysicalPlan {
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
        mode: WindowMode::Pipelined,
        schema: rfv_types::SchemaRef::new(rfv_types::Schema::new(fields)),
        sources: Vec::new(),
    }
}

/// Case labels by measurement slot (matches the table columns).
const CELLS: [&str; 4] = ["native", "selfjoin", "native+ix", "selfjoin+ix"];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 10 } else { 1 };
    // Full-size self-join cells run for minutes, so default to a single
    // timed pass there; --quick is cheap enough to sample properly.
    let iters = samples_or(if quick { 3 } else { 1 });
    let warmup = warmup_or(if quick { 1 } else { 0 });
    let mut report = Report::new("table1", quick);
    println!("Table 1 — computing sequence data: SUM(val) OVER (ORDER BY pos");
    println!("ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING), measured on rfv;");
    println!("paper columns are DB2 V7.1 / PII-466 (seconds).\n");
    println!(
        "| {:>6} | {:>11} {:>11} | {:>11} {:>11} | {:>11} {:>11} | {:>11} {:>11} | {:>9} {:>9} |",
        "n",
        "native",
        "(paper)",
        "selfjoin",
        "(paper)",
        "native+ix",
        "(paper)",
        "selfjoin+ix",
        "(paper)",
        "sj/nat",
        "sj+ix/nat"
    );
    println!("|{}|", "-".repeat(134));
    for (n, p_nat, p_sj, p_nat_ix, p_sj_ix) in PAPER {
        let n = n / scale;
        let values = random_values(n, 42);

        let mut measured = [0.0f64; 4];
        let mut checks = [0.0f64; 4];
        for (slot, with_index) in [(0usize, false), (2usize, true)] {
            let catalog = seq_catalog(&values, with_index);
            let native = native_plan(&catalog);
            let times = sample_secs(iters, warmup, || {
                checks[slot] = checksum(&native.execute().unwrap(), 2);
            });
            measured[slot] = percentile(&times, 0.50);
            report.push(CaseStats::from_samples(
                &format!("{}/n={n}", CELLS[slot]),
                &times,
                n as u64,
            ));
            let self_join = patterns::self_join_window(&catalog, "seq", 1, 1, with_index).unwrap();
            let times = sample_secs(iters, warmup, || {
                checks[slot + 1] = checksum(&self_join.execute().unwrap(), 1);
            });
            measured[slot + 1] = percentile(&times, 0.50);
            report.push(CaseStats::from_samples(
                &format!("{}/n={n}", CELLS[slot + 1]),
                &times,
                n as u64,
            ));
        }
        for c in &checks[1..] {
            assert!(
                (c - checks[0]).abs() < 1e-3,
                "strategies disagree: {checks:?}"
            );
        }
        println!(
            "| {:>6} | {:>11.3} {:>11.3} | {:>11.3} {:>11.3} | {:>11.3} {:>11.3} | {:>11.3} {:>11.3} | {:>9.1} {:>9.1} |",
            n,
            measured[0],
            p_nat,
            measured[1],
            p_sj,
            measured[2],
            p_nat_ix,
            measured[3],
            p_sj_ix,
            measured[1] / measured[0].max(1e-9),
            measured[3] / measured[2].max(1e-9),
        );
    }
    println!(
        "\nshape checks (paper §7): self join without index is catastrophically \
         slower than native\nand superlinear in n; the index cuts the self join \
         down to a small multiple of native."
    );
    match report.write_and_validate() {
        Ok(path) => println!("wrote {} ({iters} iters/case)", path.display()),
        Err(e) => {
            eprintln!("bench export failed: {e}");
            std::process::exit(1);
        }
    }
}
