//! Quickstart: reporting functions, materialized sequence views, and
//! view-answered queries in ~40 lines.
//!
//! ```sh
//! cargo run -p rfv-core --example quickstart
//! ```

use rfv_core::Database;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();

    // A sequence table: positions 1..=12, one value per position.
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")?;
    for pos in 1..=12i64 {
        db.execute(&format!(
            "INSERT INTO seq VALUES ({pos}, {})",
            (pos * pos % 7) as f64
        ))?;
    }

    // A reporting function, evaluated natively by the window operator.
    println!("-- centered 3-value moving sum (native window operator) --");
    let direct = db.execute(
        "SELECT pos, val, SUM(val) OVER (ORDER BY pos \
         ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS mv3 FROM seq",
    )?;
    print!("{direct}");

    // Materialize a (2,1) sliding-window view. The engine stores the
    // *complete* sequence — header and trailer rows — so wider queries can
    // be derived from it (paper §3.2).
    db.execute(
        "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
         (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )?;

    // This (3,1) query is now answered *from the view*: MinOA (paper §5)
    // over the view's sequence, in one pass — no window kernel runs.
    let sql = "SELECT pos, SUM(val) OVER (ORDER BY pos \
               ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS mv5 FROM seq";
    println!("\n-- (3,1) window, derived from the materialized (2,1) view --");
    let derived = db.execute(sql)?;
    print!("{derived}");

    println!("\n-- how it was planned --");
    print!("{}", db.explain(sql)?);

    // Sanity: the rewrite is invisible to results.
    db.set_view_rewrite(false);
    let reference = db.execute(sql)?;
    assert_eq!(derived.rows(), reference.rows());
    println!("\nview-derived result == direct evaluation ✓");
    Ok(())
}
