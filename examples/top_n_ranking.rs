//! Ranking analyses — the first application named in the paper's abstract
//! ("simple ranking queries (TOP(n)-analyses)") plus Year-To-Date, the
//! second one, on a small retail dataset, including a partitioned
//! materialized view (§6) answering the YTD query per store.
//!
//! ```sh
//! cargo run -p rfv-core --example top_n_ranking
//! ```

use rfv_core::Database;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = Database::new();
    db.execute(
        "CREATE TABLE sales (store VARCHAR(8) NOT NULL, day BIGINT NOT NULL, \
         revenue DOUBLE NOT NULL)",
    )?;
    let stores = ["berlin", "munich", "hamburg"];
    for (s, store) in stores.iter().enumerate() {
        for day in 1..=10i64 {
            let revenue = ((day * 37 + s as i64 * 13) % 50 + 10) as f64;
            db.execute(&format!(
                "INSERT INTO sales VALUES ('{store}', {day}, {revenue})"
            ))?;
        }
    }

    // -- TOP(3) days per store, via RANK() ---------------------------------
    println!("-- top 3 revenue days per store (RANK() OVER PARTITION) --");
    let top = db.execute(
        "SELECT t.store, t.day, t.revenue, t.rk FROM \
         (SELECT store, day, revenue, \
          RANK() OVER (PARTITION BY store ORDER BY revenue DESC) AS rk \
          FROM sales) t \
         WHERE t.rk <= 3 ORDER BY t.store, t.rk, t.day",
    )?;
    print!("{top}");
    assert!(top.rows().len() >= 9, "3 stores × ≥3 rows (ties included)");

    // -- Year-To-Date per store, answered from a §6 partitioned view -------
    // Materialize a per-store sliding view; the YTD query below derives a
    // *wider* window from it per partition (MinOA over each store's own
    // complete sequence, §6.1).
    db.execute(
        "CREATE MATERIALIZED VIEW store_mv AS SELECT store, day, SUM(revenue) OVER \
         (PARTITION BY store ORDER BY day ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) \
         AS s FROM sales",
    )?;
    let sql = "SELECT store, day, SUM(revenue) OVER (PARTITION BY store ORDER BY day \
               ROWS BETWEEN 6 PRECEDING AND 0 FOLLOWING) AS weekly FROM sales";
    println!("\n-- trailing weekly sums per store, derived from store_mv --");
    let weekly = db.execute(sql)?;
    print!("{weekly}");
    assert!(
        db.explain(sql)?.contains("(view rewrite)"),
        "the partitioned view must answer this query"
    );

    // Cross-check against direct evaluation.
    db.set_view_rewrite(false);
    let direct = db.execute(sql)?;
    assert_eq!(weekly.rows(), direct.rows());
    println!("\npartition-wise derivation matches direct evaluation ✓");

    // -- ROW_NUMBER as a positioning function -------------------------------
    db.set_view_rewrite(true);
    let numbered = db.execute(
        "SELECT store, day, ROW_NUMBER() OVER (ORDER BY store, day) AS global_pos \
         FROM sales ORDER BY 3 LIMIT 5",
    )?;
    println!("\n-- ROW_NUMBER as the paper's §6 position function (first 5) --");
    print!("{numbered}");
    Ok(())
}
