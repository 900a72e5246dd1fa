//! Incremental maintenance of materialized sequence views (paper §2.3).
//!
//! A warehouse continuously receives updates; recomputing every
//! reporting-function view from scratch on each change defeats the point
//! of materialization. The §2.3 rules keep the change *local*: an update
//! touches at most `w = l + h + 1` view positions, inserts/deletes touch a
//! `w`-neighbourhood plus a pure index shift. The engine keeps the path
//! around the rules local too: a write reads the raw neighbourhood of the
//! edit from the base table, patches each view's sequence in place, and
//! writes only the mirror rows that changed — it counts both.
//!
//! ```sh
//! cargo run -p rfv-core --example warehouse_maintenance
//! ```

use rfv_core::maintenance;
use rfv_core::sequence::CompleteSequence;
use rfv_core::Database;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // -- the algebra: locality of the §2.3 rules --------------------------
    // The rules patch `seq` in place; here they read the raw values from
    // the whole vector (`RawWindow::whole`), in the engine from a window
    // onto the edited neighbourhood.
    println!("== §2.3 maintenance rules: locality ==\n");
    let mut raw: Vec<f64> = (1..=1000).map(f64::from).collect();
    let mut seq = CompleteSequence::materialize(&raw, 5, 4)?;
    println!(
        "sequence: n = 1000, window (5,4), w = {}",
        seq.window_size()
    );

    let stats = maintenance::update(&mut seq, &mut raw, 500, 99.0)?;
    println!(
        "UPDATE pos 500 : {:>4} positions recomputed, {:>4} shifted",
        stats.recomputed, stats.shifted
    );

    let stats = maintenance::insert(&mut seq, &mut raw, 500, 7.0)?;
    println!(
        "INSERT pos 500 : {:>4} positions recomputed, {:>4} shifted",
        stats.recomputed, stats.shifted
    );

    let (_, stats) = maintenance::delete(&mut seq, &mut raw, 500)?;
    println!(
        "DELETE pos 500 : {:>4} positions recomputed, {:>4} shifted",
        stats.recomputed, stats.shifted
    );

    let fresh = CompleteSequence::materialize(&raw, 5, 4)?;
    assert_eq!(seq.body(), fresh.body());
    println!("\nincrementally maintained view == full recomputation ✓\n");

    // -- the engine: SQL-visible freshness ---------------------------------
    println!("== engine-level maintenance ==\n");
    let db = Database::new();
    db.execute("CREATE TABLE sales (day BIGINT PRIMARY KEY, amount DOUBLE NOT NULL)")?;
    for day in 1..=14i64 {
        db.execute(&format!(
            "INSERT INTO sales VALUES ({day}, {})",
            (day * 10) as f64
        ))?;
    }
    db.execute(
        "CREATE MATERIALIZED VIEW weekly AS SELECT day, SUM(amount) OVER \
         (ORDER BY day ROWS BETWEEN 6 PRECEDING AND 0 FOLLOWING) AS s FROM sales",
    )?;
    println!("created view `weekly`: trailing 7-day sums over `sales`");

    // A correction arrives for day 3, a missed transaction is inserted at
    // day 5, day 9 is voided, and day 15 closes normally. Each write costs
    // what it touches: the update and the append read and write a window's
    // worth of rows; the mid-sequence insert and delete also rewrite the
    // mirror's `val` from the edit to the end (a row's position never
    // changes) and add or drop one row at the tail.
    let counter = |name: &str| db.metrics().counter_value(name);
    let mut seen = (0, 0);
    let mut report = |what: &str| {
        let now = (
            counter("maintenance.base_rows_read"),
            counter("maintenance.mirror_rows_written"),
        );
        println!(
            "{what:<18}: {:>2} base rows read, {:>2} mirror rows written",
            now.0 - seen.0,
            now.1 - seen.1
        );
        seen = now;
    };
    db.sequence_update("sales", 3, 300.0)?;
    report("update day 3");
    db.sequence_insert("sales", 5, 55.0)?;
    report("insert at day 5");
    db.sequence_delete("sales", 9)?;
    report("delete day 9");
    db.execute("INSERT INTO sales VALUES (15, 150.0)")?;
    report("append day 15");

    let sql = "SELECT day, SUM(amount) OVER (ORDER BY day \
               ROWS BETWEEN 6 PRECEDING AND 0 FOLLOWING) AS s FROM sales";
    let from_view = db.execute(sql)?; // answered from `weekly`
    db.set_view_rewrite(false);
    let direct = db.execute(sql)?; // recomputed from raw data
    assert_eq!(from_view.rows(), direct.rows());
    println!("\nview-answered weekly sums after maintenance:");
    print!("{from_view}");
    println!("\nanswers from the maintained view match raw recomputation ✓");
    Ok(())
}
