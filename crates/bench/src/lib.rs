//! Shared workload generation and measurement scaffolding for the
//! benchmark suite reproducing the paper's §7 evaluation.
//!
//! The paper measured IBM DB2 V7.1 on a PII-466; we measure the `rfv`
//! engine. Absolute times differ by decades of hardware, so the harness
//! binaries (`table1`, `table2`) print paper-vs-measured side by side with
//! *ratios*, which is where the reproduction claim lives (see
//! EXPERIMENTS.md).

use rfv_core::patterns;
use rfv_core::Database;
use rfv_storage::Catalog;
use rfv_testkit::Rng;
use rfv_types::{row, DataType, Field, Schema};

pub mod harness;

/// Deterministic random sequence values in the style of the paper's test
/// data (positive transaction-like amounts).
pub fn random_values(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.f64_in(1.0, 1000.0)).collect()
}

/// Build a catalog holding `seq(pos, val)` with dense positions `1..=n`.
/// `with_index` controls the paper's "primary key index" axis.
pub fn seq_catalog(values: &[f64], with_index: bool) -> Catalog {
    let catalog = Catalog::new();
    let t = catalog
        .create_table(
            "seq",
            Schema::new(vec![
                Field::not_null("pos", DataType::Int),
                Field::new("val", DataType::Float),
            ]),
        )
        .expect("fresh catalog");
    let mut g = t.write();
    for (i, &v) in values.iter().enumerate() {
        g.insert(row![(i + 1) as i64, v]).expect("dense insert");
    }
    if with_index {
        g.create_index(0, rfv_storage::IndexKind::Unique)
            .expect("index");
    }
    drop(g);
    catalog
}

/// Build a full [`Database`] with `seq(pos, val)` loaded (always indexed —
/// the engine's CREATE TABLE … PRIMARY KEY path).
pub fn seq_database(values: &[f64]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL)")
        .expect("create");
    let t = db.catalog().table("seq").expect("exists");
    let mut g = t.write();
    for (i, &v) in values.iter().enumerate() {
        g.insert(row![(i + 1) as i64, v]).expect("insert");
    }
    drop(g);
    db
}

/// Build a catalog with `seq` plus a complete materialized `(lx, hx)` view
/// table `mv`, ready for the derivation patterns.
pub fn catalog_with_view(values: &[f64], lx: i64, hx: i64) -> Catalog {
    let catalog = seq_catalog(values, true);
    patterns::materialize_view_table(&catalog, "seq", "mv", lx, hx).expect("materialize view");
    catalog
}

/// Checksum helper so benchmark results cannot be optimized away and are
/// sanity-checked across strategies.
pub fn checksum(rows: &[rfv_types::Row], col: usize) -> f64 {
    rows.iter()
        .map(|r| r.get(col).as_f64().unwrap().unwrap_or(0.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(random_values(10, 7), random_values(10, 7));
        assert_ne!(random_values(10, 7), random_values(10, 8));
    }

    #[test]
    fn seq_catalog_round_trips() {
        let values = random_values(20, 1);
        let catalog = seq_catalog(&values, true);
        let t = catalog.table("seq").unwrap();
        assert_eq!(t.read().stats().row_count, 20);
        assert_eq!(t.read().indexed_columns(), vec![0]);
        let no_ix = seq_catalog(&values, false);
        assert!(no_ix
            .table("seq")
            .unwrap()
            .read()
            .indexed_columns()
            .is_empty());
    }

    #[test]
    fn view_catalog_has_complete_view() {
        let values = random_values(10, 2);
        let catalog = catalog_with_view(&values, 2, 1);
        let mv = catalog.table("mv").unwrap();
        // header (h=1: pos 0) + body (10) + trailer (l=2: pos 11, 12).
        assert_eq!(mv.read().stats().row_count, 13);
    }

    #[test]
    fn checksums_detect_divergence() {
        let values = random_values(50, 3);
        let catalog = catalog_with_view(&values, 2, 1);
        let a = patterns::minoa_pattern(
            &catalog,
            "mv",
            2,
            1,
            3,
            1,
            50,
            patterns::PatternVariant::Disjunctive,
        )
        .unwrap()
        .execute()
        .unwrap();
        let b = patterns::maxoa_pattern(
            &catalog,
            "mv",
            2,
            1,
            3,
            1,
            50,
            patterns::PatternVariant::UnionSimple,
        )
        .unwrap()
        .execute()
        .unwrap();
        assert!((checksum(&a, 1) - checksum(&b, 1)).abs() < 1e-6);
    }
}
