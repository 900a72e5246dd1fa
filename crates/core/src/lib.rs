//! # rfv-core — Processing Reporting Function Views
//!
//! Reproduction of *W. Lehner, W. Hümmer, L. Schlesinger: "Processing
//! Reporting Function Views in a Data Warehouse Environment"* (ICDE 2002,
//! DOI 10.1109/ICDE.2002.994707), on top of the `rfv` mini relational
//! engine (`rfv-storage` / `rfv-exec` / `rfv-plan`).
//!
//! The paper studies how a data warehouse can answer *reporting function*
//! queries — `SUM(x) OVER (PARTITION BY … ORDER BY … ROWS …)` — from
//! **materialized reporting-function views** storing already-windowed
//! sequence values. This crate implements:
//!
//! * [`sequence`] — the formal sequence model of §2: cumulative and sliding
//!   windows, *complete* sequences with header/trailer (§3.2, Fig. 7);
//! * [`compute`] — computation strategies of §2.2: the explicit form and
//!   the pipelined recursion `x̃_k = x̃_{k−1} + x_{k+h} − x_{k−l−1}`;
//! * [`maintenance`] — incremental UPDATE/INSERT/DELETE rules for
//!   materialized sequence data (§2.3);
//! * [`mod@derive`] — derivability (§3–§5): raw-value reconstruction, sliding
//!   windows from cumulative views, and the **MaxOA** / **MinOA**
//!   algorithms, in the paper's explicit forms and in the one-pass forms
//!   queries run;
//! * [`reporting`] — reporting sequences (§6): multi-column position
//!   function, ordering reduction, partitioning reduction;
//! * [`patterns`] — the pure-relational operator patterns of Figs. 2, 4,
//!   10, 13 as executable physical plans (disjunctive-predicate and
//!   UNION-of-simple-predicates variants — the Table 2 axes); a
//!   reproduction, not on the query path;
//! * [`view`] — the materialized sequence-view catalog;
//! * [`rewrite`] — the view-aware query rewriter: it selects a view and a
//!   strategy per window expression and hangs a sequence source on the
//!   statement's `Window` node, which derives the column from the live
//!   view at execution time;
//! * [`engine`] — a [`Database`] facade: SQL in, rows out, with automatic
//!   view matching and incremental view maintenance.
//!
//! ## Quick start
//!
//! ```
//! use rfv_core::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE)").unwrap();
//! for i in 1..=10 {
//!     db.execute(&format!("INSERT INTO seq VALUES ({i}, {})", i as f64)).unwrap();
//! }
//! // Materialize a (2,1) sliding-window view …
//! db.execute(
//!     "CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER \
//!      (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM seq",
//! ).unwrap();
//! // … and answer a (3,1) query from it (MinOA over the view's sequence).
//! let result = db.execute(
//!     "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING \
//!      AND 1 FOLLOWING) AS s FROM seq",
//! ).unwrap();
//! assert_eq!(result.rows().len(), 10);
//! ```

pub mod cache;
pub mod compute;
pub mod derive;
pub mod durability;
pub mod engine;
mod governor;
pub mod maintenance;
pub mod patterns;
pub mod reporting;
pub mod rewrite;
pub mod sequence;
mod source;
pub mod stats;
pub mod systab;
pub mod trace;
pub mod view;

pub use cache::{CacheStats, DEFAULT_CACHE_BYTES};
pub use durability::PersistStatus;
pub use engine::{Database, QueryResult};
pub use maintenance::{BatchOp, MaintBatch, MaintenanceStats};
pub use rewrite::{RewriteDecision, RewriteOutcome, RewriteReport, RewriteStrategy, Rewriter};
pub use rfv_obs::MetricsRegistry;
pub use sequence::{CompleteSequence, WindowSpec};
pub use stats::{StatementStat, StatementStats};
pub use trace::QueryTrace;
