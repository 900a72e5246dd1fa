//! Per-operator execution metrics.
//!
//! Two observation levels, chosen per execution via [`ExecProbe`]:
//!
//! * **counters** — always-on engine totals ([`ExecCounters`]): rows
//!   read off storage by scan leaves and rows emitted by query roots.
//!   One relaxed atomic add per scan node per query; cheap enough to
//!   leave enabled unconditionally.
//! * **trace** — a full [`OpMetrics`] tree (rows in/out, batches,
//!   elapsed ns per physical node), built only when requested
//!   (`EXPLAIN ANALYZE` / `Database::set_tracing(true)`); the plain
//!   `execute()` path never reads the clock.
//!
//! The executor is materializing (every operator consumes fully
//! materialized child vectors), so `batches` counts input vectors
//! consumed: 1 for leaves (the storage batch), the child count
//! elsewhere. `rows_in` is the sum of child output cardinalities;
//! leaves report 0 (their input is storage, tallied by `rows_scanned`).

use std::fmt::Write as _;
use std::sync::Arc;

use rfv_obs::{fmt_ns, Counter};
use rfv_types::{CancelToken, Gov};

/// Always-on totals shared with the engine's metrics registry.
#[derive(Debug, Clone, Default)]
pub struct ExecCounters {
    /// Rows produced by storage scan leaves (`TableScan`,
    /// `IndexRangeScan`).
    pub rows_scanned: Counter,
    /// Rows returned by root plans (bumped by the engine, which knows
    /// which execution is a query root).
    pub rows_emitted: Counter,
}

/// What one execution should observe.
#[derive(Debug, Clone, Default)]
pub struct ExecProbe {
    /// Bump these totals while executing (cheap, always-on in the
    /// engine).
    pub counters: Option<ExecCounters>,
    /// Build an [`OpMetrics`] tree (reads the clock once per node).
    pub trace: bool,
    /// Cooperative cancellation / deadline / memory-budget token for this
    /// statement; operators poll it at morsel boundaries. `None` (the
    /// default) executes ungoverned.
    pub token: Option<Arc<CancelToken>>,
}

impl ExecProbe {
    /// Trace only — used by `EXPLAIN ANALYZE` outside an engine.
    pub fn traced() -> Self {
        ExecProbe {
            counters: None,
            trace: true,
            token: None,
        }
    }

    /// The governance handle operators thread through their loops.
    pub fn gov(&self) -> Gov {
        Gov::new(self.token.clone())
    }
}

/// Measured actuals for one physical operator (a tree mirroring the
/// plan; children in execution order).
#[derive(Debug, Clone)]
pub struct OpMetrics {
    /// Short operator label, e.g. `TableScan(seq)`.
    pub name: String,
    /// Sum of child output cardinalities (0 for leaves).
    pub rows_in: u64,
    pub rows_out: u64,
    /// Input vectors consumed (1 for leaves — the storage batch).
    pub batches: u64,
    /// Wall time including children.
    pub elapsed_ns: u64,
    /// Morsels this operator split its input into (0 when it ran
    /// serially).
    pub morsels: u64,
    /// Threads that ran those morsels (0 when serial).
    pub workers: u64,
    /// What the operator found out about its input while running, as
    /// `key=value` — `order=runs(16) on 1 of 3 keys` on `Sort` and `Window`.
    pub note: Option<String>,
    pub children: Vec<OpMetrics>,
}

impl OpMetrics {
    /// Wall time spent in this operator alone (inclusive minus
    /// children, saturating — timer granularity can make children
    /// appear to exceed the parent by a few ns).
    pub fn self_ns(&self) -> u64 {
        let child_ns: u64 = self.children.iter().map(|c| c.elapsed_ns).sum();
        self.elapsed_ns.saturating_sub(child_ns)
    }

    /// Total rows produced by scan leaves in this subtree.
    pub fn rows_scanned(&self) -> u64 {
        let own = if self.children.is_empty() {
            self.rows_out
        } else {
            0
        };
        own + self
            .children
            .iter()
            .map(OpMetrics::rows_scanned)
            .sum::<u64>()
    }

    /// Number of operators in this subtree (including self).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(OpMetrics::node_count)
            .sum::<usize>()
    }

    /// The `EXPLAIN ANALYZE` annotation for this node. Parallel
    /// execution adds `morsels=`/`workers=`, and an operator with a note
    /// adds it, before `time=` (so time-masking tooling keeps working);
    /// other nodes render exactly as before.
    pub fn actuals(&self) -> String {
        let mut out = format!(
            "(actual rows={} in={} batches={}",
            self.rows_out, self.rows_in, self.batches
        );
        if self.morsels > 1 {
            let _ = write!(out, " morsels={} workers={}", self.morsels, self.workers);
        }
        if let Some(note) = &self.note {
            let _ = write!(out, " {note}");
        }
        let _ = write!(out, " time={})", fmt_ns(self.elapsed_ns));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(rows: u64, ns: u64) -> OpMetrics {
        OpMetrics {
            name: "TableScan(t)".into(),
            rows_in: 0,
            rows_out: rows,
            batches: 1,
            elapsed_ns: ns,
            morsels: 0,
            workers: 0,
            note: None,
            children: vec![],
        }
    }

    #[test]
    fn tree_accounting() {
        let m = OpMetrics {
            name: "HashJoin".into(),
            rows_in: 30,
            rows_out: 10,
            batches: 2,
            elapsed_ns: 1000,
            morsels: 0,
            workers: 0,
            note: None,
            children: vec![leaf(10, 300), leaf(20, 400)],
        };
        assert_eq!(m.self_ns(), 300);
        assert_eq!(m.rows_scanned(), 30);
        assert_eq!(m.node_count(), 3);
        assert!(m
            .actuals()
            .starts_with("(actual rows=10 in=30 batches=2 time="));
    }

    #[test]
    fn a_note_renders_between_the_counts_and_the_time() {
        let mut m = leaf(5, 100);
        m.note = Some("order=runs(16) on 1 of 3 keys".into());
        let text = m.actuals();
        assert!(
            text.starts_with("(actual rows=5 in=0 batches=1 order=runs(16) on 1 of 3 keys time="),
            "{text}"
        );
        m.morsels = 4;
        m.workers = 2;
        assert!(
            m.actuals()
                .contains("batches=1 morsels=4 workers=2 order=runs(16) on 1 of 3 keys time="),
            "{}",
            m.actuals()
        );
    }

    #[test]
    fn self_ns_saturates() {
        let m = OpMetrics {
            name: "Filter".into(),
            rows_in: 1,
            rows_out: 1,
            batches: 1,
            elapsed_ns: 10,
            morsels: 0,
            workers: 0,
            note: None,
            children: vec![leaf(1, 25)],
        };
        assert_eq!(m.self_ns(), 0);
    }
}
