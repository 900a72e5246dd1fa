//! Cumulative per-statement statistics (`pg_stat_statements` style).
//!
//! Every executed query is folded into one [`StatementStats`] entry keyed
//! by its **normalized SQL** — the AST's canonical `Display` form, the
//! same fingerprint the PR-6 plan cache keys on, so whitespace/case
//! variants of one query share an entry and the statistics line up 1:1
//! with cache behavior. Statistics are always on: recording is a map
//! read plus a handful of relaxed atomic adds (the per-statement
//! [`Histogram`] supplies p50/p95 without keeping raw samples).
//!
//! The map is bounded ([`STMT_STATS_CAP_ENTRIES`]) — ever-new literals
//! would otherwise grow it forever: when full, the stalest tenth (by
//! last call) is dropped in one pass and counted in `stats.evicted`.
//!
//! Surfaced as the `rfv_stat_statements` virtual system table
//! ([`crate::systab`]) and as [`crate::Database::statement_stats`].

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rfv_obs::{Counter, Histogram};
use rfv_types::sync::RwLock;

use crate::cache::{PlanOutcome, STMT_STATS_CAP_ENTRIES};
use crate::rewrite::{RewriteOutcome, RewriteReport};

/// Lifetime totals of one statement entry (relaxed atomics — totals,
/// not synchronization).
#[derive(Debug, Default)]
struct StmtEntry {
    calls: AtomicU64,
    /// Calls that ended in an error (cancelled, timed out, budget
    /// exhausted, rejected, or any execution failure). Always ≤ `calls`.
    failures: AtomicU64,
    total_ns: AtomicU64,
    rows: AtomicU64,
    /// Calls served from the result cache.
    cache_hits: AtomicU64,
    /// Calls planned with a view-rewritten plan.
    rewrites: AtomicU64,
    /// Calls planned with the native fallback (or rewriting disabled).
    fallbacks: AtomicU64,
    /// Per-call latency distribution (p50/p95 come from here).
    ns: Histogram,
    /// Rewrite strategy label → times a window expression used it.
    strategies: RwLock<BTreeMap<&'static str, u64>>,
    /// The store's tick at this entry's most recent call (eviction age).
    last_call: AtomicU64,
}

/// A point-in-time snapshot of one statement's totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatementStat {
    /// Normalized SQL text (the plan-cache fingerprint).
    pub query: String,
    pub calls: u64,
    /// Calls that ended in an error (always ≤ `calls`).
    pub failures: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    /// Rows returned across all calls.
    pub rows: u64,
    /// Calls served from the result cache.
    pub cache_hits: u64,
    /// Calls planned with a view-rewritten plan.
    pub rewrites: u64,
    /// Calls planned with the native fallback (or rewriting disabled).
    pub fallbacks: u64,
    /// Rewrite strategy label → count, over all calls.
    pub strategies: BTreeMap<&'static str, u64>,
}

/// Shared per-statement statistics store (cheap to clone).
#[derive(Debug, Clone, Default)]
pub struct StatementStats {
    entries: Arc<RwLock<HashMap<String, Arc<StmtEntry>>>>,
    /// Monotonic call counter; each call stamps its entry with it.
    tick: Arc<AtomicU64>,
    /// Entries dropped to keep the map bounded (`stats.evicted`).
    evicted: Counter,
}

impl StatementStats {
    pub fn new() -> Self {
        StatementStats::default()
    }

    /// Lifetime count of entries dropped by the cap.
    pub fn evicted(&self) -> &Counter {
        &self.evicted
    }

    /// The entry for `sql`, stamped as just called. The hot path is a
    /// read-locked lookup plus relaxed atomics; only a first-seen
    /// statement takes the write lock.
    fn entry(&self, sql: &str) -> Arc<StmtEntry> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = self.entries.read().get(sql) {
            e.last_call.store(tick, Ordering::Relaxed);
            return Arc::clone(e);
        }
        let mut entries = self.entries.write();
        if entries.len() >= STMT_STATS_CAP_ENTRIES && !entries.contains_key(sql) {
            // Drop the stalest tenth in one pass, so a stream of new
            // statements pays for eviction once per cap/10 insertions.
            let mut ages: Vec<u64> = entries
                .values()
                .map(|e| e.last_call.load(Ordering::Relaxed))
                .collect();
            let (_, &mut cutoff, _) = ages.select_nth_unstable(STMT_STATS_CAP_ENTRIES / 10);
            let before = entries.len();
            entries.retain(|_, e| e.last_call.load(Ordering::Relaxed) > cutoff);
            self.evicted.add((before - entries.len()) as u64);
        }
        let e = entries.entry(sql.to_string()).or_default();
        e.last_call.store(tick, Ordering::Relaxed);
        Arc::clone(e)
    }

    /// Fold one executed statement into its entry.
    pub(crate) fn record(
        &self,
        sql: &str,
        elapsed_ns: u64,
        rows: u64,
        cache_hit: bool,
        outcome: PlanOutcome,
        report: &RewriteReport,
    ) {
        let e = self.entry(sql);
        e.calls.fetch_add(1, Ordering::Relaxed);
        e.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        e.rows.fetch_add(rows, Ordering::Relaxed);
        e.ns.record(elapsed_ns);
        if cache_hit {
            e.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        match outcome {
            PlanOutcome::Rewritten => {
                e.rewrites.fetch_add(1, Ordering::Relaxed);
            }
            PlanOutcome::Fallback | PlanOutcome::Disabled => {
                e.fallbacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut labels = Vec::new();
        for d in &report.decisions {
            if let RewriteOutcome::FromView { strategy, .. } = &d.outcome {
                labels.push(strategy.label());
            }
        }
        if !labels.is_empty() {
            let mut strategies = e.strategies.write();
            for label in labels {
                *strategies.entry(label).or_default() += 1;
            }
        }
    }

    /// Fold one **errored** statement into its entry: the call still
    /// counts (and its latency still lands in the histogram — an aborted
    /// statement consumed real time), but it also bumps `failures`, so
    /// `calls` is attempts and `calls - failures` is successes.
    pub(crate) fn record_failure(&self, sql: &str, elapsed_ns: u64) {
        let e = self.entry(sql);
        e.calls.fetch_add(1, Ordering::Relaxed);
        e.failures.fetch_add(1, Ordering::Relaxed);
        e.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        e.ns.record(elapsed_ns);
    }

    /// Snapshot every entry, sorted by normalized SQL (deterministic —
    /// the system-table scan relies on that).
    pub fn snapshot(&self) -> Vec<StatementStat> {
        let mut out: Vec<StatementStat> = self
            .entries
            .read()
            .iter()
            .map(|(sql, e)| StatementStat {
                query: sql.clone(),
                calls: e.calls.load(Ordering::Relaxed),
                failures: e.failures.load(Ordering::Relaxed),
                total_ns: e.total_ns.load(Ordering::Relaxed),
                min_ns: e.ns.min(),
                max_ns: e.ns.max(),
                p50_ns: e.ns.p50(),
                p95_ns: e.ns.p95(),
                rows: e.rows.load(Ordering::Relaxed),
                cache_hits: e.cache_hits.load(Ordering::Relaxed),
                rewrites: e.rewrites.load(Ordering::Relaxed),
                fallbacks: e.fallbacks.load(Ordering::Relaxed),
                strategies: e.strategies.read().clone(),
            })
            .collect();
        out.sort_by(|a, b| a.query.cmp(&b.query));
        out
    }

    /// Drop every entry (used by the shell and tests).
    pub fn reset(&self) {
        self.entries.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_snapshots_sorted() {
        let stats = StatementStats::new();
        let report = RewriteReport::default();
        stats.record("SELECT b", 200, 5, false, PlanOutcome::Fallback, &report);
        stats.record("SELECT a", 100, 3, true, PlanOutcome::Rewritten, &report);
        stats.record("SELECT a", 300, 3, false, PlanOutcome::Rewritten, &report);

        let snap = stats.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].query, "SELECT a", "sorted by query");
        assert_eq!(snap[0].calls, 2);
        assert_eq!(snap[0].failures, 0);
        assert_eq!(snap[0].total_ns, 400);
        assert_eq!(snap[0].rows, 6);
        assert_eq!(snap[0].cache_hits, 1);
        assert_eq!(snap[0].rewrites, 2);
        assert_eq!(snap[0].fallbacks, 0);
        assert_eq!(snap[0].min_ns, 100);
        assert_eq!(snap[0].max_ns, 300);
        assert_eq!(snap[1].calls, 1);
        assert_eq!(snap[1].fallbacks, 1);

        stats.reset();
        assert!(stats.snapshot().is_empty());
    }

    #[test]
    fn failures_count_as_calls_and_keep_their_latency() {
        let stats = StatementStats::new();
        let report = RewriteReport::default();
        stats.record("q", 100, 1, false, PlanOutcome::Fallback, &report);
        stats.record_failure("q", 300);
        let snap = stats.snapshot();
        assert_eq!(snap[0].calls, 2, "a failed call is still a call");
        assert_eq!(snap[0].failures, 1);
        assert_eq!(snap[0].total_ns, 400, "aborted time is real time");
        assert_eq!(snap[0].max_ns, 300);
        assert_eq!(snap[0].rows, 1, "failures return no rows");
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let stats = StatementStats::new();
        let report = RewriteReport::default();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let stats = stats.clone();
                let report = report.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        stats.record("q", 10, 1, false, PlanOutcome::Fallback, &report);
                    }
                });
            }
        });
        let snap = stats.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].calls, 4000);
        assert_eq!(snap[0].rows, 4000);
    }

    #[test]
    fn the_map_is_capped_and_evicts_the_stalest_entries() {
        let stats = StatementStats::new();
        let report = RewriteReport::default();
        let extra = 37;
        let total = STMT_STATS_CAP_ENTRIES + extra;
        for i in 0..total {
            let sql = format!("SELECT {i}");
            stats.record(&sql, 10, 1, false, PlanOutcome::Fallback, &report);
        }
        let snap = stats.snapshot();
        assert!(
            snap.len() <= STMT_STATS_CAP_ENTRIES,
            "{} entries",
            snap.len()
        );
        assert!(stats.evicted().get() >= extra as u64);
        assert_eq!(
            snap.len() as u64 + stats.evicted().get(),
            total as u64,
            "every statement is either resident or counted as evicted"
        );
        // The most recent statements survive; the oldest were dropped.
        let resident = |i: usize| snap.iter().any(|s| s.query == format!("SELECT {i}"));
        assert!((total - extra..total).all(resident), "recent ones stay");
        assert!(!resident(0), "the stalest statement must be gone");
    }
}
