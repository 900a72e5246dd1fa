//! Two-level query cache with generation-based precise invalidation.
//!
//! The warehouse read workload the paper targets is the *repeated-query*
//! case: the same reporting-function queries arrive again and again
//! between (comparatively rare) maintenance batches. This module lets the
//! engine skip work on repeats at two levels:
//!
//! * a **plan cache** — normalized statement text + planning-relevant
//!   config + catalog/registry generations → the fully bound, optimized,
//!   rewritten plan pair. Entries also record the *data* generation of
//!   every table the plan reads, because planning is data-dependent: the
//!   physical planner picks join sides from [`rfv_storage::Table::stats`].
//!   A dep-generation mismatch is treated as a miss. (A rewritten plan
//!   holds no view data — it reads the live view when it executes — but
//!   its report quotes data-dependent counts and its *result* depends on
//!   the view, which is what the registry generation in the key is for.)
//! * a **result cache** — plan key + the generation vector of every
//!   table the plan reads → the finished [`QueryResult`]. Any DML,
//!   batched maintenance, or view refresh bumps a referenced generation,
//!   which changes the key: stale entries become *unreachable* instantly
//!   and are evicted lazily by the LRU — there is no scan-and-purge, so
//!   there is nothing to race with writers.
//!
//! Insertion uses a validate-after protocol: the engine captures the
//! generation vector *before* executing, re-reads it *after*, and only
//! inserts when the two match. A scan that raced a writer mid-execution
//! (scans are not snapshot-isolated) therefore can never be published
//! under a key that still looks fresh — the PR-5 reader-storm regime
//! stays safe. Generations are monotonic, so the equality check cannot
//! be fooled by ABA.
//!
//! Only plain `SELECT` statements are cacheable. `EXPLAIN` never touches
//! the result cache; `EXPLAIN ANALYZE` must *measure* real execution, so
//! it only peeks (to annotate `[cache: hit]`) and neither serves from
//! nor populates it. DML results are per-execution effects, not derived
//! data, and are never cached.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::Arc;

use rfv_exec::PhysicalPlan;
use rfv_obs::{Counter, MetricsRegistry};
use rfv_plan::LogicalPlan;
use rfv_storage::TableRef;
use rfv_types::sync::RwLock;
use rfv_types::Value;

use crate::engine::QueryResult;
use crate::rewrite::RewriteReport;

/// Default result-cache capacity when `RFV_CACHE_BYTES` is unset.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Entry cap of the plan cache (plans are small; bound the count, not
/// the bytes).
const PLAN_CAP_ENTRIES: usize = 512;

/// Entry cap of [`crate::stats::StatementStats`] (≈ 820 B per entry, so
/// ≈ 3.4 MB when full).
pub(crate) const STMT_STATS_CAP_ENTRIES: usize = 4096;

/// Key of one cached plan: what planning *reads* besides table data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Normalized statement text (the AST's canonical `Display` form, so
    /// whitespace/case variants of the same query share an entry).
    pub sql: String,
    /// Packed planning-relevant config bits (`view_rewrite`,
    /// `window_mode`).
    pub config: u8,
    /// Catalog DDL generation at plan time.
    pub catalog_gen: u64,
    /// View-registry generation at plan time.
    pub registry_gen: u64,
}

/// Report-level outcome of the planning pass, replayed into the rewrite
/// counters on a plan-cache hit so `query.planned` keeps partitioning
/// into `rewrite.{rewritten,fallback,disabled}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanOutcome {
    Rewritten,
    Fallback,
    Disabled,
}

/// One table the plan reads, with its data generation at plan time.
#[derive(Debug, Clone)]
pub(crate) struct PlanDep {
    pub table: TableRef,
    pub generation: u64,
}

/// A fully planned query, shared between the statement path, the explain
/// paths, and the caches.
#[derive(Debug)]
pub(crate) struct PlanEntry {
    pub logical: LogicalPlan,
    pub physical: PhysicalPlan,
    pub outcome: PlanOutcome,
    pub report: Arc<RewriteReport>,
    pub deps: Vec<PlanDep>,
}

impl PlanEntry {
    /// The *current* generation of every dep table, in dep order.
    pub fn dep_generations(&self) -> Vec<u64> {
        self.deps
            .iter()
            .map(|d| d.table.read().generation())
            .collect()
    }

    /// Whether every dep table still holds the data it held at plan time.
    pub fn deps_valid(&self) -> bool {
        self.deps
            .iter()
            .all(|d| d.table.read().generation() == d.generation)
    }

    /// Whether this plan may enter the plan/result caches. Plans that
    /// read a virtual system-table snapshot must not: the snapshot is
    /// point-in-time telemetry that every fresh lookup rebuilds, so a
    /// cached plan (or result) over it would serve stale statistics
    /// forever — its captured `TableRef` is detached from the catalog
    /// and its generation never moves again.
    pub fn cacheable(&self) -> bool {
        !self.deps.iter().any(|d| d.table.read().is_virtual())
    }
}

/// Key of one cached result: the plan key plus the dep-generation
/// vector captured (and re-validated) around execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    pub plan: PlanKey,
    pub gens: Vec<u64>,
}

/// Pre-resolved cache counter handles (`cache.*` in every registry).
/// `bytes` is a gauge: it tracks the resident result-cache size.
#[derive(Clone)]
pub(crate) struct CacheCounters {
    pub hits: Counter,
    pub misses: Counter,
    pub inserts: Counter,
    pub evictions: Counter,
    pub bytes: Counter,
    pub plan_hits: Counter,
    pub plan_misses: Counter,
}

impl CacheCounters {
    pub fn new(metrics: &MetricsRegistry) -> Self {
        CacheCounters {
            hits: metrics.counter("cache.hits"),
            misses: metrics.counter("cache.misses"),
            inserts: metrics.counter("cache.inserts"),
            evictions: metrics.counter("cache.evictions"),
            bytes: metrics.counter("cache.bytes"),
            plan_hits: metrics.counter("cache.plan_hits"),
            plan_misses: metrics.counter("cache.plan_misses"),
        }
    }
}

/// A byte-budgeted LRU: `HashMap` for lookup, `BTreeMap<tick, key>` for
/// O(log n) recency order (ticks are unique, monotonically increasing).
struct Lru<K, V> {
    map: HashMap<K, Slot<V>>,
    order: BTreeMap<u64, K>,
    tick: u64,
    bytes: usize,
}

struct Slot<V> {
    tick: u64,
    bytes: usize,
    value: V,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new() -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            bytes: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let slot = self.map.get_mut(key)?;
        let old = slot.tick;
        self.tick += 1;
        slot.tick = self.tick;
        let value = slot.value.clone();
        self.order.remove(&old);
        self.order.insert(self.tick, key.clone());
        Some(value)
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn insert(&mut self, key: K, value: V, bytes: usize) {
        self.tick += 1;
        if let Some(old) = self.map.insert(
            key.clone(),
            Slot {
                tick: self.tick,
                bytes,
                value,
            },
        ) {
            self.order.remove(&old.tick);
            self.bytes -= old.bytes;
        }
        self.order.insert(self.tick, key);
        self.bytes += bytes;
    }

    fn remove(&mut self, key: &K) {
        if let Some(slot) = self.map.remove(key) {
            self.order.remove(&slot.tick);
            self.bytes -= slot.bytes;
        }
    }

    /// Evict least-recently-used entries until the byte total fits
    /// `cap`. Returns how many entries were evicted.
    fn evict_to(&mut self, cap: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes > cap {
            let Some((&tick, _)) = self.order.iter().next() else {
                break;
            };
            let Some(key) = self.order.remove(&tick) else {
                break;
            };
            if let Some(slot) = self.map.remove(&key) {
                self.bytes -= slot.bytes;
            }
            evicted += 1;
        }
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Point-in-time cache statistics, for the shell's `\cache stats`.
#[derive(Debug, Clone, Copy)]
pub struct CacheStats {
    pub enabled: bool,
    pub capacity_bytes: usize,
    pub resident_bytes: usize,
    pub result_entries: usize,
    pub plan_entries: usize,
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

struct CacheState {
    cap_bytes: usize,
    plan: Lru<PlanKey, Arc<PlanEntry>>,
    result: Lru<ResultKey, QueryResult>,
}

/// The engine's two-level cache. One write lock guards both levels —
/// lookups are short map operations; dep-generation validation (which
/// takes table read locks) happens *outside* the cache lock.
pub(crate) struct QueryCache {
    state: RwLock<CacheState>,
    counters: CacheCounters,
}

impl QueryCache {
    pub fn new(cap_bytes: usize, counters: CacheCounters) -> Self {
        QueryCache {
            state: RwLock::new(CacheState {
                cap_bytes,
                plan: Lru::new(),
                result: Lru::new(),
            }),
            counters,
        }
    }

    /// Whether caching is on (capacity > 0 disables both levels).
    pub fn enabled(&self) -> bool {
        self.state.read().cap_bytes > 0
    }

    /// Resize the result-cache byte budget. `0` disables both levels and
    /// drops every entry (the pure pre-cache execution path).
    pub fn set_capacity(&self, bytes: usize) {
        let mut s = self.state.write();
        s.cap_bytes = bytes;
        if bytes == 0 {
            s.plan.clear();
            s.result.clear();
        } else {
            let evicted = s.result.evict_to(bytes);
            self.counters.evictions.add(evicted);
        }
        self.counters.bytes.set(s.result.bytes as u64);
    }

    /// Look a plan up and validate its dep generations. An entry whose
    /// deps drifted is removed and reported as a miss — stats-driven
    /// plan choices and view-derived constants may be stale.
    pub fn plan_get(&self, key: &PlanKey) -> Option<Arc<PlanEntry>> {
        let entry = self.state.write().plan.get(key)?;
        // Table read locks are taken here, outside the cache lock.
        if entry.deps_valid() {
            Some(entry)
        } else {
            self.state.write().plan.remove(key);
            None
        }
    }

    pub fn plan_put(&self, key: PlanKey, entry: Arc<PlanEntry>) {
        let mut s = self.state.write();
        if s.cap_bytes == 0 {
            return;
        }
        s.plan.insert(key, entry, 1);
        s.plan.evict_to(PLAN_CAP_ENTRIES);
    }

    pub fn result_get(&self, key: &ResultKey) -> Option<QueryResult> {
        let mut s = self.state.write();
        if s.cap_bytes == 0 {
            return None;
        }
        s.result.get(key)
    }

    /// Peek without touching recency order or any counter — used by
    /// EXPLAIN ANALYZE's `[cache: hit]` annotation, which must not
    /// perturb what it observes.
    pub fn result_contains(&self, key: &ResultKey) -> bool {
        self.state.read().result.contains(key)
    }

    /// Insert a finished result. The caller has already re-validated the
    /// generation vector (validate-after); oversized results that could
    /// never fit are dropped rather than flushing the whole cache.
    pub fn result_put(&self, key: ResultKey, value: QueryResult) {
        let bytes = approx_entry_bytes(&key, &value);
        let mut s = self.state.write();
        if s.cap_bytes == 0 || bytes > s.cap_bytes {
            return;
        }
        s.result.insert(key, value, bytes);
        let cap = s.cap_bytes;
        let evicted = s.result.evict_to(cap);
        self.counters.inserts.incr();
        self.counters.evictions.add(evicted);
        self.counters.bytes.set(s.result.bytes as u64);
    }

    pub fn stats(&self) -> CacheStats {
        let s = self.state.read();
        CacheStats {
            enabled: s.cap_bytes > 0,
            capacity_bytes: s.cap_bytes,
            resident_bytes: s.result.bytes,
            result_entries: s.result.len(),
            plan_entries: s.plan.len(),
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            inserts: self.counters.inserts.get(),
            evictions: self.counters.evictions.get(),
            plan_hits: self.counters.plan_hits.get(),
            plan_misses: self.counters.plan_misses.get(),
        }
    }
}

/// Approximate resident size of one result-cache entry: key text +
/// generation vector + per-row/value payload (string heap included).
fn approx_entry_bytes(key: &ResultKey, value: &QueryResult) -> usize {
    let mut bytes = 96 + key.plan.sql.len() + 8 * key.gens.len();
    for row in value.rows() {
        bytes += 32;
        for v in row.values() {
            bytes += std::mem::size_of::<Value>();
            if let Value::Str(s) = v {
                bytes += s.len();
            }
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sql: &str, gen: u64) -> ResultKey {
        ResultKey {
            plan: PlanKey {
                sql: sql.to_string(),
                config: 0,
                catalog_gen: 0,
                registry_gen: 0,
            },
            gens: vec![gen],
        }
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut lru: Lru<u32, u32> = Lru::new();
        lru.insert(1, 10, 4);
        lru.insert(2, 20, 4);
        lru.insert(3, 30, 4);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.evict_to(8), 1);
        assert!(!lru.contains(&2), "untouched entry evicted first");
        assert!(lru.contains(&1) && lru.contains(&3));
        // Re-insert under the same key replaces bytes, not duplicates.
        lru.insert(3, 33, 6);
        assert_eq!(lru.bytes, 10);
        assert_eq!(lru.len(), 2);
        lru.remove(&1);
        assert_eq!(lru.bytes, 6);
        lru.clear();
        assert_eq!((lru.len(), lru.bytes), (0, 0));
    }

    #[test]
    fn capacity_zero_disables_and_clears() {
        let metrics = MetricsRegistry::new();
        let cache = QueryCache::new(1 << 20, CacheCounters::new(&metrics));
        assert!(cache.enabled());
        cache.result_put(key("q", 0), QueryResult::empty());
        assert!(cache.result_contains(&key("q", 0)));
        cache.set_capacity(0);
        assert!(!cache.enabled());
        assert!(!cache.result_contains(&key("q", 0)));
        assert!(cache.result_get(&key("q", 0)).is_none());
        assert_eq!(metrics.counter_value("cache.bytes"), 0);
        // Inserts while disabled are dropped.
        cache.result_put(key("q", 0), QueryResult::empty());
        assert!(!cache.result_contains(&key("q", 0)));
    }

    #[test]
    fn generation_change_makes_entry_unreachable() {
        let metrics = MetricsRegistry::new();
        let cache = QueryCache::new(1 << 20, CacheCounters::new(&metrics));
        cache.result_put(key("q", 1), QueryResult::empty());
        assert!(cache.result_get(&key("q", 1)).is_some());
        // Same query, newer generation: different key, no hit — the old
        // entry lingers until the LRU evicts it, which is fine because
        // no lookup can ever produce its key again.
        assert!(cache.result_get(&key("q", 2)).is_none());
    }

    #[test]
    fn byte_budget_evicts_and_reports() {
        let metrics = MetricsRegistry::new();
        let cache = QueryCache::new(600, CacheCounters::new(&metrics));
        // Each empty-result entry costs ~100 bytes of key overhead; six
        // of them overflow 600 and force evictions.
        for i in 0..6 {
            cache.result_put(key(&format!("q{i}"), 0), QueryResult::empty());
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.resident_bytes <= 600, "{stats:?}");
        assert_eq!(stats.inserts, 6);
        assert_eq!(
            metrics.counter_value("cache.bytes") as usize,
            stats.resident_bytes
        );
        // An entry that could never fit is dropped, not cached.
        let cache = QueryCache::new(10, CacheCounters::new(&metrics));
        cache.result_put(key("huge", 0), QueryResult::empty());
        assert_eq!(cache.stats().result_entries, 0);
    }
}
