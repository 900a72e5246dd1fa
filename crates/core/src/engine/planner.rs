//! Planning: bind → optimize → physical plan, through the plan cache, with
//! one accounting point ([`Database::note_plan`]) that fresh and cached
//! plans share. View rewriting is no pass of its own: the [`Rewriter`] is
//! the physical planner's window rule, asked at every `Window` node in the
//! tree for a view source per expression; an expression no view derives
//! runs natively in the same node.

use std::sync::Arc;

use rfv_exec::WindowMode;
use rfv_obs::event;
use rfv_obs::Collector;
use rfv_plan::{optimize, Binder, PhysicalPlanner};
use rfv_sql as ast;
use rfv_types::Result;

use super::{Config, Database};
use crate::cache::{PlanDep, PlanEntry, PlanKey, PlanOutcome};
use crate::rewrite::{RewriteOutcome, RewriteReport, Rewriter};

/// Packed planning-relevant config bits for the plan-cache key. The
/// `tracing` knob is deliberately excluded: it changes what is measured,
/// never what is planned.
fn config_bits(config: &Config) -> u8 {
    let mode = match config.window_mode {
        WindowMode::Naive => 0u8,
        WindowMode::Pipelined => 1,
    };
    u8::from(config.view_rewrite) | (mode << 1)
}

impl Database {
    /// Plan `q` without timing it (plain EXPLAIN, CTAS-style views).
    pub(super) fn plan_query(&self, q: &ast::Query) -> Result<Arc<PlanEntry>> {
        self.plan_query_cached(q, &q.to_string(), &Collector::disabled())
            .map(|(entry, _)| entry)
    }

    /// Plan `q` through the plan cache. `sql` is the statement's
    /// normalized text (`q.to_string()`, computed once per statement).
    /// Returns the shared plan entry plus the cache key when the
    /// statement is cacheable (`None` means the result must not be
    /// cached either: the cache is disabled, or the plan reads a virtual
    /// system-table snapshot).
    ///
    /// A hit is observationally identical to a fresh planning pass: both
    /// are accounted by the one [`note_plan`](Self::note_plan) call.
    pub(super) fn plan_query_cached(
        &self,
        q: &ast::Query,
        sql: &str,
        collector: &Collector,
    ) -> Result<(Arc<PlanEntry>, Option<PlanKey>)> {
        let config = *self.config.read();
        let key = self.cache.enabled().then(|| PlanKey {
            sql: sql.to_string(),
            config: config_bits(&config),
            catalog_gen: self.catalog.generation(),
            registry_gen: self.registry.generation(),
        });
        let cached = key.as_ref().and_then(|key| self.cache.plan_get(key));
        if key.is_some() {
            let (counter, instant) = match cached {
                Some(_) => (&self.counters.cache.plan_hits, "plan_cache.hit"),
                None => (&self.counters.cache.plan_misses, "plan_cache.miss"),
            };
            counter.incr();
            event::recorder().instant(instant, "cache", None);
        }
        let fresh = cached.is_none();
        let entry = match cached {
            Some(entry) => entry,
            None => Arc::new(self.plan_fresh(q, config, collector)?),
        };
        self.note_plan(&entry);
        let key = key.filter(|_| entry.cacheable());
        if let Some(key) = key.as_ref().filter(|_| fresh) {
            self.cache.plan_put(key.clone(), Arc::clone(&entry));
        }
        Ok((entry, key))
    }

    /// One full planning pass: bind, optimize, lower through the one
    /// physical planner — with the view rewriter as its window rule unless
    /// rewriting is off — and capture the data generation of every table
    /// the plan reads. Pure — accounting is [`note_plan`](Self::note_plan)'s.
    fn plan_fresh(
        &self,
        q: &ast::Query,
        config: Config,
        collector: &Collector,
    ) -> Result<PlanEntry> {
        let binder = Binder::new(&self.catalog).with_window_mode(config.window_mode);
        let bound = collector.time("bind", || binder.bind_query(q))?;
        let logical = collector.time("optimize", || optimize(bound));
        let (physical, outcome, report) = if config.view_rewrite {
            let rewriter = Rewriter::new(&self.catalog, &self.registry);
            let (physical, report) = rewriter.plan(&logical, collector)?;
            let outcome = if report.rewritten {
                PlanOutcome::Rewritten
            } else {
                PlanOutcome::Fallback
            };
            (physical, outcome, report)
        } else {
            let physical = collector.time("physical-plan", || {
                PhysicalPlanner::new(&self.catalog).plan(&logical)
            })?;
            (physical, PlanOutcome::Disabled, RewriteReport::disabled())
        };
        // The cache's invalidation dependency set.
        let deps = physical
            .referenced_tables()
            .into_iter()
            .map(|table| {
                let generation = table.read().generation();
                PlanDep { table, generation }
            })
            .collect();
        Ok(PlanEntry {
            logical,
            physical,
            outcome,
            report: Arc::new(report),
            deps,
        })
    }

    /// Account one planned statement, fresh or cached alike:
    /// `query.planned == rewritten + fallback + disabled`,
    /// `rewrite.expressions == Σ rewrite.strategy.* + expr_fallback`, the
    /// `rewrite.decision` recorder instants, and the published
    /// [`last_rewrite_report`](Self::last_rewrite_report) (the entry's
    /// own `Arc`, never cloned).
    fn note_plan(&self, entry: &PlanEntry) {
        let c = &self.counters;
        c.query_planned.incr();
        match entry.outcome {
            PlanOutcome::Rewritten => c.rewrite_rewritten.incr(),
            PlanOutcome::Fallback => c.rewrite_fallback.incr(),
            PlanOutcome::Disabled => c.rewrite_disabled.incr(),
        }
        let rec = event::recorder();
        let rec_on = rec.is_enabled();
        for d in &entry.report.decisions {
            c.rewrite_expressions.incr();
            let label = match &d.outcome {
                RewriteOutcome::FromView { strategy, .. } => {
                    c.rewrite_strategy[strategy.index()].incr();
                    strategy.label()
                }
                RewriteOutcome::Fallback { .. } => {
                    c.rewrite_expr_fallback.incr();
                    "fallback"
                }
            };
            if rec_on {
                rec.instant("rewrite.decision", "rewrite", Some(label.to_string()));
            }
        }
        *self.last_rewrite.write() = Some(Arc::clone(&entry.report));
    }
}
