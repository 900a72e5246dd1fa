//! One client's view of a run: issue statements, time them, check them.

use std::time::{Duration, Instant};

use rfv_core::{Database, QueryResult};
use rfv_types::Row;

use crate::check::{close, fingerprint, float_column};
use crate::gen::{Op, OpGen, Write};
use crate::layers::EngineSnap;
use crate::stats;
use crate::trace::{RewriteTally, StmtLayers, Tracer};

/// Read statements a run issues at least, whatever its length: the
/// sample count p95 needs, with a margin.
pub const MIN_READS: usize = 220;

/// A read statement that was also issued through the staged pipeline.
pub struct TracedStmt {
    /// Latency of the `Database::execute` call.
    pub execute_ns: u64,
    /// Whether that call was served from the result cache.
    pub hit: bool,
    pub layers: StmtLayers,
}

/// Reads re-issued through the staged pipeline: every 4th in a traced
/// run (they carry the spans), every 16th otherwise (correctness only).
const VERIFY_EVERY_TRACED: u64 = 4;
const VERIFY_EVERY: u64 = 16;

/// What a session checks beyond staged ≡ execute.
#[derive(Clone, Copy, Default)]
pub struct Checks<'a> {
    /// Also run re-issued statements with view rewrite off and compare
    /// the last column under the float tolerance scaled by these inputs
    /// (`view_derive`).
    pub views_off_raw: Option<&'a [f64]>,
    /// The workload has no statement a result cache may serve: the run
    /// fails if the engine counts a result-cache hit.
    pub forbid_result_hits: bool,
}

pub struct Session<'a> {
    pub db: &'a Database,
    pub tracer: Tracer,
    trace: bool,
    verify_every: u64,
    checks: Checks<'a>,
    pub read_ms: Vec<f64>,
    /// The statement class of each read, beside `read_ms`.
    pub read_class: Vec<&'static str>,
    /// Measured wall time (s) at which each read completed.
    pub read_done_s: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub rows_written: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub traced: Vec<TracedStmt>,
    pub tally: RewriteTally,
    pub sql_bytes: u64,
    /// `execute` latency (ns) of result-cache hits and misses; traced
    /// runs only.
    pub hit_ns: Vec<f64>,
    pub miss_ns: Vec<f64>,
    /// Staged wall time (ns) of pattern-class statements with view
    /// rewrite on, and of the same statements with it off.
    pub derived_ns: Vec<f64>,
    pub native_ns: Vec<f64>,
    first_hits: u64,
    last_hits: u64,
    next_stmt: u64,
    started: Instant,
    paused: Duration,
    /// Measured wall time of the closed loop, checks excluded.
    pub wall_s: f64,
    /// Wall time of the loop with its checks.
    pub loop_elapsed_s: f64,
    /// Engine counters when the loop's clock started and stopped.
    pub before: Option<EngineSnap>,
    pub after: Option<EngineSnap>,
}

impl<'a> Session<'a> {
    pub fn new(db: &'a Database, trace: bool, checks: Checks<'a>) -> Self {
        Session {
            db,
            tracer: Tracer::new(trace),
            trace,
            verify_every: if trace {
                VERIFY_EVERY_TRACED
            } else {
                VERIFY_EVERY
            },
            checks,
            read_ms: Vec::new(),
            read_class: Vec::new(),
            read_done_s: Vec::new(),
            write_ms: Vec::new(),
            rows_written: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            traced: Vec::new(),
            tally: RewriteTally::default(),
            sql_bytes: 0,
            hit_ns: Vec::new(),
            miss_ns: Vec::new(),
            derived_ns: Vec::new(),
            native_ns: Vec::new(),
            first_hits: db.cache_stats().hits,
            last_hits: db.cache_stats().hits,
            next_stmt: 0,
            started: Instant::now(),
            paused: Duration::ZERO,
            wall_s: 0.0,
            loop_elapsed_s: 0.0,
            before: None,
            after: None,
        }
    }

    /// Count one failed statement or check; the first few are kept for
    /// the report.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Issue `sql` outside the timed loop and check its rows with `ok`;
    /// `what` names the check in the report when it fails.
    pub fn probe(&mut self, sql: &str, what: &str, ok: impl FnOnce(&[Row]) -> bool) {
        self.attempted += 1;
        match self.db.execute(sql) {
            Ok(r) if ok(r.rows()) => {}
            Ok(_) => self.fail(format!("{what}: {sql}")),
            Err(e) => self.fail(format!("{what}: {e}: {sql}")),
        }
    }

    /// Record the outcome of a check that is not a statement of its own.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn start_clock(&mut self) {
        self.before = Some(EngineSnap::take(self.db));
        self.started = Instant::now();
        self.paused = Duration::ZERO;
    }

    fn wall(&self) -> f64 {
        (self.started.elapsed().saturating_sub(self.paused)).as_secs_f64()
    }

    pub fn stop_clock(&mut self) {
        self.wall_s = self.wall();
        self.loop_elapsed_s = self.started.elapsed().as_secs_f64();
        self.after = Some(EngineSnap::take(self.db));
        if self.checks.forbid_result_hits {
            let hits = self.db.cache_stats().hits - self.first_hits;
            self.expect(hits == 0, || {
                format!("{hits} result-cache hits on a workload built to have none")
            });
        }
    }

    /// Issue one read through `Database::execute`, timed from the call to
    /// the `QueryResult` in hand.
    pub fn read(&mut self, class: &'static str, sql: &str) -> Option<QueryResult> {
        self.attempted += 1;
        self.sql_bytes += sql.len() as u64;
        let start_ns = self.tracer.now_ns();
        let t0 = Instant::now();
        let result = self.db.execute(sql);
        let ns = t0.elapsed().as_nanos() as u64;
        let pause = Instant::now();
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("read `{class}` failed: {e}"));
                return None;
            }
        };
        self.read_ms.push(ns as f64 / 1e6);
        self.read_class.push(class);
        self.read_done_s.push(
            pause
                .duration_since(self.started)
                .saturating_sub(self.paused)
                .as_secs_f64(),
        );
        let mut hit = false;
        if self.trace {
            let hits = self.db.cache_stats().hits;
            hit = hits > self.last_hits;
            self.last_hits = hits;
            if hit {
                &mut self.hit_ns
            } else {
                &mut self.miss_ns
            }
            .push(ns as f64);
        }
        if (self.read_ms.len() as u64 - 1).is_multiple_of(self.verify_every) {
            self.verify(class, sql, &result, start_ns, ns, hit);
        }
        self.paused += pause.elapsed();
        Some(result)
    }

    /// Re-issue `sql` through the staged pipeline: the result must equal
    /// `Database::execute`'s bit for bit.
    fn verify(
        &mut self,
        class: &'static str,
        sql: &str,
        result: &QueryResult,
        start_ns: u64,
        execute_ns: u64,
        hit: bool,
    ) {
        let stmt = self.next_stmt;
        self.next_stmt += 1;
        self.tracer
            .record("core.engine.execute", start_ns, start_ns + execute_ns, stmt);
        let staged = match self.tracer.staged(self.db, sql, true, stmt) {
            Ok(s) => s,
            Err(e) => return self.fail(format!("staged `{class}` failed: {e}")),
        };
        self.expect(
            fingerprint(&staged.rows) == fingerprint(result.rows()),
            || format!("staged pipeline disagrees with execute: {sql}"),
        );
        if let Some(report) = &staged.report {
            self.tally.add(report);
        }
        if let Some(raw) = self.checks.views_off_raw {
            match self.tracer.staged(self.db, sql, false, stmt) {
                Err(e) => self.fail(format!("views-off `{class}` failed: {e}")),
                Ok(native) => {
                    let col = result.schema().len().saturating_sub(1);
                    let same = match (
                        float_column(&staged.rows, col),
                        float_column(&native.rows, col),
                    ) {
                        (Some(a), Some(b)) => close(&a, &b, raw),
                        // NULLs (MIN/MAX over an empty frame) or integers
                        // (COUNT): nothing to round, so compare bits.
                        _ => fingerprint(&staged.rows) == fingerprint(&native.rows),
                    };
                    self.expect(same, || format!("views-on differs from views-off: {sql}"));
                    if class == "pattern" {
                        self.derived_ns.push(staged.layers.total as f64);
                        self.native_ns.push(native.layers.total as f64);
                    }
                }
            }
        }
        if self.trace {
            self.traced.push(TracedStmt {
                execute_ns,
                hit,
                layers: staged.layers,
            });
        }
    }

    /// Issue one write through its public entry point, timed.
    pub fn write(&mut self, op: &Write) {
        self.attempted += 1;
        let t0 = Instant::now();
        let done = apply_write(self.db, op);
        let ns = t0.elapsed().as_nanos() as u64;
        match done {
            Ok(()) => {
                self.write_ms.push(ns as f64 / 1e6);
                self.rows_written += op.rows();
            }
            Err(e) => self.fail(format!("write failed: {e}")),
        }
    }

    /// Draw from `gen` in a closed loop until `seconds` of measured wall
    /// time have passed and [`MIN_READS`] reads are in.
    pub fn run_closed(&mut self, gen: &mut dyn OpGen, seconds: f64) {
        let give_up = Duration::from_secs_f64(seconds * 4.0 + 30.0);
        self.start_clock();
        while (self.wall() < seconds || self.read_ms.len() < MIN_READS)
            && self.started.elapsed() < give_up
        {
            match gen.next_op() {
                Op::Read { class, sql } => {
                    self.read(class, &sql);
                }
                Op::Write(w) => self.write(&w),
            }
        }
        self.stop_clock();
    }

    /// Reads completed per second of measured wall time
    /// ([`stats::blocked_rate`]).
    pub fn reads_per_s(&self) -> f64 {
        stats::blocked_rate(&self.read_done_s)
    }

    pub fn reads(&self) -> stats::Summary {
        stats::summarize(&self.read_ms)
    }

    /// Sample count, median and p95 of each statement class, slowest
    /// last: which class the run's p50 and p95 sit in.
    pub fn read_classes(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut by_class: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for (class, ms) in self.read_class.iter().zip(&self.read_ms) {
            match by_class.iter_mut().find(|(c, _)| c == class) {
                Some((_, v)) => v.push(*ms),
                None => by_class.push((class, vec![*ms])),
            }
        }
        let mut out: Vec<_> = by_class
            .into_iter()
            .map(|(c, mut v)| {
                v.sort_by(f64::total_cmp);
                (
                    c,
                    v.len(),
                    stats::quantile_sorted(&v, 0.5),
                    stats::quantile_sorted(&v, 0.95),
                )
            })
            .collect();
        out.sort_by(|a, b| a.2.total_cmp(&b.2));
        out
    }

    pub fn writes(&self) -> stats::Summary {
        stats::summarize(&self.write_ms)
    }
}

/// Apply `op` through the entry point it names; an `INSERT` / `UPDATE`
/// must report the row count the generator intended.
pub fn apply_write(db: &Database, op: &Write) -> Result<(), String> {
    match op {
        Write::Sql { sql, rows } => {
            let r = db.execute(sql).map_err(|e| e.to_string())?;
            if r.affected_rows() != Some(*rows) {
                return Err(format!(
                    "expected {rows} affected rows, got {:?}: {sql}",
                    r.affected_rows()
                ));
            }
            Ok(())
        }
        Write::SeqUpdate { table, pos, val } => db
            .sequence_update(table, *pos, *val)
            .map_err(|e| e.to_string()),
        Write::AppendBulk { table, vals } => db
            .sequence_append_bulk(table, vals)
            .map(|_| ())
            .map_err(|e| e.to_string()),
    }
}
