//! Metric and workload tables, and the result a run prints.
//!
//! `/BENCHMARK.json` is the contract with the external driver; the tables
//! here are the same names seen from the program's side, and a unit test
//! keeps the two in step.

use std::collections::BTreeMap;

/// A metric with a regression bound: the share of the base median by
/// which it may get worse before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct Gated {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// End-to-end metrics every workload reports (`--trace 0`), in output
/// order. These are `end_to_end` in `/BENCHMARK.json`.
pub const END_TO_END: [Gated; 6] = [
    Gated {
        name: "stmt_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    Gated {
        name: "stmt_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    Gated {
        name: "stmts_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    Gated {
        name: "write_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    Gated {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    Gated {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// End-to-end metrics only the ingest workloads have. The external
/// driver wants every workload to report every `end_to_end` metric, so
/// these travel in the traced run's list instead and are gated by
/// `rfv-bench compare` alone.
pub const INGEST_END_TO_END: [Gated; 4] = [
    Gated {
        name: "driver.write_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    Gated {
        name: "driver.ingest_rows_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    Gated {
        name: "core.durability.recovery_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    Gated {
        name: "storage.wal.bytes_per_row",
        unit: "B/row",
        better: "lower",
        bound: 0.02,
    },
];

/// Per-layer metrics (`--trace 1`): name, unit, direction. Layers are
/// the crate / module names. These are `per_layer` in `/BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str, &str); 89] = [
    // Front end: should move stmt_p50_ms / stmts_per_s on short_stmt only.
    ("sql.parse_ns", "ns", "lower"),
    ("sql.bytes_per_stmt", "B", "lower"),
    ("plan.bind_ns", "ns", "lower"),
    ("plan.optimize_ns", "ns", "lower"),
    ("plan.physical_ns", "ns", "lower"),
    ("core.rewrite_ns", "ns", "lower"),
    // View derivation: should move stmt_p95_ms / stmts_per_s on view_derive.
    ("core.rewrite.rewritten_ratio", "ratio", "higher"),
    ("core.rewrite.strategy.exact", "count", "higher"),
    ("core.rewrite.strategy.cumulative", "count", "higher"),
    ("core.rewrite.strategy.minoa", "count", "lower"),
    ("core.rewrite.strategy.maxoa", "count", "higher"),
    ("core.rewrite.strategy.avg_from_sum", "count", "lower"),
    ("core.rewrite.strategy.count_closed_form", "count", "higher"),
    ("core.rewrite.strategy.partitioned", "count", "higher"),
    ("core.rewrite.strategy.fallback", "count", "lower"),
    ("core.rewrite.minoa_terms_max", "count", "lower"),
    ("core.patterns.derive_vs_native_ratio", "ratio", "lower"),
    // The paper's Table 1 / Table 2 cells at n = 600.
    ("core.patterns.native_ms", "ms", "lower"),
    ("core.patterns.selfjoin_ix_ms", "ms", "lower"),
    ("core.patterns.selfjoin_noix_ms", "ms", "lower"),
    ("core.patterns.maxoa_dis_ms", "ms", "lower"),
    ("core.patterns.maxoa_union_ms", "ms", "lower"),
    ("core.patterns.maxoa_hash_ms", "ms", "lower"),
    ("core.patterns.minoa_dis_ms", "ms", "lower"),
    ("core.patterns.minoa_union_ms", "ms", "lower"),
    ("core.patterns.minoa_hash_ms", "ms", "lower"),
    // Execution: should move stmt_p50_ms / stmts_per_s / peak_rss_mb on report_scan.
    ("exec.total_ns", "ns", "lower"),
    ("exec.scan.self_ns", "ns", "lower"),
    ("exec.filter.self_ns", "ns", "lower"),
    ("exec.project.self_ns", "ns", "lower"),
    ("exec.sort.self_ns", "ns", "lower"),
    ("exec.aggregate.self_ns", "ns", "lower"),
    ("exec.join.self_ns", "ns", "lower"),
    ("exec.other.self_ns", "ns", "lower"),
    ("exec.scan.ns_per_row", "ns", "lower"),
    ("exec.sort.ns_per_row", "ns", "lower"),
    ("exec.aggregate.ns_per_row", "ns", "lower"),
    ("exec.join.ns_per_row", "ns", "lower"),
    ("exec.rows_scanned", "count", "lower"),
    ("exec.rows_emitted", "count", "higher"),
    ("exec.rows_scanned_per_row_emitted", "ratio", "lower"),
    // Window operator: should move report_window and ingest_storm's reader.
    ("exec.window.self_ns", "ns", "lower"),
    ("exec.window.ns_per_row", "ns", "lower"),
    ("exec.window.sorts_per_stmt", "count", "lower"),
    // Scheduler: should move stmt_p50_ms on report_scan / report_window.
    ("exec.sched.tasks", "count", "lower"),
    ("exec.sched.steals", "count", "lower"),
    ("exec.sched.parallel_ops", "count", "higher"),
    ("exec.sched.busy_ratio", "ratio", "higher"),
    ("exec.sched.serial_over_parallel", "ratio", "higher"),
    // Caches: should move stmts_per_s on short_stmt; zero hits elsewhere.
    ("core.cache.plan_hit_ratio", "ratio", "higher"),
    ("core.cache.result_hit_ratio", "ratio", "higher"),
    ("core.cache.evictions", "count", "lower"),
    ("core.cache.resident_bytes", "B", "lower"),
    ("core.cache.hit_stmt_ns", "ns", "lower"),
    ("core.cache.miss_stmt_ns", "ns", "lower"),
    // Statement lifecycle in engine.rs: should move stmt_p50_ms on short_stmt.
    ("core.engine.overhead_ns", "ns", "lower"),
    ("core.engine.layer_sum_ratio", "ratio", "higher"),
    // Storage: should move setup_s / ingest throughput / peak_rss_mb.
    ("storage.table.insert_ns_per_row", "ns", "lower"),
    ("storage.table.insert_many_ns_per_row", "ns", "lower"),
    ("storage.table.scan_ns_per_row", "ns", "lower"),
    ("storage.table.index_lookup_ns", "ns", "lower"),
    ("storage.table.rss_bytes_per_row", "B", "lower"),
    // View maintenance: should move write_p50_ms on the ingest workloads.
    ("core.maintenance.ns_per_write", "ns", "lower"),
    ("core.maintenance.recomputed_per_row", "ratio", "lower"),
    ("core.maintenance.coalesced", "count", "higher"),
    ("core.maintenance.batches", "count", "lower"),
    // Durability: should move write_p50_ms / recovery on ingest_maintain.
    ("storage.wal.records", "count", "lower"),
    ("storage.wal.bytes", "B", "lower"),
    ("storage.wal.fsyncs", "count", "lower"),
    ("storage.wal.bytes_per_user_byte", "ratio", "lower"),
    ("storage.wal.bytes_per_row", "B/row", "lower"),
    ("storage.wal.ns_per_write", "ns", "lower"),
    ("storage.snapshot.write_ms", "ms", "lower"),
    ("storage.snapshot.bytes", "B", "lower"),
    ("storage.snapshot.recover_ms", "ms", "lower"),
    ("core.durability.recovery_s", "s", "lower"),
    ("core.durability.replayed", "count", "lower"),
    ("core.durability.replay_records_per_s", "1/s", "higher"),
    // Validity of the run.
    ("core.governor.rejected", "count", "lower"),
    ("core.governor.timeouts", "count", "lower"),
    ("core.governor.cancelled", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("driver.late_p50_ms", "ms", "lower"),
    ("driver.late_max_ms", "ms", "lower"),
    ("driver.read_p95_ms", "ms", "lower"),
    ("driver.write_p95_ms", "ms", "lower"),
    ("driver.ingest_rows_per_s", "1/s", "higher"),
    ("driver.samples", "count", "higher"),
    ("driver.traced_stmts", "count", "higher"),
];

/// A workload: its name, why it exists, and how load is offered.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Client threads and loop type, for the result header.
    pub load: &'static str,
    /// Whether the engine runs at one thread rather than at
    /// `T = min(nproc, 4)`. `ingest_storm`: its two client threads already
    /// fill two cores. `report_scan`: at two engine threads every process
    /// had a speed of its own (same seed, same binary: run medians in two
    /// groups 12 % apart, an interquartile spread of 10-16 % that no
    /// statistic inside a run removes; 2-9 % at one thread), so this
    /// workload measures the operators, and `report_window` and
    /// `exec.sched.*` measure the scheduler.
    pub serial_engine: bool,
}

impl Workload {
    /// Engine threads this workload runs at, given `T`.
    pub fn engine_threads(&self, t: usize) -> usize {
        if self.serial_engine {
            1
        } else {
            t
        }
    }
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "report_scan",
        why: "filter, GROUP BY, top-k and hash join over 40k rows at one engine thread, a fresh \
              literal per statement: rfv_exec scan/filter/aggregate/sort/join do the work, the \
              front end under 1 %",
        load: "1 client, closed loop",
        serial_engine: true,
    },
    Workload {
        name: "report_window",
        why: "window statements over 10k rows, no WHERE, no views: rfv_exec::window's sorts and \
              kernels are the work; three OVERs with compatible but unequal specs each sort again",
        load: "1 client, closed loop",
        serial_engine: false,
    },
    Workload {
        name: "view_derive",
        why: "windows answered from materialized views (paper s3-s6): cheap derivations hold the \
              median, SUM/AVG frames rewritten to MinOA join patterns hold p95",
        load: "1 client, closed loop",
        serial_engine: false,
    },
    Workload {
        name: "short_stmt",
        why: "microsecond statements on 1k rows, 30 % repeats: parse, bind, plan, caches and \
              per-statement accounting are the work; the only workload the result cache serves",
        load: "1 client, closed loop",
        serial_engine: false,
    },
    Workload {
        name: "ingest_maintain",
        why: "durable (fsync) updates and multi-row inserts under four maintained views: \
              rfv_storage table/wal and rfv_core maintenance/durability do the work, exec none",
        load: "1 client, closed loop",
        serial_engine: false,
    },
    Workload {
        name: "ingest_storm",
        why: "open-loop bulk appends beside a closed-loop window reader on one table, a CPU each: the only \
              workload where readers and a writer contend for the per-table lock",
        load: "2 clients: writer open loop, reader closed loop",
        serial_engine: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run produced, end-to-end and per-layer alike.
    pub values: BTreeMap<&'static str, f64>,
    /// Lines for the human reader: sample counts, first errors.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Record a correctness check that is not a statement of its own.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            self.notes.push(format!("ERROR {what}"));
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{}` prints the shortest text that reads back as the same f64:
        // every digit measured, none invented.
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line the external driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`; the metrics are the end-to-end
/// list for an untraced run and the per-layer list for a traced one.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(outcome.get(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Every metric by name and unit, for the human reader.
pub fn print_metrics(outcome: &Outcome, trace: bool) {
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    let line = |name: &str| {
        println!("{name:<42} {:>16.4} {}", outcome.get(name), unit_of(name));
    };
    if trace {
        for (name, _, _) in PER_LAYER {
            line(name);
        }
    } else {
        for m in END_TO_END {
            line(m.name);
        }
        // The ingest-only end-to-end metrics, when the workload has them.
        for m in INGEST_END_TO_END {
            if outcome.values.contains_key(m.name) {
                line(m.name);
            }
        }
        println!(
            "{:<42} {:>16.6} ratio ({} failed of {})",
            "error_rate",
            outcome.error_rate(),
            outcome.failed,
            outcome.attempted
        );
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_obs::Json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.set("stmt_p50_ms", 1.25);
        for trace in [false, true] {
            let doc = Json::parse(&result_line(&o, trace)).unwrap();
            let Json::Obj(pairs) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics")
            };
            let want = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), want);
        }
        let doc = Json::parse(&result_line(&o, false)).unwrap();
        let p50 = doc.get("metrics").and_then(|m| m.get("stmt_p50_ms"));
        assert_eq!(
            p50.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(1.25)
        );
    }

    /// `/BENCHMARK.json` and the tables above name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let mut e2e = names("end_to_end");
        e2e.sort();
        let mut ours: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        ours.sort();
        assert_eq!(e2e, ours);
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let ours = END_TO_END.iter().find(|g| g.name == name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(ours.unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some(ours.better));
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(names("per_layer"), layer);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let name = w.get("name").and_then(Json::as_str).unwrap();
            let why = workload(name).unwrap().why;
            assert_eq!(w.get("why").and_then(Json::as_str), Some(why));
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
