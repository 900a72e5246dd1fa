//! `rfv` — an interactive SQL shell over the reporting-function-view
//! engine.
//!
//! ```sh
//! cargo run -p rfv-core --release --bin rfv
//! ```
//!
//! Meta commands (`.name` and `\name` are equivalent):
//!
//! * `.help` — this list
//! * `.tables` — catalog contents
//! * `.views` — registered materialized sequence views
//! * `.explain <query>` — logical + physical plan (shows whether a view
//!   rewrite fired); `EXPLAIN [ANALYZE] <query>` also works as SQL
//! * `.load <table> <nrows>` — bulk-append `<nrows>` generated rows
//!   through the batched maintenance path (one pass per view)
//! * `.rewrite on|off` — toggle view-aware rewriting
//! * `\cache [on|off|stats]` — toggle the plan/result cache or show its
//!   hit/miss/byte statistics
//! * `\timing on|off` — per-statement wall time plus the traced phase
//!   breakdown (parse/bind/optimize/rewrite/plan/execute)
//! * `\metrics [json]` — the engine metrics registry as an aligned table
//!   (or raw JSON with `json`)
//! * `\record on|off|dump <path>|stats|clear` — the flight recorder;
//!   `dump` writes Chrome Trace Event JSON for Perfetto /
//!   `chrome://tracing`. `RFV_TRACE_FILE=<path>` records from startup
//!   and dumps on exit.
//! * `.quit`
//!
//! System statistics are also plain SQL: `SELECT query, calls, total_ns
//! FROM rfv_stat_statements ORDER BY total_ns DESC LIMIT 5`.
//!
//! Everything else is executed as SQL (`;`-separated statements allowed).

use std::io::{BufRead, Write};

use rfv_core::Database;
use rfv_obs::{fmt_ns, Json, Stopwatch};

/// SIGINT (Ctrl-C) handling: while a query runs, the first Ctrl-C raises
/// the process-global cooperative interrupt flag — the engine's
/// statement token consumes it at its next operator checkpoint and the
/// shell prints `error: query cancelled: …` and returns to the prompt.
/// At the prompt (no query running), Ctrl-C exits with the conventional
/// 128+SIGINT status. Everything the handler touches is
/// async-signal-safe: one atomic load, one atomic store, `_exit`.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static QUERY_RUNNING: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;

    extern "C" {
        // libc is already linked by std; `signal` keeps the FFI surface
        // to one call (glibc gives it BSD semantics — SA_RESTART — so an
        // interrupted `read_line` at the prompt resumes cleanly).
        fn signal(signum: i32, handler: usize) -> usize;
        #[link_name = "_exit"]
        fn exit_now(status: i32) -> !;
    }

    extern "C" fn on_sigint(_sig: i32) {
        if QUERY_RUNNING.load(Ordering::Relaxed) {
            rfv_types::governance::raise_interrupt();
        } else {
            unsafe { exit_now(130) }
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }

    /// Mark the window in which Ctrl-C means "cancel the query" rather
    /// than "exit the shell".
    pub fn set_query_running(on: bool) {
        QUERY_RUNNING.store(on, Ordering::Relaxed);
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() {}
    pub fn set_query_running(_on: bool) {}
}

const HELP: &str = "\
meta commands (.name and \\name are equivalent):
  .help                 this list
  .tables               catalog contents (real tables; see also the
                        rfv_stat_* virtual system tables)
  .views                registered materialized sequence views
  .explain <query>      show the plan (and whether a view rewrite fired)
  .load <table> <nrows> bulk-append generated rows (batched maintenance)
  .rewrite on|off       toggle answering window queries from views
  \\cache [on|off|stats] toggle the query cache / show hit statistics
  \\timing on|off        print per-statement time and phase breakdown
  \\metrics [json]       engine metrics: aligned table, or raw JSON
  \\record on|off|dump <path>|stats|clear
                        flight recorder; dump writes Chrome Trace Event
                        JSON (open in Perfetto or chrome://tracing)
  \\threads [n]          show or cap the thread count (0 = reset to
                        RFV_THREADS / hardware default)
  \\persist status|snapshot|compact
                        durable storage (RFV_DATA_DIR): WAL/recovery
                        status, write a snapshot, or snapshot + rotate
                        the WAL and prune old snapshots
  .quit                 exit
Ctrl-C cancels the running query; at the prompt it exits the shell.
anything else is executed as SQL (try EXPLAIN ANALYZE <query>), e.g.:
  CREATE TABLE seq (pos BIGINT PRIMARY KEY, val DOUBLE NOT NULL);
  INSERT INTO seq VALUES (1, 10.0), (2, 20.0), (3, 30.0);
  CREATE MATERIALIZED VIEW mv AS SELECT pos, SUM(val) OVER
    (ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq;
  SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING
    AND 1 FOLLOWING) AS s FROM seq;
  SELECT query, calls, total_ns FROM rfv_stat_statements
    ORDER BY total_ns DESC LIMIT 5;";

/// Render the metrics-registry JSON as two aligned, sorted tables
/// (counters, then histograms). The input is `Database::metrics_json`,
/// whose keys are already sorted.
fn render_metrics(doc: &Json) -> String {
    let mut out = String::new();
    if let Some(Json::Obj(counters)) = doc.get("counters") {
        if !counters.is_empty() {
            let w = counters.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            out.push_str(&format!("{:<w$}  {:>12}\n", "counter", "value"));
            for (name, v) in counters {
                let v = v.as_i64().unwrap_or(0);
                out.push_str(&format!("{name:<w$}  {v:>12}\n"));
            }
        }
    }
    if let Some(Json::Obj(histograms)) = doc.get("histograms") {
        if !histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let w = histograms.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            const COLS: [&str; 6] = ["count", "sum_ns", "min_ns", "max_ns", "p50_ns", "p95_ns"];
            out.push_str(&format!("{:<w$}", "histogram"));
            for c in COLS {
                out.push_str(&format!("  {c:>12}"));
            }
            out.push('\n');
            for (name, h) in histograms {
                out.push_str(&format!("{name:<w$}"));
                for c in COLS {
                    let v = h.get(c).and_then(Json::as_i64).unwrap_or(0);
                    out.push_str(&format!("  {v:>12}"));
                }
                out.push('\n');
            }
        }
    }
    out
}

fn main() {
    // With RFV_DATA_DIR the shell opens the directory itself (stable
    // path + crash recovery), instead of Database::new()'s fresh
    // unique-subdirectory behavior.
    let db = match std::env::var("RFV_DATA_DIR") {
        Ok(dir) if !dir.is_empty() => match Database::open(&dir) {
            Ok(db) => {
                if let Some(s) = db.persist_status() {
                    println!(
                        "opened {} (lsn {}, {} records replayed{})",
                        dir,
                        s.last_lsn,
                        s.replayed,
                        if s.truncated_bytes > 0 {
                            format!(", {} torn bytes truncated", s.truncated_bytes)
                        } else {
                            String::new()
                        }
                    );
                }
                db
            }
            Err(e) => {
                eprintln!("error: cannot open {dir}: {e}");
                std::process::exit(1);
            }
        },
        _ => Database::new(),
    };
    // Ctrl-C cancels the running query (second Ctrl-C at the prompt
    // exits); the engine's statement tokens consume the interrupt flag.
    sigint::install();
    db.set_interrupt_handling(true);
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    println!("rfv — reporting function views (ICDE 2002 reproduction)");
    println!("type .help for commands, .quit to exit");
    let mut buffer = String::new();
    let mut timing = false;
    loop {
        let prompt = if buffer.is_empty() { "rfv> " } else { "  -> " };
        print!("{prompt}");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with('.') || trimmed.starts_with('\\')) {
            let mut parts = trimmed.splitn(2, ' ');
            // Accept both `.cmd` and `\cmd` spellings.
            let cmd = parts.next().unwrap_or("").replacen('\\', ".", 1);
            match cmd.as_str() {
                ".quit" | ".exit" => break,
                ".help" => println!("{HELP}"),
                ".tables" => {
                    for name in db.catalog().table_names() {
                        let Ok(t) = db.catalog().table(&name) else {
                            continue; // dropped since listing
                        };
                        let guard = t.read();
                        println!(
                            "  {name} {} — {} rows",
                            guard.schema(),
                            guard.stats().row_count
                        );
                    }
                }
                ".views" => {
                    for name in db.registry().names() {
                        let Some(v) = db.registry().get(&name) else {
                            continue; // dropped since listing
                        };
                        println!(
                            "  {name}: {} over {}({}, {}) window {:?}{}",
                            v.func,
                            v.base_table,
                            v.pos_column,
                            v.val_column,
                            v.window,
                            if v.partition_columns.is_empty() {
                                String::new()
                            } else {
                                format!(" partitioned by {}", v.partition_columns.join(", "))
                            },
                        );
                    }
                }
                ".explain" => match parts.next() {
                    Some(sql) => match db.explain(sql) {
                        Ok(plan) => println!("{plan}"),
                        Err(e) => println!("error: {e}"),
                    },
                    None => println!("usage: .explain <query>"),
                },
                ".load" => {
                    let mut args = parts.next().unwrap_or("").split_whitespace();
                    match (
                        args.next(),
                        args.next().and_then(|n| n.parse::<usize>().ok()),
                    ) {
                        (Some(table), Some(nrows)) if nrows > 0 => {
                            // Deterministic generated values (xorshift), so
                            // repeated demos are reproducible.
                            let mut state = 0x9e37_79b9_7f4a_7c15u64;
                            let vals: Vec<f64> = (0..nrows)
                                .map(|_| {
                                    state ^= state << 13;
                                    state ^= state >> 7;
                                    state ^= state << 17;
                                    (state % 1_000) as f64 / 10.0
                                })
                                .collect();
                            let clock = Stopwatch::start();
                            match db.sequence_append_bulk(table, &vals) {
                                Ok(stats) => println!(
                                    "loaded {nrows} rows into {table} in {} \
                                     ({} view positions recomputed, {} shifted, \
                                     {} ops coalesced)",
                                    fmt_ns(clock.elapsed_ns()),
                                    stats.recomputed,
                                    stats.shifted,
                                    stats.coalesced,
                                ),
                                Err(e) => println!("error: {e}"),
                            }
                        }
                        _ => println!("usage: .load <table> <nrows>"),
                    }
                }
                ".rewrite" => match parts.next() {
                    Some("on") => {
                        db.set_view_rewrite(true);
                        println!("view rewrite on");
                    }
                    Some("off") => {
                        db.set_view_rewrite(false);
                        println!("view rewrite off");
                    }
                    _ => println!("usage: .rewrite on|off"),
                },
                ".cache" => match parts.next() {
                    Some("on") => {
                        db.set_result_cache(rfv_core::DEFAULT_CACHE_BYTES);
                        println!("cache on ({} bytes)", rfv_core::DEFAULT_CACHE_BYTES);
                    }
                    Some("off") => {
                        db.set_result_cache(0);
                        println!("cache off");
                    }
                    None | Some("stats") => {
                        let s = db.cache_stats();
                        println!(
                            "cache: {} — {} / {} bytes, {} results, {} plans",
                            if s.enabled { "on" } else { "off" },
                            s.resident_bytes,
                            s.capacity_bytes,
                            s.result_entries,
                            s.plan_entries,
                        );
                        println!(
                            "  results: {} hits, {} misses, {} inserts, {} evictions",
                            s.hits, s.misses, s.inserts, s.evictions
                        );
                        println!("  plans:   {} hits, {} misses", s.plan_hits, s.plan_misses);
                    }
                    _ => println!("usage: \\cache [on|off|stats]"),
                },
                ".timing" => match parts.next() {
                    Some("on") => {
                        timing = true;
                        db.set_tracing(true);
                        println!("timing on");
                    }
                    Some("off") => {
                        timing = false;
                        db.set_tracing(false);
                        println!("timing off");
                    }
                    _ => println!("usage: \\timing on|off"),
                },
                ".metrics" => match parts.next().map(str::trim) {
                    None | Some("") => match Json::parse(&db.metrics_json()) {
                        Ok(doc) => print!("{}", render_metrics(&doc)),
                        Err(e) => println!("error: {e}"),
                    },
                    // `json` emits the machine-readable document verbatim.
                    Some("json") => println!("{}", db.metrics_json()),
                    Some(_) => println!("usage: \\metrics [json]"),
                },
                ".record" => {
                    let mut args = parts.next().unwrap_or("").split_whitespace();
                    match args.next() {
                        Some("on") => {
                            db.set_recording(true);
                            println!(
                                "recording on (ring capacity {} events)",
                                db.recorder_stats().capacity
                            );
                        }
                        Some("off") => {
                            db.set_recording(false);
                            let s = db.recorder_stats();
                            println!(
                                "recording off ({} events recorded, {} dropped; \
                                 buffer kept — \\record dump <path> still works)",
                                s.recorded, s.dropped
                            );
                        }
                        Some("clear") => {
                            db.clear_recording();
                            println!("recorder buffer cleared");
                        }
                        Some("dump") => match args.next() {
                            Some(path) => match db.export_trace(path) {
                                Ok(()) => println!(
                                    "trace written to {path} \
                                     (open in Perfetto or chrome://tracing)"
                                ),
                                Err(e) => println!("error: {e}"),
                            },
                            None => println!("usage: \\record dump <path>"),
                        },
                        None | Some("stats") => {
                            let s = db.recorder_stats();
                            println!(
                                "recorder: {} — {} events recorded, {} dropped, \
                                 capacity {}",
                                if s.enabled { "on" } else { "off" },
                                s.recorded,
                                s.dropped,
                                s.capacity
                            );
                        }
                        Some(_) => {
                            println!("usage: \\record on|off|dump <path>|stats|clear");
                        }
                    }
                }
                ".persist" => match parts.next().map(str::trim) {
                    None | Some("") | Some("status") => match db.persist_status() {
                        Some(s) => {
                            println!("durable: {}", s.dir.display());
                            println!(
                                "  wal: lsn {} (base {}), {} records / {} bytes / \
                                 {} fsyncs since open",
                                s.last_lsn, s.base_lsn, s.wal_records, s.wal_bytes, s.wal_fsyncs
                            );
                            println!(
                                "  snapshots: covering lsn {}, {} written since open",
                                s.snapshot_lsn, s.snapshots_written
                            );
                            println!(
                                "  recovery: snapshot loaded {}, {} records replayed, \
                                 {} torn bytes truncated",
                                s.snapshot_loaded, s.replayed, s.truncated_bytes
                            );
                        }
                        None => println!("not durable — start with RFV_DATA_DIR=<dir>"),
                    },
                    Some("snapshot") => match db.persist_snapshot() {
                        Ok(path) => println!("snapshot written to {}", path.display()),
                        Err(e) => println!("error: {e}"),
                    },
                    Some("compact") => match db.persist_compact() {
                        Ok((path, removed)) => println!(
                            "compacted: snapshot {} written, wal rotated, \
                             {removed} old snapshots removed",
                            path.display()
                        ),
                        Err(e) => println!("error: {e}"),
                    },
                    Some(_) => println!("usage: \\persist status|snapshot|compact"),
                },
                ".threads" => match parts.next() {
                    None => println!("threads: {}", db.threads()),
                    Some(arg) => match arg.trim().parse::<usize>() {
                        Ok(n) => {
                            db.set_threads(n);
                            println!("threads: {}", db.threads());
                        }
                        Err(_) => println!("usage: \\threads [n]"),
                    },
                },
                other => println!("unknown command `{other}` — try .help"),
            }
            continue;
        }
        buffer.push_str(&line);
        // Execute once the statement list is terminated (or a blank line
        // after content, for statements without semicolons).
        let ready =
            buffer.trim_end().ends_with(';') || (trimmed.is_empty() && !buffer.trim().is_empty());
        if !ready {
            continue;
        }
        let sql = std::mem::take(&mut buffer);
        let sql = sql.trim();
        if sql.is_empty() {
            continue;
        }
        let clock = timing.then(Stopwatch::start);
        let trace_before = db.last_trace();
        sigint::set_query_running(true);
        let outcome = db.execute_script(sql);
        sigint::set_query_running(false);
        // A SIGINT that landed after the script already finished must
        // not cancel the *next* statement.
        rfv_types::governance::clear_interrupt();
        match outcome {
            Ok(results) => {
                for r in results {
                    if let (Some(tag), Some(n)) = (r.command_tag(), r.affected_rows()) {
                        println!("{tag} {n}");
                    } else if r.schema().is_empty() {
                        println!("ok");
                    } else {
                        print!("{r}");
                        println!("({} rows)", r.rows().len());
                    }
                }
            }
            Err(e) => println!("error: {e}"),
        }
        if let Some(clock) = clock {
            // Phase breakdown of the last traced query in this batch,
            // if it recorded a new one.
            if let Some(trace) = db.last_trace() {
                let fresh = !trace_before
                    .as_ref()
                    .is_some_and(|old| std::sync::Arc::ptr_eq(old, &trace));
                if fresh {
                    print!("{trace}");
                }
            }
            println!("Time: {}", fmt_ns(clock.elapsed_ns()));
        }
    }
    // RFV_TRACE_FILE: the recorder ran since startup — dump on exit.
    if let Some(path) = db.trace_file() {
        match db.export_trace(path) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("error writing trace: {e}"),
        }
    }
    println!("bye");
}
