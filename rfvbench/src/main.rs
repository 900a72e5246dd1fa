//! `rfv-bench`: the repo's benchmark driver.
//!
//! ```text
//! rfv-bench [run] --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
//! rfv-bench all [--seed <u64>] [--seconds <n>] [--trace] [--repeat <k>] [--out <file>]
//! rfv-bench compare <base.jsonl> <new.jsonl>
//! rfv-bench list
//! ```
//!
//! `run` is what `/BENCHMARK.json`'s command invokes: one workload, one
//! seed, one process. Its last line of standard output is the result
//! object; everything above it is for people. `all` runs every workload
//! in a child process of its own, so `peak_rss_mb` is per workload and the
//! engine's process-wide statics (scheduler, recorder) cannot leak from
//! one workload into the next.

mod affinity;
mod check;
mod compare;
mod gen;
mod layers;
mod report;
mod session;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

pub use report::WORKLOADS;

/// Seconds a run measures for when `--seconds` is not given
/// (`run_seconds` in `/BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 17.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            // `--trace 0|1` as the external driver passes it, or bare.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// `<target>/rfv-bench`, next to the profile directory the executable
/// was built into: everything the benchmark writes stays inside the
/// build's target directory.
fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("the executable is not inside a target directory")?;
    Ok(target.join("rfv-bench"))
}

/// Remove every `RFV_*` variable: a stray `RFV_DATA_DIR`,
/// `RFV_CACHE_BYTES=0` or `RFV_THREADS` would silently change what is
/// measured. A workload then sets only what it declares. Runs before any
/// thread exists.
fn scrub_environment() -> Vec<String> {
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RFV_"))
        .collect();
    for k in &stray {
        std::env::remove_var(k);
    }
    stray
}

fn first_line(cmd: &str, arg: &str) -> String {
    Command::new(cmd)
        .arg(arg)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in, if it is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "not a git checkout".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run_one(args: &Args, scrubbed: &[String]) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = report::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; one of {}", names.join(", "))
    })?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(4);
    let scratch = scratch_root()?.join(format!("{}-{}", workload.name, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = workloads::Ctx {
        workload: workload.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        engine_threads: workload.engine_threads(threads),
        scratch: scratch.clone(),
    };

    println!(
        "# rfv-bench {} seed={} seconds={} trace={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# why: {}", workload.why);
    println!("# load: {}", workload.load);
    println!(
        "# host: nproc={nproc} T={threads} cpu=\"{}\" {} commit={}",
        cpu_model(),
        first_line("rustc", "-V"),
        commit()
    );
    println!(
        "# settings: engine threads={} caches, view rewrite, window mode, governor at engine \
         defaults; storage={}; RFV_* removed from the environment: [{}]",
        workload.engine_threads(threads),
        if workload.name == "ingest_maintain" {
            "durable, RFV_FSYNC=1"
        } else {
            "in-memory"
        },
        scrubbed.join(" ")
    );

    let result = workloads::run(&ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut outcome = result?;
    outcome.set("peak_rss_mb", workloads::proc_status_mb("VmHWM"));
    report::print_metrics(&outcome, args.trace);
    println!("{}", report::result_line(&outcome, args.trace));
    Ok(outcome.failed == 0)
}

/// Run every workload in a child process of its own, `repeat` times,
/// untraced — and traced as well when `--trace` is given.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut lines = Vec::new();
    let mut all_correct = true;
    for _ in 0..args.repeat.max(1) {
        for w in WORKLOADS {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                let output = Command::new(&exe)
                    .args(["run", "--workload", w.name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .output()
                    .map_err(|e| format!("cannot start {}: {e}", w.name))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                all_correct &= output.status.success();
                match stdout.lines().last().filter(|l| l.starts_with('{')) {
                    Some(result) => lines.push(format!(
                        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {result}}}",
                        w.name,
                        args.seed,
                        u8::from(trace)
                    )),
                    None => {
                        all_correct = false;
                        eprintln!("{}: no result line", w.name);
                    }
                }
                println!();
            }
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, lines.join("\n") + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# wrote {} runs to {}", lines.len(), path.display());
    }
    Ok(all_correct)
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [base, new] = paths else {
        return Err("usage: rfv-bench compare <base.jsonl> <new.jsonl>".into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|text| compare::parse_runs(&text).map_err(|e| format!("{p}: {e}")))
    };
    let rows = compare::compare(&load(base)?, &load(new)?);
    compare::print(&rows);
    Ok(!rows.iter().any(|r| r.verdict == compare::Verdict::Worse))
}

fn main() -> ExitCode {
    let scrubbed = scrub_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "all" | "compare" | "list")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let done = match command {
        "list" => {
            for w in WORKLOADS {
                println!("{:<16} {} — {}", w.name, w.load, w.why);
            }
            Ok(true)
        }
        "compare" => run_compare(rest),
        "all" => parse_args(rest).and_then(|a| run_all(&a)),
        _ => parse_args(rest).and_then(|a| run_one(&a, &scrubbed)),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rfv-bench: {e}");
            ExitCode::from(2)
        }
    }
}
