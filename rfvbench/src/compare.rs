//! `rfv-bench compare <base> <new>`: the regression gate.
//!
//! Both files are what `rfv-bench all --out` writes: one JSON object per
//! line, `{"workload", "seed", "trace", "result"}`, any number of runs per
//! workload. Every gated (metric, workload) pair gets a row of its own and
//! one of three verdicts; there is no combined score.

use std::collections::BTreeMap;

use rfv_obs::Json;

use crate::report::{Gated, END_TO_END, INGEST_END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// One run's metrics, by name.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub metrics: BTreeMap<String, f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The new median is worse than the base median by more than the bound.
    Worse,
    /// Run-to-run spread is wider than the bound, so the medians cannot
    /// tell a regression from noise.
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// Share of the base median by which the new median is worse
    /// (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Parse a report file's lines into runs.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no `workload`", i + 1))?;
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("line {}: no `result.metrics`", i + 1));
        };
        runs.push(Run {
            workload: workload.to_string(),
            metrics: metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    Ok(runs)
}

fn judge(gate: &Gated, base: &[f64], new: &[f64]) -> (f64, f64, Verdict) {
    let lower = gate.better == "lower";
    let (b, n) = (median(base), median(new));
    let worse_by = if b == 0.0 {
        0.0
    } else if lower {
        (n - b) / b.abs()
    } else {
        (b - n) / b.abs()
    };
    let spread = spread(base).max(spread(new));
    let verdict = if spread > gate.bound {
        let every_run_better = base
            .iter()
            .all(|b| new.iter().all(|n| if lower { n < b } else { n > b }));
        if every_run_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > gate.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

/// One row per gated (metric, workload) pair both sides measured.
pub fn compare(base: &[Run], new: &[Run]) -> Vec<Row> {
    let values = |runs: &[Run], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    };
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for gate in END_TO_END.iter().chain(&INGEST_END_TO_END) {
            let (b, n) = (
                values(base, w.name, gate.name),
                values(new, w.name, gate.name),
            );
            // An ingest-only metric reads 0 where the workload has none.
            if b.is_empty() || n.is_empty() || median(&b) == 0.0 {
                continue;
            }
            let (worse_by, spread, verdict) = judge(gate, &b, &n);
            rows.push(Row {
                workload: w.name.to_string(),
                metric: gate.name,
                base: median(&b),
                new: median(&n),
                worse_by,
                spread,
                bound: gate.bound,
                verdict,
            });
        }
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "base median", "new median", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<28} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(workload: &str, metric: &str, values: &[f64]) -> Vec<Run> {
        values
            .iter()
            .map(|v| Run {
                workload: workload.to_string(),
                metrics: BTreeMap::from([(metric.to_string(), *v)]),
            })
            .collect()
    }

    fn verdict(metric: &str, base: &[f64], new: &[f64]) -> Verdict {
        let rows = compare(
            &runs("report_scan", metric, base),
            &runs("report_scan", metric, new),
        );
        assert_eq!(rows.len(), 1, "one row per (metric, workload)");
        rows[0].verdict
    }

    #[test]
    fn planted_regression_is_worse() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        let scaled = |f: f64| base.iter().map(|v| v * f).collect::<Vec<f64>>();
        // 20 % more memory against a 15 % bound.
        assert_eq!(verdict("peak_rss_mb", &base, &scaled(1.2)), Verdict::Worse);
        assert_eq!(verdict("peak_rss_mb", &base, &scaled(1.1)), Verdict::Ok);
        // Timings carry the 25 % bound this host's noise forces.
        assert_eq!(verdict("stmt_p50_ms", &base, &scaled(1.3)), Verdict::Worse);
        assert_eq!(verdict("stmt_p50_ms", &base, &scaled(1.2)), Verdict::Ok);
        assert_eq!(verdict("stmt_p50_ms", &base, &base), Verdict::Ok);
        // 30 % fewer statements per second is as much a regression.
        assert_eq!(verdict("stmts_per_s", &base, &scaled(0.7)), Verdict::Worse);
        assert_eq!(verdict("stmts_per_s", &base, &scaled(1.3)), Verdict::Ok);
    }

    #[test]
    fn planted_noise_is_unresolved() {
        let base = [10.0, 14.0, 7.0, 12.0, 9.0];
        let new = [10.5, 13.0, 7.5, 12.5, 8.0];
        assert_eq!(verdict("stmt_p50_ms", &base, &new), Verdict::Unresolved);
        // …unless every new run beats every base run.
        let faster = [5.0, 6.5, 4.0, 6.0, 4.5];
        assert_eq!(verdict("stmt_p50_ms", &base, &faster), Verdict::Ok);
    }

    #[test]
    fn report_lines_parse() {
        let text = "{\"workload\": \"short_stmt\", \"seed\": 3, \"trace\": 0, \"result\": \
                    {\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
                    {\"stmt_p50_ms\": {\"value\": 0.25, \"unit\": \"ms\"}}}}\n\n";
        let runs = parse_runs(text).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].workload, "short_stmt");
        assert_eq!(runs[0].metrics["stmt_p50_ms"], 0.25);
        assert!(parse_runs("{\"seed\": 1}").is_err());
    }
}
