//! End-to-end and per-layer benchmark of the Ripple reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload pipeline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! of `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`. Every result is also appended to `results/history.jsonl`
//! next to this package, stamped with its provenance.

mod fleet;
mod grid;
mod pipeline;
mod probe;
mod report;
mod runner;
mod span;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{append_history, median, peak_rss_mb, render, Metric, Provenance, RunResult};
use runner::Workload;

/// The end-to-end metrics, in `BENCHMARK.json` order, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MB"),
    ("mpki_vs_lru", "ratio"),
];

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order. A
/// layer call a workload does not make reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.generate_s", "s"),
    ("workloads.execute_s", "s"),
    ("workloads.blocks", "count"),
    ("trace.encode_s", "s"),
    ("trace.bytes_per_block", "B/block"),
    ("trace.decode_s", "s"),
    ("trace.decode_mblocks_per_s", "Mblocks/s"),
    ("trace.lossy_decode_s", "s"),
    ("trace.dropped_packets", "count"),
    ("trace.resync_events", "count"),
    ("program.layout_s", "s"),
    ("program.rewrite_s", "s"),
    ("program.injections", "count"),
    ("sim.session_s", "s"),
    ("sim.capture_s", "s"),
    ("sim.requests", "count"),
    ("sim.replay_first_s", "s"),
    ("sim.replay_warm_s", "s"),
    ("sim.bucketing_s", "s"),
    ("sim.replay_setlocal_s", "s"),
    ("sim.replay_sequential_s", "s"),
    ("sim.frontend_s", "s"),
    ("sim.mreq_per_s", "Mreq/s"),
    ("sim.demand_misses", "count"),
    ("core.collect_profile_s", "s"),
    ("core.train_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.analyze_s", "s"),
    ("core.windows", "count"),
    ("core.coverage_pct", "%"),
    ("core.accuracy_pct", "%"),
    ("core.matrix_s", "s"),
    ("core.harness_speedup", "ratio"),
    ("fleet.registry_s", "s"),
    ("fleet.run_s", "s"),
    ("fleet.collect_s", "s"),
    ("fleet.aggregate_s", "s"),
    ("fleet.train_s", "s"),
    ("fleet.rollout_s", "s"),
    ("fleet.cache_hit_rate", "ratio"),
    ("fleet.shards_ok", "count"),
    ("fleet.shards_failed", "count"),
    ("bench.self_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Instructions profiled per app by `pipeline` and `policy-grid`.
const APP_BUDGET: u64 = 2_000_000;
/// Instructions per fleet shard.
const SHARD_BUDGET: u64 = 100_000;

const WORKLOADS: [&str; 3] = ["pipeline", "policy-grid", "fleet"];

const MODEL_NOTE: &str = "model: synthetic apps with an analytic frontend timing model; \
not validated against hardware, so paper figures are context, not an error figure";

/// Failed operations as a share of attempted ones.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value) => workload = Some(value.to_string()),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; use one of {WORKLOADS:?}"
                ))
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// What one run prints and records.
struct Report {
    result: RunResult,
    /// Figures printed and kept in the history besides `result.metrics`.
    extra: Vec<Metric>,
    text: String,
    spans: Vec<span::Span>,
}

/// `table`'s metrics in order, valued from `values` (0 when absent).
fn tabulate(table: &[(&'static str, &'static str)], values: &BTreeMap<String, f64>) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// Runs one workload and assembles its result and report.
fn execute<W: Workload>(w: &W, args: &Args) -> Report {
    let m = runner::run(w, args.seconds, args.trace);
    let wall = median(&m.wall_s);
    let mut values: BTreeMap<String, f64> = m
        .modelled
        .iter()
        .map(|x| (x.name.clone(), x.value))
        .collect();
    values.insert("wall_s".into(), wall);
    values.insert("setup_s".into(), median(&m.setup_s));
    values.insert(
        "minstr_per_s".into(),
        probe::ratio(m.instructions / 1e6, wall),
    );
    values.insert("peak_rss_mb".into(), peak_rss_mb());
    let end_to_end = tabulate(&END_TO_END, &values);
    let per_layer = tabulate(&PER_LAYER, &m.layer);

    let mut extra = vec![Metric::new(
        "failed_frac",
        failed_frac(m.attempted, m.failed),
        "ratio",
    )];
    extra.extend(m.extra.iter().cloned());
    let lo = m.wall_s.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = m.wall_s.iter().copied().fold(0.0, f64::max);
    extra.push(Metric::new("iterations", m.wall_s.len() as f64, "count"));
    extra.push(Metric::new("wall_s_min", lo, "s"));
    extra.push(Metric::new("wall_s_max", hi, "s"));

    let mut text = render_sections(&end_to_end, &extra, &per_layer, args.trace);
    let _ = writeln!(text, "## output checks");
    for (name, ok) in &m.checks {
        let _ = writeln!(text, "[{}] {name}", if *ok { "ok" } else { "FAILED" });
    }
    let _ = writeln!(text, "## model context");
    let _ = writeln!(
        text,
        "paper (no prefetching, EXPERIMENTS.md): miss reduction {} %, speedup {} % -- beside pipeline's miss_reduction_pct and speedup_pct",
        pipeline::PAPER_MISS_REDUCTION_PCT,
        pipeline::PAPER_SPEEDUP_PCT
    );
    let _ = writeln!(text, "{MODEL_NOTE}");
    if args.trace {
        let _ = writeln!(text, "## spans (count, total s, self s)");
        for (name, count, total, self_s) in &m.span_table {
            let _ = writeln!(text, "{name:<32} {count:>6} {total:>12.6} {self_s:>12.6}");
        }
    }
    let metrics = if args.trace {
        per_layer
    } else {
        end_to_end.clone()
    };
    if args.trace {
        extra.extend(end_to_end);
    }
    Report {
        result: RunResult {
            correct: m.correct,
            attempted: m.attempted,
            failed: m.failed,
            metrics,
        },
        extra,
        text,
        spans: m.spans,
    }
}

fn render_sections(e2e: &[Metric], extra: &[Metric], layer: &[Metric], traced: bool) -> String {
    let mut out = String::new();
    let mut push = |title: &str, ms: &[Metric]| {
        let _ = writeln!(out, "## {title}");
        for m in ms {
            let _ = writeln!(out, "{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
    };
    let title = if traced {
        "end-to-end (untraced half of a traced run; set-up traced)"
    } else {
        "end-to-end"
    };
    push(title, e2e);
    push("also reported (failed_frac = failed / attempted)", extra);
    if traced {
        push("per-layer (traced)", layer);
    }
    out
}

fn spans_json(spans: &[span::Span]) -> String {
    use ripple_json::{object, Value};
    Value::Array(
        spans
            .iter()
            .map(|s| {
                object([
                    ("name", Value::Str(s.name.to_string())),
                    ("start_ns", Value::UInt(s.start_ns)),
                    ("end_ns", Value::UInt(s.end_ns)),
                    ("id", Value::UInt(s.id.0)),
                    ("parent", s.parent.map_or(Value::Null, |p| Value::UInt(p.0))),
                ])
            })
            .collect(),
    )
    .to_compact_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ripple-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (budget, report) = match args.workload.as_str() {
        "pipeline" => {
            let w = pipeline::Pipeline {
                seed: args.seed,
                budget: APP_BUDGET,
            };
            (w.budget(), execute(&w, &args))
        }
        "policy-grid" => {
            let w = grid::PolicyGrid {
                seed: args.seed,
                budget: APP_BUDGET,
            };
            (w.budget(), execute(&w, &args))
        }
        _ => {
            let w = fleet::Fleet::new(args.seed, SHARD_BUDGET);
            (w.budget(), execute(&w, &args))
        }
    };
    let provenance = Provenance::collect(&args.workload, args.seed, budget, args.trace);
    print!("{}{}", render(&provenance), report.text);

    let dir = results_dir();
    let history = dir.join("history.jsonl");
    if let Err(e) = append_history(&history, &provenance, &report.result, &report.extra) {
        eprintln!("warning: could not append to {}: {e}", history.display());
    }
    if args.trace {
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, spans_json(&report.spans)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    println!("{}", report.result.to_json_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name starts with a letter or digit and holds at most 64
    /// letters, digits, `_`, `.` and `-`.
    fn valid_metric_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed() {
        for ok in [
            "wall_s",
            "sim.replay_first_s",
            "core.harness_speedup",
            "9x",
            "a-b.c_d",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "pct%",
            "a/b",
            &too_long,
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    fn benchmark_json() -> ripple_json::Value {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        ripple_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(|n| n.as_str()).unwrap().to_string(),
                    m.get("unit").and_then(|n| n.as_str()).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_valid_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} is used twice");
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = benchmark_json()
            .get("workloads")
            .and_then(|w| w.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv("--workload fleet --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.trace),
            ("fleet", 3, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet --seed x --seconds 1 --trace 0",
            "--workload fleet --seed 1 --seconds 0 --trace 0",
            "--workload fleet --seed 1 --seconds 1 --trace 2",
            "--workload fleet --seed 1 --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        assert_eq!(failed_frac(8, 2), 0.25);
        assert_eq!(failed_frac(0, 0), 0.0);
    }
}
