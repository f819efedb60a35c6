//! Metric values, provenance, the appended result history and the final
//! JSON line.

use std::io::Write as _;
use std::path::Path;

use ripple_json::{object, Value};

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What produced a result: code revision, machine, workload and seed.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub revision: String,
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub workload: String,
    pub seed: u64,
    pub budget: String,
    pub traced: bool,
}

impl Provenance {
    pub fn collect(workload: &str, seed: u64, budget: String, traced: bool) -> Self {
        let revision = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            revision,
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            workload: workload.to_string(),
            seed,
            budget,
            traced,
        }
    }

    fn to_value(&self) -> Value {
        object([
            ("revision", Value::Str(self.revision.clone())),
            (
                "available_parallelism",
                Value::UInt(self.available_parallelism as u64),
            ),
            ("cpu_model", Value::Str(self.cpu_model.clone())),
            ("workload", Value::Str(self.workload.clone())),
            ("seed", Value::UInt(self.seed)),
            ("budget", Value::Str(self.budget.clone())),
            ("traced", Value::Bool(self.traced)),
        ])
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    object([
                        ("value", Value::Float(m.value)),
                        ("unit", Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

impl RunResult {
    /// The single-line JSON result the benchmark prints last.
    pub fn to_json_line(&self) -> String {
        object([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("metrics", metrics_value(&self.metrics)),
        ])
        .to_compact_string()
    }
}

/// Appends one JSON line (provenance, result and every extra figure) to
/// `path`, creating the file and its directory if needed; earlier entries
/// are never rewritten.
pub fn append_history(
    path: &Path,
    provenance: &Provenance,
    result: &RunResult,
    extra: &[Metric],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let entry = object([
        ("provenance", provenance.to_value()),
        ("correct", Value::Bool(result.correct)),
        ("attempted", Value::UInt(result.attempted)),
        ("failed", Value::UInt(result.failed)),
        ("metrics", metrics_value(&result.metrics)),
        ("extra", metrics_value(extra)),
    ]);
    let mut line = entry.to_compact_string();
    line.push('\n');
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())?;
    file.flush()
}

/// Two header lines stating what produced the result.
pub fn render(p: &Provenance) -> String {
    format!(
        "# {} seed={} traced={} budget: {}\n# revision {} | available_parallelism {} | cpu {}\n",
        p.workload, p.seed, p.traced, p.budget, p.revision, p.available_parallelism, p.cpu_model
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("wall_s", 1.25, "s")],
        };
        let v = ripple_json::parse(&r.to_json_line()).unwrap();
        let Value::Object(members) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64().unwrap(), 1.25);
        assert_eq!(wall.get("unit").unwrap().as_str().unwrap(), "s");
    }
}
