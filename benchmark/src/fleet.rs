//! `fleet`: `run_fleet` over many short shards. Execution, encode and
//! lossy decode dominate; the plan-artifact cache skips training on
//! epochs without drift, the drift epoch forces a retrain, and the
//! poisoned instance exercises the lossy/retry path.
//!
//! The fleet seed also shapes the generated services, and one fleet's
//! four services make its cost and MPKI swing from seed to seed; each
//! iteration therefore runs [`FLEETS`] fleets with seeds derived from the
//! workload seed and reports their total.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use ripple_fleet::{run_fleet, validate_fleet_report, FleetConfig, FleetRegistry, FLEET_PHASES};
use ripple_json::Value;
use ripple_obs::{MetricsRecorder, NullRecorder, Recorder};
use ripple_trace::{reconstruct_trace_lossy, record_trace_with_sync, DecodeOptions};
use ripple_workloads::{execute, InputConfig};

use crate::probe::{derive_common, ratio, Layer};
use crate::report::Metric;
use crate::runner::{Check, Iteration, Workload};
use crate::span::{SpanId, Tracer};

/// Sync cadence of the probes' shard streams (the fleet's own cadence).
const PROBE_SYNC_INTERVAL: u64 = 256;

/// Fleets per iteration.
pub const FLEETS: u64 = 4;

pub struct Fleet {
    pub configs: Vec<FleetConfig>,
}

/// The fleet the workload runs, under `seed`.
pub fn config(seed: u64, shard_instructions: u64) -> FleetConfig {
    FleetConfig {
        instances: 32,
        epochs: 6,
        canary_pct: 25,
        seed,
        threads: Some(1),
        shard_instructions,
        drift_epoch: Some(3),
        poison_instance: Some(5),
        ..FleetConfig::default()
    }
}

impl Fleet {
    pub fn new(seed: u64, shard_instructions: u64) -> Self {
        Fleet {
            configs: (0..FLEETS)
                .map(|k| {
                    config(
                        seed.wrapping_mul(FLEETS).wrapping_add(k),
                        shard_instructions,
                    )
                })
                .collect(),
        }
    }

    /// Re-issues execute, encode and lossy decode for every shard the
    /// fleet collects, on inputs of the same shape (the fleet derives its
    /// per-instance input seeds privately).
    fn probe(
        c: &FleetConfig,
        registry: &FleetRegistry,
        tracer: &Tracer,
        parent: Option<SpanId>,
        layer: &mut Layer,
    ) {
        for epoch in 0..c.epochs {
            let drifted = c.drift_epoch.is_some_and(|d| epoch >= d);
            for inst in &registry.instances {
                let svc = &registry.services[inst.service];
                let input = InputConfig::numbered(
                    inst.base_variant + u32::from(drifted),
                    c.seed ^ (inst.id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                );
                let trace = tracer.span(parent, "workloads.execute", |_| {
                    execute(&svc.program, &svc.model, input, c.shard_instructions)
                });
                let bytes = tracer.span(parent, "trace.encode", |_| {
                    record_trace_with_sync(
                        &svc.program,
                        &svc.layout,
                        trace.iter(),
                        PROBE_SYNC_INTERVAL,
                    )
                });
                let decoded = tracer.span(parent, "trace.lossy_decode", |_| {
                    reconstruct_trace_lossy(
                        &svc.program,
                        &svc.layout,
                        &bytes,
                        &DecodeOptions::default(),
                    )
                });
                if let Err(e) = decoded {
                    eprintln!("probe decode of instance {} failed: {e}", inst.id);
                }
                *layer.entry("workloads.blocks").or_default() += trace.len() as f64;
                *layer.entry("trace.bytes").or_default() += bytes.len() as f64;
            }
        }
    }
}

/// What one fleet run produced: its validated report, or why it failed.
pub type FleetResult = Result<Value, String>;

/// Runs the fleet once and counts its operations (shards): every shard
/// of a run that returns `Err` or an invalid report fails.
pub fn run_once(config: &FleetConfig, recorder: Arc<dyn Recorder>) -> (FleetResult, u64, u64) {
    let attempted = (config.instances as u64 * u64::from(config.epochs)).max(1);
    let report = run_fleet(config, recorder)
        .map_err(|e| e.to_string())
        .and_then(|r| validate_fleet_report(&r).map(|()| r));
    let failed = match &report {
        Ok(r) => epochs(r)
            .iter()
            .map(|e| field(e, &["shard_health", "shards_failed"]) as u64)
            .sum(),
        Err(_) => attempted,
    };
    (report, attempted, failed)
}

fn epochs(report: &Value) -> &[Value] {
    report
        .get("epoch_reports")
        .and_then(|e| e.as_array())
        .unwrap_or(&[])
}

/// The number at `path` in a report, or 0 when it is missing.
fn field(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        match cur.get(key) {
            Ok(next) => cur = next,
            Err(_) => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

impl Workload for Fleet {
    type Input = Vec<FleetRegistry>;
    type Output = Vec<FleetResult>;

    fn budget(&self) -> String {
        let c = &self.configs[0];
        format!(
            "{FLEETS} fleets x {} instances x {} epochs x {} instructions per shard, drift at epoch {:?}, poisoned instance {:?}, 1 thread",
            c.instances, c.epochs, c.shard_instructions, c.drift_epoch, c.poison_instance
        )
    }

    /// `run_fleet` builds its services itself, inside `wall_s`; set-up
    /// times the same build from outside, and the probes reuse it.
    fn setup(&self, tracer: &Tracer, parent: Option<SpanId>) -> Result<Vec<FleetRegistry>, String> {
        self.configs
            .iter()
            .map(|c| {
                c.validate().map_err(|e| e.to_string())?;
                Ok(tracer.span(parent, "fleet.registry", |_| FleetRegistry::build(c)))
            })
            .collect()
    }

    fn iterate(
        &self,
        registries: &Vec<FleetRegistry>,
        tracer: &Tracer,
        parent: Option<SpanId>,
        probes: bool,
    ) -> Iteration<Vec<FleetResult>> {
        let metrics = Arc::new(MetricsRecorder::new());
        let recorder: Arc<dyn Recorder> = if probes {
            metrics.clone()
        } else {
            Arc::new(NullRecorder)
        };
        let start = Instant::now();
        let runs: Vec<_> = self
            .configs
            .iter()
            .map(|c| tracer.span(parent, "fleet.run", |_| run_once(c, recorder.clone())))
            .collect();
        let wall_s = start.elapsed().as_secs_f64();

        let mut layer = BTreeMap::new();
        if probes {
            let snapshot = metrics.snapshot();
            for name in FLEET_PHASES {
                let total = snapshot.phase(name).map_or(0, |p| p.total_nanos);
                layer.insert(phase_metric(name), total as f64 / 1e9);
            }
            let es: Vec<&Value> = runs
                .iter()
                .filter_map(|(r, _, _)| r.as_ref().ok())
                .flat_map(epochs)
                .collect();
            let sum = |path: &[&str]| es.iter().map(|e| field(e, path)).sum::<f64>();
            let hits = sum(&["artifact_cache", "hits"]);
            layer.insert(
                "fleet.cache_hit_rate",
                ratio(hits, hits + sum(&["artifact_cache", "misses"])),
            );
            layer.insert("fleet.shards_ok", sum(&["shard_health", "shards_ok"]));
            layer.insert(
                "fleet.shards_failed",
                sum(&["shard_health", "shards_failed"]),
            );
            layer.insert(
                "trace.dropped_packets",
                sum(&["shard_health", "dropped_packets"]),
            );
            layer.insert(
                "trace.resync_events",
                sum(&["shard_health", "resync_events"]),
            );
            tracer.span(parent, "bench.probe", |probe| {
                for (c, registry) in self.configs.iter().zip(registries) {
                    Self::probe(c, registry, tracer, probe, &mut layer);
                }
            });
        }
        Iteration {
            wall_s,
            attempted: runs.iter().map(|(_, a, _)| a).sum(),
            failed: runs.iter().map(|(_, _, f)| f).sum(),
            output: runs.into_iter().map(|(r, _, _)| r).collect(),
            layer,
        }
    }

    fn checks(&self, output: &Vec<FleetResult>) -> Vec<Check> {
        self.configs
            .iter()
            .zip(output)
            .map(|(c, r)| match r {
                Ok(_) => (
                    format!("fleet seed {}: report passes validate_fleet_report", c.seed),
                    true,
                ),
                Err(e) => (format!("fleet seed {}: {e}", c.seed), false),
            })
            .collect()
    }

    fn instructions(&self, _: &Vec<FleetRegistry>, _: &Vec<FleetResult>) -> f64 {
        self.configs
            .iter()
            .map(|c| (c.instances as u64 * u64::from(c.epochs) * c.shard_instructions) as f64)
            .sum()
    }

    fn modelled(&self, output: &Vec<FleetResult>) -> (Vec<Metric>, Vec<Metric>) {
        // Final epoch of each fleet: (fleet MPKI, baseline MPKI).
        let finals: Vec<(f64, f64)> = output
            .iter()
            .filter_map(|r| r.as_ref().ok().and_then(|r| epochs(r).last()))
            .map(|e| (field(e, &["fleet_mpki"]), field(e, &["baseline_mpki"])))
            .collect();
        let mean = |f: &dyn Fn(&(f64, f64)) -> f64| {
            finals.iter().map(f).sum::<f64>() / finals.len().max(1) as f64
        };
        let vs_lru = mean(&|&(fleet, base)| ratio(fleet, base));
        let modelled = vec![Metric::new("mpki_vs_lru", vs_lru, "ratio")];
        let extra = vec![
            Metric::new("fleet_mpki", mean(&|&(fleet, _)| fleet), "MPKI"),
            Metric::new("miss_reduction_pct", (1.0 - vs_lru) * 100.0, "%"),
            Metric::new("lru_mpki", mean(&|&(_, base)| base), "MPKI"),
        ];
        (modelled, extra)
    }

    fn derive_layer(&self, values: &mut BTreeMap<String, f64>) {
        derive_common(values);
    }
}

/// `fleet.collect` -> `fleet.collect_s`.
fn phase_metric(phase: &str) -> &'static str {
    match phase {
        "fleet.collect" => "fleet.collect_s",
        "fleet.aggregate" => "fleet.aggregate_s",
        "fleet.train" => "fleet.train_s",
        "fleet.rollout" => "fleet.rollout_s",
        _ => "fleet.other_s",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_invalid_config_fails_every_operation() {
        let mut config = config(7, 1_000);
        config.canary_pct = 101; // out of range: run_fleet returns Err
        let (report, attempted, failed) = run_once(&config, Arc::new(NullRecorder));
        assert!(report.is_err());
        assert_eq!(attempted, 32 * 6);
        assert_eq!(failed, attempted);
        assert_eq!(crate::failed_frac(attempted, failed), 1.0);
    }

    #[test]
    fn a_small_valid_fleet_fails_nothing() {
        let mut config = config(7, 2_000);
        config.instances = 4;
        config.epochs = 2;
        config.drift_epoch = Some(1);
        config.poison_instance = Some(1);
        let (report, attempted, failed) = run_once(&config, Arc::new(NullRecorder));
        assert!(report.is_ok(), "{report:?}");
        assert_eq!(attempted, 8);
        assert_eq!(failed, 0);
        assert_eq!(crate::failed_frac(attempted, failed), 0.0);
    }
}
