//! `policy-grid`: three apps x {nlp, fdip}, one `SimSession` per point and
//! every registered policy replayed on its one capture by two harness
//! workers. Capture is amortized over the matrix; decode, analysis and
//! relink do no timed work.

use std::collections::BTreeMap;
use std::time::Instant;

use ripple::{collect_profile, policy_matrix_all, Profile};
use ripple_sim::{PolicyKind, PolicyRegistry, PrefetcherKind, SimConfig, SimSession, SimStats};
use ripple_workloads::InputConfig;

use crate::pipeline::{load, Loaded, APPS};
use crate::probe::{derive_common, fresh_session, ratio, trace_round_trip, Layer};
use crate::report::Metric;
use crate::runner::{Check, Iteration, Workload};
use crate::span::{SpanId, Tracer};

/// Prefetch requests in the stream make Demand-MIN differ from OPT.
pub const PREFETCHERS: [PrefetcherKind; 2] = [PrefetcherKind::NextLine, PrefetcherKind::Fdip];

/// Harness workers per matrix (at most the 2 cores the benchmark was
/// sized on).
pub const WORKERS: usize = 2;

pub struct PolicyGrid {
    pub seed: u64,
    pub budget: u64,
}

pub struct GridApp {
    loaded: Loaded,
    profile: Profile,
    instructions: u64,
}

/// One point's matrix, in registry order.
pub type PointResult = Result<Vec<SimStats>, String>;

fn points(input: &[GridApp]) -> impl Iterator<Item = (&GridApp, SimConfig)> {
    input.iter().flat_map(|a| {
        PREFETCHERS
            .iter()
            .map(move |&p| (a, SimConfig::default().with_prefetcher(p)))
    })
}

fn policies() -> Vec<PolicyKind> {
    PolicyRegistry::global().all().collect()
}

fn stats_of(stats: &[SimStats], policy: PolicyKind) -> &SimStats {
    let i = policies()
        .iter()
        .position(|&p| p == policy)
        .expect("policy is registered");
    &stats[i]
}

fn point_name(a: &GridApp, cfg: &SimConfig) -> String {
    format!("{}/{}", a.loaded.app.name(), cfg.prefetcher.name())
}

impl PolicyGrid {
    /// Re-issues one point's replays sequentially on a fresh session:
    /// capture, Demand-MIN twice (the first pays set bucketing), then
    /// every registered policy on the warm session.
    fn probe_point(
        a: &GridApp,
        cfg: &SimConfig,
        tracer: &Tracer,
        parent: Option<SpanId>,
        layer: &mut Layer,
    ) {
        let (session, first) = fresh_session(
            &a.loaded.application.program,
            &a.loaded.layout,
            &a.profile.trace,
            cfg,
            tracer,
            parent,
            layer,
        );
        let policies = policies();
        for &p in &policies {
            let name = if p.replay_set_local() {
                "sim.replay_setlocal"
            } else {
                "sim.replay_sequential"
            };
            tracer.span(parent, name, |_| session.run(p));
        }
        let requests = (first.demand_accesses + first.prefetches_issued) as f64;
        *layer.entry("sim.replayed_requests").or_default() += requests * policies.len() as f64;
    }
}

impl Workload for PolicyGrid {
    type Input = Vec<GridApp>;
    type Output = Vec<PointResult>;

    fn budget(&self) -> String {
        format!(
            "{} instructions profiled per app x {} apps x {} prefetchers, {} policies, {WORKERS} harness workers",
            self.budget,
            APPS.len(),
            PREFETCHERS.len(),
            policies().len()
        )
    }

    fn setup(&self, tracer: &Tracer, parent: Option<SpanId>) -> Result<Vec<GridApp>, String> {
        APPS.iter()
            .map(|&app| {
                let loaded = load(app, tracer, parent);
                let profile = tracer
                    .span(parent, "core.collect_profile", |_| {
                        collect_profile(
                            &loaded.application,
                            &loaded.layout,
                            InputConfig::training(self.seed),
                            self.budget,
                        )
                    })
                    .map_err(|e| format!("{}: {e}", app.name()))?;
                let instructions = profile
                    .trace
                    .dynamic_instruction_count(&loaded.application.program);
                Ok(GridApp {
                    loaded,
                    profile,
                    instructions,
                })
            })
            .collect()
    }

    fn once_checks(&self, input: &Vec<GridApp>, output: &Vec<PointResult>) -> Vec<Check> {
        // The matrix must not depend on the worker count.
        points(input)
            .zip(output)
            .map(|((a, cfg), two)| {
                let session = SimSession::new(
                    &a.loaded.application.program,
                    &a.loaded.layout,
                    &a.profile.trace,
                    cfg.clone(),
                );
                let one = policy_matrix_all(&session, 1)
                    .map(|(_, s)| s)
                    .map_err(|e| e.to_string());
                (
                    format!("{}: 1 and {WORKERS} workers agree", point_name(a, &cfg)),
                    &one == two,
                )
            })
            .collect()
    }

    fn iterate(
        &self,
        input: &Vec<GridApp>,
        tracer: &Tracer,
        parent: Option<SpanId>,
        probes: bool,
    ) -> Iteration<Vec<PointResult>> {
        let start = Instant::now();
        let output: Vec<PointResult> = points(input)
            .map(|(a, cfg)| {
                tracer.span(parent, "bench.point", |point| {
                    let session = tracer.span(point, "sim.session", |_| {
                        SimSession::new(
                            &a.loaded.application.program,
                            &a.loaded.layout,
                            &a.profile.trace,
                            cfg,
                        )
                    });
                    tracer
                        .span(point, "core.matrix", |_| {
                            policy_matrix_all(&session, WORKERS)
                        })
                        .map(|(_, s)| s)
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        let wall_s = start.elapsed().as_secs_f64();

        let mut layer = BTreeMap::new();
        if probes {
            tracer.span(parent, "bench.probe", |probe| {
                for a in input {
                    let input = InputConfig::training(self.seed);
                    let probed =
                        trace_round_trip(&a.loaded, input, self.budget, tracer, probe, &mut layer);
                    if let Err(e) = probed {
                        eprintln!("probe of {} failed: {e}", a.loaded.app.name());
                    }
                }
                for (a, cfg) in points(input) {
                    Self::probe_point(a, &cfg, tracer, probe, &mut layer);
                }
            });
        }
        Iteration {
            wall_s,
            failed: output.iter().filter(|r| r.is_err()).count() as u64,
            attempted: output.len() as u64,
            output,
            layer,
        }
    }

    fn checks(&self, output: &Vec<PointResult>) -> Vec<Check> {
        let names = APPS.iter().flat_map(|a| {
            PREFETCHERS
                .iter()
                .map(move |p| format!("{}/{}", a.name(), p.name()))
        });
        names
            .zip(output)
            .map(|(name, r)| match r {
                Ok(stats) => {
                    let dm = stats_of(stats, PolicyKind::DEMAND_MIN).demand_misses;
                    let lru = stats_of(stats, PolicyKind::LRU).demand_misses;
                    (
                        format!("{name}: Demand-MIN demand misses {dm} <= LRU {lru}"),
                        dm <= lru,
                    )
                }
                Err(e) => (format!("{name}: {e}"), false),
            })
            .collect()
    }

    fn instructions(&self, input: &Vec<GridApp>, _: &Vec<PointResult>) -> f64 {
        let per_app: f64 = input.iter().map(|a| a.instructions as f64).sum();
        per_app * PREFETCHERS.len() as f64 * policies().len() as f64
    }

    fn modelled(&self, output: &Vec<PointResult>) -> (Vec<Metric>, Vec<Metric>) {
        let ok: Vec<&Vec<SimStats>> = output.iter().flatten().collect();
        let mean = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let vs_lru = |f: &dyn Fn(&SimStats, &SimStats) -> f64| {
            mean(
                ok.iter()
                    .map(|s| {
                        f(
                            stats_of(s, PolicyKind::DEMAND_MIN),
                            stats_of(s, PolicyKind::LRU),
                        )
                    })
                    .collect(),
            )
        };
        let zoo = mean(
            ok.iter()
                .flat_map(|s| {
                    let lru = stats_of(s, PolicyKind::LRU).mpki();
                    s.iter().map(move |p| ratio(p.mpki(), lru))
                })
                .collect(),
        );
        let modelled = vec![Metric::new("mpki_vs_lru", zoo, "ratio")];
        let extra = vec![
            Metric::new(
                "miss_reduction_pct",
                vs_lru(&|dm, lru| dm.miss_reduction_pct_over(lru)),
                "%",
            ),
            Metric::new(
                "speedup_pct",
                vs_lru(&|dm, lru| dm.speedup_pct_over(lru)),
                "%",
            ),
            Metric::new("mpki", vs_lru(&|dm, _| dm.mpki()), "MPKI"),
            Metric::new("lru_mpki", vs_lru(&|_, lru| lru.mpki()), "MPKI"),
        ];
        (modelled, extra)
    }

    fn derive_layer(&self, values: &mut BTreeMap<String, f64>) {
        derive_common(values);
        let get = |v: &BTreeMap<String, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
        let replays = get(values, "sim.replay_setlocal_s") + get(values, "sim.replay_sequential_s");
        let replayed = values.remove("sim.replayed_requests").unwrap_or(0.0);
        if replays > 0.0 {
            values.insert("sim.mreq_per_s".into(), replayed / replays / 1e6);
        }
        // What the matrices would cost run one policy at a time: capture,
        // set bucketing and every replay, over the timed matrices.
        let sequential = get(values, "sim.capture_s") + get(values, "sim.bucketing_s") + replays;
        let matrix = get(values, "core.matrix_s");
        if matrix > 0.0 {
            values.insert("core.harness_speedup".into(), sequential / matrix);
        }
    }
}
