//! `pipeline`: profile, train and evaluate Ripple on three apps with no
//! prefetcher and one thread. Every `SimSession` here is fresh, so capture
//! and set bucketing are paid per session; trace decode, cue analysis and
//! relink do most of the work.

use std::collections::BTreeMap;
use std::time::Instant;

use ripple::{
    analyze_windows, collect_profile, Profile, Ripple, RippleConfig, RippleOutcome, WindowSink,
};
use ripple_program::{rewrite, Layout, LayoutConfig};
use ripple_sim::{simulate, PolicyKind};
use ripple_workloads::{generate, App, Application, InputConfig};

use crate::probe::{derive_common, fresh_session, trace_round_trip, Layer};
use crate::report::Metric;
use crate::runner::{Check, Iteration, Workload};
use crate::span::{SpanId, Tracer};

/// Mid footprint, the largest static footprint (verilator, 1.7 MB of
/// text) and JIT regions (wordpress).
pub const APPS: [App; 3] = [App::Tomcat, App::Verilator, App::Wordpress];

/// Paper figures (no prefetching, EXPERIMENTS.md), shown beside the
/// modelled results as context only.
pub const PAPER_MISS_REDUCTION_PCT: f64 = 9.57;
pub const PAPER_SPEEDUP_PCT: f64 = 1.25;

pub struct Pipeline {
    pub seed: u64,
    pub budget: u64,
}

pub struct Loaded {
    pub app: App,
    pub application: Application,
    pub layout: Layout,
}

fn config() -> RippleConfig {
    RippleConfig {
        threads: Some(1),
        ..RippleConfig::default()
    }
}

/// Builds one app's program and layout.
pub fn load(app: App, tracer: &Tracer, parent: Option<SpanId>) -> Loaded {
    let application = tracer.span(parent, "workloads.generate", |_| generate(&app.spec()));
    let layout = tracer.span(parent, "program.layout", |_| {
        Layout::new(&application.program, &LayoutConfig::default())
    });
    Loaded {
        app,
        application,
        layout,
    }
}

/// One app's result: its profiled instructions and Ripple outcome.
pub type AppResult = Result<(u64, RippleOutcome), String>;

impl Pipeline {
    fn input(&self) -> InputConfig {
        InputConfig::training(self.seed)
    }

    /// Re-issues each layer's calls on this app's inputs, after the clock
    /// has stopped, so each layer's share can be timed on its own.
    fn probe(
        &self,
        l: &Loaded,
        profile: &Profile,
        ripple: &Ripple<'_>,
        tracer: &Tracer,
        parent: Option<SpanId>,
        layer: &mut Layer,
    ) -> Result<(), String> {
        let program = &l.application.program;
        trace_round_trip(l, self.input(), self.budget, tracer, parent, layer)?;
        let cfg = config().sim;
        let (session, _) = fresh_session(
            program,
            &l.layout,
            &profile.trace,
            &cfg,
            tracer,
            parent,
            layer,
        );
        tracer.span(parent, "sim.frontend", |_| {
            simulate(
                program,
                &l.layout,
                &profile.trace,
                &cfg.clone().with_policy(PolicyKind::LRU),
            )
        });

        let mut windows = WindowSink::new();
        session.run_with_sink(ripple.config().analysis_oracle(), &mut windows);
        let analysis = tracer.span(parent, "core.analyze", |_| {
            analyze_windows(
                program,
                &l.layout,
                &profile.trace,
                windows.into_windows(),
                &ripple.config().analysis,
            )
        });
        *layer.entry("core.windows").or_default() += analysis.windows().len() as f64;

        let (plan, _) = ripple.plan().map_err(|e| e.to_string())?;
        tracer.span(parent, "program.rewrite", |_| {
            rewrite(program, &l.layout, &plan)
        });
        *layer.entry("program.injections").or_default() += plan.len() as f64;
        Ok(())
    }
}

impl Workload for Pipeline {
    type Input = Vec<Loaded>;
    type Output = Vec<AppResult>;

    fn budget(&self) -> String {
        format!(
            "{} instructions profiled per app x {} apps, 1 thread, no prefetcher",
            self.budget,
            APPS.len()
        )
    }

    fn setup(&self, tracer: &Tracer, parent: Option<SpanId>) -> Result<Vec<Loaded>, String> {
        Ok(APPS.iter().map(|&a| load(a, tracer, parent)).collect())
    }

    fn iterate(
        &self,
        input: &Vec<Loaded>,
        tracer: &Tracer,
        parent: Option<SpanId>,
        probes: bool,
    ) -> Iteration<Vec<AppResult>> {
        let start = Instant::now();
        let runs: Vec<_> = input
            .iter()
            .map(|l| {
                tracer.span(parent, "bench.app", |app_span| {
                    let program = &l.application.program;
                    let profile = tracer
                        .span(app_span, "core.collect_profile", |_| {
                            collect_profile(&l.application, &l.layout, self.input(), self.budget)
                        })
                        .map_err(|e| e.to_string())?;
                    let ripple = tracer
                        .span(app_span, "core.train", |_| {
                            Ripple::train(program, &l.layout, &profile.trace, config())
                        })
                        .map_err(|e| e.to_string())?;
                    let outcome = tracer
                        .span(app_span, "core.evaluate", |_| {
                            ripple.evaluate(&profile.trace)
                        })
                        .map_err(|e| e.to_string())?;
                    Ok::<_, String>((profile, ripple, outcome))
                })
            })
            .collect();
        let wall_s = start.elapsed().as_secs_f64();

        let mut layer = BTreeMap::new();
        let mut output = Vec::with_capacity(runs.len());
        let mut failed = 0;
        for (l, run) in input.iter().zip(runs) {
            match run {
                Ok((profile, ripple, outcome)) => {
                    if probes {
                        let probed = tracer.span(parent, "bench.probe", |id| {
                            self.probe(l, &profile, &ripple, tracer, id, &mut layer)
                        });
                        if let Err(e) = probed {
                            eprintln!("probe of {} failed: {e}", l.app.name());
                        }
                        *layer.entry("core.coverage_pct").or_default() +=
                            outcome.coverage.coverage() * 100.0 / APPS.len() as f64;
                        *layer.entry("core.accuracy_pct").or_default() +=
                            outcome.ripple_accuracy.accuracy() * 100.0 / APPS.len() as f64;
                    }
                    let instructions = profile
                        .trace
                        .dynamic_instruction_count(&l.application.program);
                    output.push(Ok((instructions, outcome)));
                }
                Err(e) => {
                    failed += 1;
                    output.push(Err(format!("{}: {e}", l.app.name())));
                }
            }
        }
        Iteration {
            wall_s,
            output,
            attempted: input.len() as u64,
            failed,
            layer,
        }
    }

    fn checks(&self, output: &Vec<AppResult>) -> Vec<Check> {
        APPS.iter()
            .zip(output)
            .map(|(app, r)| match r {
                Ok((_, o)) => (
                    format!(
                        "{}: ideal demand misses {} <= baseline {}",
                        app.name(),
                        o.ideal.demand_misses,
                        o.baseline.demand_misses
                    ),
                    o.ideal.demand_misses <= o.baseline.demand_misses,
                ),
                Err(e) => (format!("{}: {e}", app.name()), false),
            })
            .collect()
    }

    fn instructions(&self, _: &Vec<Loaded>, output: &Vec<AppResult>) -> f64 {
        output.iter().flatten().map(|(n, _)| *n as f64).sum()
    }

    fn modelled(&self, output: &Vec<AppResult>) -> (Vec<Metric>, Vec<Metric>) {
        let outcomes: Vec<&RippleOutcome> = output.iter().flatten().map(|(_, o)| o).collect();
        let mean = |f: &dyn Fn(&RippleOutcome) -> f64| {
            outcomes.iter().map(|o| f(o)).sum::<f64>() / outcomes.len().max(1) as f64
        };
        let modelled = vec![Metric::new(
            "mpki_vs_lru",
            mean(&|o| crate::probe::ratio(o.ripple.mpki(), o.lru_reference.mpki())),
            "ratio",
        )];
        let extra = vec![
            Metric::new("miss_reduction_pct", mean(&|o| o.miss_reduction_pct()), "%"),
            Metric::new("speedup_pct", mean(&|o| o.speedup_pct()), "%"),
            Metric::new("mpki", mean(&|o| o.ripple.mpki()), "MPKI"),
            Metric::new("lru_mpki", mean(&|o| o.lru_reference.mpki()), "MPKI"),
            Metric::new(
                "ideal_miss_reduction_pct",
                mean(&|o| o.ideal_miss_reduction_pct()),
                "%",
            ),
            Metric::new("paper_miss_reduction_pct", PAPER_MISS_REDUCTION_PCT, "%"),
            Metric::new("paper_speedup_pct", PAPER_SPEEDUP_PCT, "%"),
        ];
        (modelled, extra)
    }

    fn derive_layer(&self, values: &mut BTreeMap<String, f64>) {
        derive_common(values);
        // Each evaluation job runs alone on one thread.
        values.insert("core.harness_speedup".into(), 1.0);
        let replay = values.get("sim.replay_warm_s").copied().unwrap_or(0.0);
        let requests = values.get("sim.requests").copied().unwrap_or(0.0);
        if replay > 0.0 {
            values.insert("sim.mreq_per_s".into(), requests / replay / 1e6);
        }
    }
}
