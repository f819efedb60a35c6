//! Criterion micro-benchmarks: simulator and analysis throughput, plus
//! the simulator-pass scenarios persisted to `BENCH_perf.json` at the
//! repository root.
//!
//! The `sim_passes` scenarios measure simulated blocks per second for the
//! frontend's hot loops:
//!
//! * `record_pass` — the shared recording pass (capturing the request
//!   stream and building its future index);
//! * `replay_pass` — a Demand-MIN replay against an already-recorded
//!   session;
//! * `decode_pass` — [`reconstruct_trace`] of the recorded control-flow
//!   trace bytes back into the block trace (the profile layer's decode);
//! * `online_lru` — a full single-pass online-LRU run;
//! * `full_pipeline_record_plus_demand_min` — a fresh two-pass oracle run
//!   (recording plus Demand-MIN replay), the headline number.
//!
//! `RIPPLE_BENCH_INSTRS` overrides the per-app instruction budget.
//!
//! A full Ripple pipeline (train + evaluate) also runs once under a
//! [`MetricsRecorder`], and its phase timers land in `BENCH_perf.json` as
//! a `pipeline_phases` breakdown — each phase's share of the measured
//! root wall clock (phases nest, so shares are computed against the
//! single wall time, not the summed phase time).

use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ripple::{Ripple, RippleConfig};
use ripple_bench::{bench_budget, load_app, LoadedApp};
use ripple_json::{object, Value};
use ripple_obs::MetricsRecorder;
use ripple_sim::{
    simulate, simulate_with_sink, PolicyKind, PolicyRegistry, PrefetcherKind, SimConfig,
    SimSession, VecSink,
};
use ripple_trace::{reconstruct_trace, record_trace};
use ripple_workloads::App;

fn bench_simulator(c: &mut Criterion) {
    let loaded = load_app(App::Tomcat, 120_000);
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    // One no-prefetch scenario per registered *online* policy, so a newly
    // registered policy gets a throughput number without touching this
    // bench. Offline ideals are excluded from this loop — they need a
    // recorded future index and run two passes — and are covered by the
    // `opt_two_pass` / `opt_replay_shared_recording` scenarios below.
    let mut scenarios: Vec<(String, SimConfig)> = Vec::new();
    for id in PolicyRegistry::global().online() {
        scenarios.push((
            format!("{}_noprefetch", id.name()),
            SimConfig::default().with_policy(id),
        ));
    }
    for id in PolicyRegistry::global().offline() {
        println!(
            "  (skipping {}_noprefetch: offline ideal needs a recorded future index; \
             see opt_two_pass / opt_replay_shared_recording)",
            id.name()
        );
    }
    scenarios.push((
        "lru_fdip".to_string(),
        SimConfig::default().with_prefetcher(PrefetcherKind::Fdip),
    ));
    scenarios.push((
        "opt_two_pass".to_string(),
        SimConfig::default().with_policy(PolicyKind::OPT),
    ));
    for (name, cfg) in &scenarios {
        group.bench_function(name.as_str(), |b| {
            b.iter(|| simulate(&loaded.app.program, &loaded.layout, &loaded.trace, cfg))
        });
    }
    // Replaying an ideal policy against a session's already-recorded stream
    // skips the recording pass: the delta vs `opt_two_pass` is the pass the
    // session amortizes across a policy matrix.
    let session = SimSession::new(
        &loaded.app.program,
        &loaded.layout,
        &loaded.trace,
        SimConfig::default(),
    );
    let _ = session.run(PolicyKind::OPT); // pay the recording pass up front
    group.bench_function("opt_replay_shared_recording", |b| {
        b.iter(|| session.run(PolicyKind::OPT))
    });
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let loaded = load_app(App::Tomcat, 120_000);
    let cfg = SimConfig::default().with_policy(PolicyKind::OPT);
    let mut sink = VecSink::new();
    let _ = simulate_with_sink(
        &loaded.app.program,
        &loaded.layout,
        &loaded.trace,
        &cfg,
        &mut sink,
    );
    let log = sink.into_events();
    let mut group = c.benchmark_group("analysis");
    group.sample_size(10);
    group.bench_function("eviction_analysis", |b| {
        b.iter(|| {
            ripple::analyze(
                &loaded.app.program,
                &loaded.layout,
                &loaded.trace,
                &log,
                &ripple::AnalysisConfig::default(),
            )
        })
    });
    group.finish();
}

/// Timed samples per `sim_passes` scenario (one untimed warmup first).
const SAMPLES: u32 = 10;

/// Mean wall-clock seconds per invocation of `f`.
fn secs_per_run(mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let start = Instant::now();
    for _ in 0..SAMPLES {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(SAMPLES)
}

/// Simulated blocks per second of one scenario.
fn blocks_per_sec(trace_blocks: u64, secs: f64) -> f64 {
    trace_blocks as f64 / secs
}

fn measure_passes(loaded: &LoadedApp) -> [(&'static str, f64); 5] {
    let blocks = loaded.trace.len() as u64;
    // The oracle scenarios run under NLP so the request stream contains
    // prefetches and Demand-MIN differs from OPT; the online scenario is
    // the paper's plain LRU baseline.
    let oracle_cfg = SimConfig::default().with_prefetcher(PrefetcherKind::NextLine);
    let online_cfg = SimConfig::default();

    let record = secs_per_run(|| {
        let session = SimSession::new(
            &loaded.app.program,
            &loaded.layout,
            &loaded.trace,
            oracle_cfg.clone(),
        );
        session.ensure_recorded();
        black_box(session.recording_passes());
    });

    let warm = SimSession::new(
        &loaded.app.program,
        &loaded.layout,
        &loaded.trace,
        oracle_cfg.clone(),
    );
    warm.ensure_recorded();
    let replay = secs_per_run(|| {
        black_box(warm.run(PolicyKind::DEMAND_MIN));
    });

    let bytes = record_trace(&loaded.app.program, &loaded.layout, loaded.trace.iter());
    let decode = secs_per_run(|| {
        black_box(
            reconstruct_trace(&loaded.app.program, &loaded.layout, &bytes)
                .expect("a recorded trace decodes"),
        );
    });

    let online = secs_per_run(|| {
        black_box(simulate(
            &loaded.app.program,
            &loaded.layout,
            &loaded.trace,
            &online_cfg,
        ));
    });

    let full = secs_per_run(|| {
        let session = SimSession::new(
            &loaded.app.program,
            &loaded.layout,
            &loaded.trace,
            oracle_cfg.clone(),
        );
        black_box(session.run(PolicyKind::DEMAND_MIN));
    });

    [
        ("record_pass", blocks_per_sec(blocks, record)),
        ("replay_pass", blocks_per_sec(blocks, replay)),
        ("decode_pass", blocks_per_sec(blocks, decode)),
        ("online_lru", blocks_per_sec(blocks, online)),
        (
            "full_pipeline_record_plus_demand_min",
            blocks_per_sec(blocks, full),
        ),
    ]
}

fn bench_sim_passes(_c: &mut Criterion) {
    let budget = bench_budget();
    let loaded = load_app(App::Tomcat, budget);
    println!("group: sim_passes (Tomcat, {budget} instrs)");

    let mut scenarios: Vec<(String, Value)> = Vec::new();
    for (name, rate) in measure_passes(&loaded) {
        println!("  {name}: {rate:.0} blocks/s");
        scenarios.push((
            name.to_string(),
            object([("blocks_per_sec", Value::Float(rate))]),
        ));
    }

    let doc = object([
        ("app", Value::Str(App::Tomcat.name().to_string())),
        ("budget_instrs", Value::UInt(budget)),
        ("trace_blocks", Value::UInt(loaded.trace.len() as u64)),
        ("samples_per_scenario", Value::UInt(u64::from(SAMPLES))),
        ("scenarios", Value::Object(scenarios)),
        ("phase_throughput", phase_throughput(&loaded)),
        ("pipeline_phases", pipeline_phase_breakdown(&loaded)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    match std::fs::write(path, doc.to_pretty_string() + "\n") {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => eprintln!("  could not write {path}: {e}"),
    }
}

/// Blocks/sec through the two historically dominant pipeline phases,
/// measured directly rather than inferred from the share breakdown:
///
/// * `cue_selection` — the dense [`ripple::analyze_windows`] over the real
///   oracle window set of the training trace;
/// * `final_layout` — the evaluate fixpoint (two relinks, each followed by
///   a columnar oracle replay and a dense window analysis, then the
///   operand patch), taken from the `eval.final_layout` phase timer over
///   repeated evaluates.
fn phase_throughput(loaded: &LoadedApp) -> Value {
    let blocks = loaded.trace.len() as u64;

    // cue_selection: a direct analyze_windows loop on real windows.
    let oracle_cfg = SimConfig::default()
        .with_prefetcher(PrefetcherKind::NextLine)
        .with_policy(PolicyKind::OPT);
    let mut sink = ripple::WindowSink::new();
    let _ = simulate_with_sink(
        &loaded.app.program,
        &loaded.layout,
        &loaded.trace,
        &oracle_cfg,
        &mut sink,
    );
    let windows = sink.into_windows();
    let cue_secs = secs_per_run(|| {
        black_box(ripple::analyze_windows(
            &loaded.app.program,
            &loaded.layout,
            &loaded.trace,
            windows.clone(),
            &ripple::AnalysisConfig::default(),
        ));
    });

    // final_layout: the phase timer's delta over SAMPLES evaluates.
    let recorder = Arc::new(MetricsRecorder::new());
    let mut config = RippleConfig::default();
    config.threads = Some(1);
    let ripple = Ripple::train_with_recorder(
        &loaded.app.program,
        &loaded.layout,
        &loaded.trace,
        config,
        recorder.clone(),
    )
    .expect("train");
    black_box(ripple.evaluate(&loaded.trace).expect("evaluate")); // warmup
    let before = recorder
        .snapshot()
        .phase("eval.final_layout")
        .map_or(0, |s| s.total_nanos);
    for _ in 0..SAMPLES {
        black_box(ripple.evaluate(&loaded.trace).expect("evaluate"));
    }
    let after = recorder
        .snapshot()
        .phase("eval.final_layout")
        .map_or(0, |s| s.total_nanos);
    let final_layout_secs = (after - before) as f64 / 1e9 / f64::from(SAMPLES);

    println!("group: phase_throughput (Tomcat, 1 thread)");
    let mut out: Vec<(String, Value)> = Vec::new();
    for (name, secs) in [
        ("cue_selection", cue_secs),
        ("final_layout", final_layout_secs),
    ] {
        let bps = blocks_per_sec(blocks, secs);
        println!("  {name}: {:.2}ms per run, {bps:.0} blocks/s", secs * 1e3);
        out.push((
            name.to_string(),
            object([
                ("secs_per_run", Value::Float(secs)),
                ("blocks_per_sec", Value::Float(bps)),
            ]),
        ));
    }
    Value::Object(out)
}

/// One instrumented train + evaluate run: the observability layer's phase
/// timers, rendered as `{wall_ns, phases: name -> {count, total_ns,
/// max_ns, share_pct}}`. `share_pct` is each phase's slice of the
/// *measured root wall time* of the run, not of the summed phase time:
/// phases nest (`harness.batch` ⊃ `harness.job`, `eval.sim_runs` ⊃
/// `session.run`), so a phase-total denominator double-counts every
/// nested level and inflates the root slices. Against the single wall
/// clock, disjoint top-level phases sum to ≤ 100% and nested phases read
/// as genuine fractions of the run.
fn pipeline_phase_breakdown(loaded: &LoadedApp) -> Value {
    let recorder = Arc::new(MetricsRecorder::new());
    let mut config = RippleConfig::default();
    config.threads = Some(1); // deterministic single-thread timing profile
    let wall = Instant::now();
    let ripple = Ripple::train_with_recorder(
        &loaded.app.program,
        &loaded.layout,
        &loaded.trace,
        config,
        recorder.clone(),
    )
    .expect("train");
    black_box(ripple.evaluate(&loaded.trace).expect("evaluate"));
    let wall_ns = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let snapshot = recorder.snapshot();
    println!("group: pipeline_phases (train + evaluate, 1 thread)");
    let mut phases: Vec<(String, Value)> = Vec::new();
    for (name, stat) in &snapshot.phases {
        let share = if wall_ns == 0 {
            0.0
        } else {
            100.0 * stat.total_nanos as f64 / wall_ns as f64
        };
        println!(
            "  {name}: {:.2}ms over {} laps ({share:.1}% of wall clock)",
            stat.total_nanos as f64 / 1e6,
            stat.count
        );
        phases.push((
            name.clone(),
            object([
                ("count", Value::UInt(stat.count)),
                ("total_ns", Value::UInt(stat.total_nanos)),
                ("max_ns", Value::UInt(stat.max_nanos)),
                ("share_pct", Value::Float(share)),
            ]),
        ));
    }
    object([
        ("wall_ns", Value::UInt(wall_ns)),
        ("phases", Value::Object(phases)),
    ])
}

criterion_group!(benches, bench_simulator, bench_analysis, bench_sim_passes);
criterion_main!(benches);
