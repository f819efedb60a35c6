//! Pins the lab path to an independent oracle: a declarative experiment
//! over (app, prefetcher, policies, Ripple underlyings) must produce the
//! same figures as the measurement written out directly against the
//! harness — `policy_matrix`, `simulate_ideal_cache`, `Ripple::train` +
//! `evaluate` at a fixed threshold, and a first-best [`sweep`] scan for
//! tuning. Exact equality is expected: both paths drive the same
//! deterministic simulator over the same trace.

use std::sync::Arc;

use ripple::{
    collect_profile, effective_threads, policy_matrix, profile_temperatures, sweep, Ripple,
    RippleConfig,
};
use ripple_lab::{run_experiment, Experiment, FaultMode, LabOptions, PointRow, TargetProfile};
use ripple_program::{Layout, LayoutConfig};
use ripple_sim::{
    simulate_ideal_cache, PolicyKind, PolicyRegistry, PrefetcherKind, SimConfig, SimSession,
    SimStats,
};
use ripple_trace::BbTrace;
use ripple_workloads::{generate, App, Application, InputConfig};

const BUDGET: u64 = 60_000;
const THRESHOLD: f64 = 0.55;
const CANDIDATE_THRESHOLDS: [f64; 3] = [0.45, 0.55, 0.65];

struct Loaded {
    app: Application,
    layout: Layout,
    trace: BbTrace,
}

fn load(app: App) -> Loaded {
    let generated = generate(&app.spec());
    let layout = Layout::new(&generated.program, &LayoutConfig::default());
    let input = InputConfig::training(app.spec().seed);
    let profile = collect_profile(&generated, &layout, input, BUDGET).unwrap();
    Loaded {
        app: generated,
        layout,
        trace: profile.trace,
    }
}

fn sim_config(prefetcher: PrefetcherKind) -> SimConfig {
    let paper = TargetProfile::find("paper").unwrap();
    paper.sim_config().with_prefetcher(prefetcher)
}

fn row(stats: &SimStats, lru: &SimStats) -> PointRow {
    PointRow {
        speedup_pct: stats.speedup_pct_over(lru),
        mpki: stats.mpki(),
        miss_reduction_pct: stats.miss_reduction_pct_over(lru),
        demand_misses: stats.demand_misses,
    }
}

fn close(label: &str, lab: f64, oracle: f64) {
    assert!(
        (lab - oracle).abs() < 1e-9,
        "{label}: lab {lab} != oracle {oracle}"
    );
}

fn same_row(label: &str, lab: &PointRow, oracle: &PointRow) {
    assert_eq!(
        lab.demand_misses, oracle.demand_misses,
        "{label} demand misses"
    );
    close(
        &format!("{label} speedup"),
        lab.speedup_pct,
        oracle.speedup_pct,
    );
    close(&format!("{label} mpki"), lab.mpki, oracle.mpki);
    close(
        &format!("{label} miss reduction"),
        lab.miss_reduction_pct,
        oracle.miss_reduction_pct,
    );
}

#[test]
fn lab_grid_point_matches_the_direct_measurement() {
    // Oracle: (tomcat, nlp) at a fixed threshold, measured directly.
    // Tuning is a separate concern, pinned by its own rule below.
    let loaded = load(App::Tomcat);
    let (program, layout, trace) = (&loaded.app.program, &loaded.layout, &loaded.trace);
    let mut cfg = sim_config(PrefetcherKind::NextLine);
    cfg.temperatures = Some(Arc::new(profile_temperatures(layout, trace)));
    let priors: Vec<PolicyKind> = PolicyRegistry::global()
        .online()
        .filter(|&p| p != PolicyKind::LRU)
        .collect();
    let mut matrix = vec![PolicyKind::LRU];
    matrix.extend(&priors);
    matrix.push(PolicyKind::DEMAND_MIN);
    let session = SimSession::new(program, layout, trace, cfg.clone());
    let results = policy_matrix(&session, &matrix, effective_threads(None)).unwrap();
    let lru = &results[0];
    let ideal_cache = simulate_ideal_cache(program, trace, &cfg);

    // Lab path: the same measurement as a declaration.
    let decl = Experiment {
        name: "equivalence".into(),
        description: String::new(),
        instructions: BUDGET,
        profiles: vec!["paper".into()],
        apps: vec!["tomcat".into()],
        prefetchers: vec!["nlp".into()],
        policies: vec![ripple_lab::TOKEN_PRIORS.into()],
        ripple_underlying: vec!["lru".into(), "random".into()],
        thresholds: vec![THRESHOLD],
        fault_modes: vec!["none".into()],
    };
    let resolved = decl.resolve().unwrap();
    let run = run_experiment(&resolved, &LabOptions::default()).unwrap();
    let outcome = run
        .outcome("paper", "tomcat", PrefetcherKind::NextLine, FaultMode::None)
        .unwrap();

    // Policy matrix rows: every prior the registry knows, plus bounds.
    same_row("lru", &outcome.lru, &row(lru, lru));
    close("compulsory", outcome.compulsory_mpki, lru.compulsory_mpki());
    assert_eq!(outcome.policies.len(), priors.len());
    for ((name, lab), (kind, stats)) in outcome
        .policies
        .iter()
        .zip(priors.iter().zip(&results[1..]))
    {
        assert_eq!(name, kind.name());
        same_row(name, lab, &row(stats, lru));
    }
    same_row("ideal", &outcome.ideal, &row(results.last().unwrap(), lru));
    same_row("ideal-cache", &outcome.ideal_cache, &row(&ideal_cache, lru));

    // Ripple pipelines: one row per underlying at the fixed threshold.
    assert_eq!(outcome.ripple.len(), 2);
    for (lab, underlying) in outcome
        .ripple
        .iter()
        .zip([PolicyKind::LRU, PolicyKind::RANDOM])
    {
        let config = RippleConfig {
            sim: sim_config(PrefetcherKind::NextLine),
            underlying,
            threshold: THRESHOLD,
            ..RippleConfig::default()
        };
        let o = Ripple::train(program, layout, trace, config)
            .unwrap()
            .evaluate(trace)
            .unwrap();
        let label = format!("ripple-{}", underlying.name());
        assert_eq!(lab.underlying, underlying.name());
        assert!(lab.best, "single-threshold rows are trivially best");
        close(&format!("{label} threshold"), lab.threshold, THRESHOLD);
        same_row(&label, &lab.row, &row(&o.ripple, lru));
        close(
            &format!("{label} coverage"),
            lab.coverage,
            o.coverage.coverage(),
        );
        close(
            &format!("{label} accuracy"),
            lab.accuracy,
            o.ripple_accuracy.accuracy(),
        );
        close(
            &format!("{label} underlying accuracy"),
            lab.underlying_accuracy,
            o.underlying_accuracy.accuracy(),
        );
        close(
            &format!("{label} static overhead"),
            lab.static_overhead_pct,
            o.static_overhead_pct,
        );
        close(
            &format!("{label} dynamic overhead"),
            lab.dynamic_overhead_pct,
            o.dynamic_overhead_pct,
        );
    }
}

#[test]
fn lab_threshold_tuning_matches_a_first_best_scan() {
    // Oracle: sweep the candidate thresholds and keep the first-best
    // speedup, as a sequential tuning scan would; the lab marks the same
    // winner as `best`.
    let loaded = load(App::Kafka);
    let config = RippleConfig {
        sim: sim_config(PrefetcherKind::None),
        ..RippleConfig::default()
    };
    let ripple = Ripple::train(&loaded.app.program, &loaded.layout, &loaded.trace, config).unwrap();
    let points = sweep(&ripple, &loaded.trace, &CANDIDATE_THRESHOLDS).unwrap();
    let mut tuned = (f64::NEG_INFINITY, CANDIDATE_THRESHOLDS[0]);
    for p in &points {
        if p.speedup_pct > tuned.0 {
            tuned = (p.speedup_pct, p.threshold);
        }
    }

    let decl = Experiment {
        name: "tuning".into(),
        description: String::new(),
        instructions: BUDGET,
        profiles: vec!["paper".into()],
        apps: vec!["kafka".into()],
        prefetchers: vec!["none".into()],
        policies: vec![],
        ripple_underlying: vec!["lru".into()],
        thresholds: CANDIDATE_THRESHOLDS.to_vec(),
        fault_modes: vec!["none".into()],
    };
    let run = run_experiment(&decl.resolve().unwrap(), &LabOptions::default()).unwrap();
    let best = run.outcomes[0]
        .ripple
        .iter()
        .find(|r| r.best)
        .expect("one best per underlying");
    assert_eq!(best.threshold, tuned.1, "tuning rule must match the scan");
}
