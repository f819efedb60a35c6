//! Pins the lab path to the legacy bench path: a declarative experiment
//! over (app, prefetcher, policies, Ripple underlyings) must produce the
//! same figures as `ripple_bench::compute_cell`, which the per-figure
//! benches consumed for nine PRs. Exact equality is expected — both
//! paths drive the same deterministic simulator over the same trace.

use ripple_bench::{compute_cell, load_app};
use ripple_lab::{run_experiment, Experiment, LabOptions};
use ripple_sim::PrefetcherKind;
use ripple_workloads::App;

const BUDGET: u64 = 60_000;
const THRESHOLD: f64 = 0.55;

fn close(label: &str, lab: f64, legacy: f64) {
    assert!(
        (lab - legacy).abs() < 1e-9,
        "{label}: lab {lab} != legacy bench {legacy}"
    );
}

#[test]
fn lab_grid_point_matches_legacy_compute_cell() {
    // Legacy path: the bench crate's cell for (tomcat, nlp) at a fixed
    // threshold (tuning is a separate concern, pinned by its own rule).
    let loaded = load_app(App::Tomcat, BUDGET);
    let cell = compute_cell(&loaded, PrefetcherKind::NextLine, THRESHOLD);

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
        .outcome("paper", "tomcat", PrefetcherKind::NextLine)
        .unwrap();

    // Policy matrix rows: every prior the registry knows, plus bounds.
    assert_eq!(outcome.lru.demand_misses, cell.lru.demand_misses);
    close("lru mpki", outcome.lru.mpki, cell.lru.mpki);
    close("compulsory", outcome.compulsory_mpki, cell.compulsory_mpki);
    assert_eq!(outcome.policies.len(), cell.policies.len());
    for (name, row) in &outcome.policies {
        let legacy = &cell.policies[name];
        assert_eq!(
            row.demand_misses, legacy.demand_misses,
            "{name} demand misses"
        );
        close(
            &format!("{name} speedup"),
            row.speedup_pct,
            legacy.speedup_pct,
        );
        close(&format!("{name} mpki"), row.mpki, legacy.mpki);
        close(
            &format!("{name} miss reduction"),
            row.miss_reduction_pct,
            legacy.miss_reduction_pct,
        );
    }
    assert_eq!(outcome.ideal.demand_misses, cell.ideal.demand_misses);
    close(
        "ideal speedup",
        outcome.ideal.speedup_pct,
        cell.ideal.speedup_pct,
    );
    close(
        "ideal-cache speedup",
        outcome.ideal_cache.speedup_pct,
        cell.ideal_cache.speedup_pct,
    );

    // Ripple pipelines: one row per underlying at the fixed threshold.
    assert_eq!(outcome.ripple.len(), 2);
    for (row, legacy) in outcome
        .ripple
        .iter()
        .zip([&cell.ripple_lru, &cell.ripple_random])
    {
        assert!(row.best, "single-threshold rows are trivially best");
        close(
            &format!("ripple-{} threshold", row.underlying),
            row.threshold,
            legacy.threshold,
        );
        close(
            &format!("ripple-{} speedup", row.underlying),
            row.row.speedup_pct,
            legacy.row.speedup_pct,
        );
        close(
            &format!("ripple-{} mpki", row.underlying),
            row.row.mpki,
            legacy.row.mpki,
        );
        close(
            &format!("ripple-{} coverage", row.underlying),
            row.coverage,
            legacy.coverage,
        );
        close(
            &format!("ripple-{} accuracy", row.underlying),
            row.accuracy,
            legacy.accuracy,
        );
        close(
            &format!("ripple-{} underlying accuracy", row.underlying),
            row.underlying_accuracy,
            legacy.underlying_accuracy,
        );
        close(
            &format!("ripple-{} static overhead", row.underlying),
            row.static_overhead_pct,
            legacy.static_overhead_pct,
        );
        close(
            &format!("ripple-{} dynamic overhead", row.underlying),
            row.dynamic_overhead_pct,
            legacy.dynamic_overhead_pct,
        );
    }
}

#[test]
fn lab_threshold_tuning_matches_legacy_rule() {
    // The legacy bench tunes by scanning TUNE_THRESHOLDS and keeping the
    // first-best speedup; the lab marks the same winner as `best`.
    let loaded = load_app(App::Kafka, BUDGET);
    let tuned = ripple_bench::tune_threshold(&loaded, PrefetcherKind::None);

    let decl = Experiment {
        name: "tuning".into(),
        description: String::new(),
        instructions: BUDGET,
        profiles: vec!["paper".into()],
        apps: vec!["kafka".into()],
        prefetchers: vec!["none".into()],
        policies: vec![],
        ripple_underlying: vec!["lru".into()],
        thresholds: ripple_bench::TUNE_THRESHOLDS.to_vec(),
        fault_modes: vec!["none".into()],
    };
    let run = run_experiment(&decl.resolve().unwrap(), &LabOptions::default()).unwrap();
    let best = run.outcomes[0]
        .ripple
        .iter()
        .find(|r| r.best)
        .expect("one best per underlying");
    assert_eq!(best.threshold, tuned, "tuning rule must match the bench");
}
