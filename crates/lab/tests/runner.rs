//! End-to-end runner tests: the report is valid, renders, and is
//! byte-identical across thread counts and repeated runs.

use std::sync::Arc;

use ripple_lab::{builtin, run_experiment, validate_lab_report, LabOptions};

/// The CI smoke declaration at a reduced budget, so the full grid (two
/// profiles x fault modes) stays test-sized.
fn smoke_options(threads: Option<usize>) -> LabOptions {
    LabOptions {
        threads,
        instructions: Some(30_000),
        ..LabOptions::default()
    }
}

#[test]
fn smoke_grid_runs_validates_and_renders() {
    let resolved = builtin("lab-smoke").unwrap().resolve().unwrap();
    let run = run_experiment(&resolved, &smoke_options(Some(2))).unwrap();
    assert_eq!(run.points.len(), resolved.num_points());
    assert_eq!(run.outcomes.len(), run.points.len());
    validate_lab_report(&run.report).unwrap();

    // Round-trip through text: the parsed document still validates.
    let text = run.report.to_pretty_string();
    let parsed = ripple_json::parse(&text).unwrap();
    validate_lab_report(&parsed).unwrap();

    let tables = ripple_lab::render_tables(&run.report).unwrap();
    assert!(tables.contains("lab lab-smoke"), "{tables}");
    assert!(tables.contains("srrip"), "{tables}");

    // Fault axis: bitflip points carry loss accounting, pristine don't.
    for (point, outcome) in run.points.iter().zip(&run.outcomes) {
        match point.fault {
            ripple_lab::FaultMode::None => assert!(outcome.trace_health.is_none()),
            ripple_lab::FaultMode::BitFlip => {
                let health = outcome.trace_health.expect("bitflip point has health");
                assert!(health.total_bytes > 0);
            }
        }
        // The LRU baseline's speedup over itself is exactly zero.
        assert_eq!(outcome.lru.speedup_pct, 0.0);
    }
}

#[test]
fn validator_rejects_a_report_missing_a_grid_point() {
    // The point count is the product of the coordinate axes (profiles x
    // apps x prefetchers x fault modes); a report one point short must
    // fail validation.
    let resolved = builtin("lab-smoke").unwrap().resolve().unwrap();
    let run = run_experiment(&resolved, &smoke_options(Some(2))).unwrap();
    let mut report = run.report;
    let ripple_json::Value::Object(members) = &mut report else {
        panic!("a lab report is an object");
    };
    let (_, points) = members
        .iter_mut()
        .find(|(key, _)| key == "points")
        .expect("report has points");
    let ripple_json::Value::Array(points) = points else {
        panic!("points is an array");
    };
    points.pop().expect("smoke grid has points");
    assert!(validate_lab_report(&report).is_err());
}

#[test]
fn report_is_byte_identical_across_thread_counts_and_reruns() {
    let resolved = builtin("lab-smoke").unwrap().resolve().unwrap();
    let t1 = run_experiment(&resolved, &smoke_options(Some(1))).unwrap();
    let t4 = run_experiment(&resolved, &smoke_options(Some(4))).unwrap();
    let again = run_experiment(&resolved, &smoke_options(Some(1))).unwrap();
    let a = t1.report.to_pretty_string();
    assert_eq!(a, t4.report.to_pretty_string(), "threads must not leak");
    assert_eq!(a, again.report.to_pretty_string(), "reruns must not drift");
}

#[test]
fn recorder_observes_every_lab_phase_without_changing_the_report() {
    let metrics = Arc::new(ripple_obs::MetricsRecorder::new());
    let mut options = smoke_options(Some(2));
    options.recorder = metrics.clone();
    let resolved = builtin("lab-smoke").unwrap().resolve().unwrap();
    let observed = run_experiment(&resolved, &options).unwrap();
    let plain = run_experiment(&resolved, &smoke_options(Some(2))).unwrap();
    assert_eq!(
        observed.report.to_pretty_string(),
        plain.report.to_pretty_string(),
        "recorders observe, never change outcomes"
    );
    let snapshot = metrics.snapshot();
    for phase in ripple_lab::LAB_PHASES {
        assert!(
            snapshot.phases.iter().any(|(name, _)| name == phase),
            "phase {phase} missing from the recorder"
        );
    }
}
