//! Dimension 7: dense-analysis equivalence on relinked binaries.
//!
//! The pipeline's layout fixpoint relinks with [`rewrite`] and selects
//! cues with the dense, epoch-stamped [`analyze_windows`]. The dense scan
//! is a pure optimization of the original map-based cue scan, kept as
//! [`reference::analyze_choices`]. This dimension relinks each generated
//! program after a random injection plan, collects real oracle windows on
//! the relinked binary, and demands byte-identical cue choices. A subset
//! of cases additionally runs the full pipeline at 1 and 4 harness threads
//! and demands an identical [`RippleOutcome`].
//!
//! [`RippleOutcome`]: ripple::RippleOutcome

use rand::{Rng, SeedableRng, StdRng};
use ripple::{analyze_windows, AnalysisConfig, WindowSink};
use ripple::{Ripple, RippleConfig};
use ripple_program::{
    rewrite, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LayoutConfig, Program,
};
use ripple_sim::{
    CacheGeometry, EvictionMechanism, PolicyKind, PrefetcherKind, SimConfig, SimSession,
};
use ripple_trace::BbTrace;
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

use crate::reference;
use crate::shrink::min_failing_prefix;

/// One generated relinking case: a program, its profiled layout, a trace,
/// and the injection plan the program is relinked with.
struct RewriteCase {
    label: String,
    program: Program,
    layout: Layout,
    trace: BbTrace,
    plan: InjectionPlan,
    threshold: f64,
}

fn gen_case(seed: u64) -> RewriteCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = if rng.gen_bool(0.4) {
        AppSpec::tiny(rng.next_u64())
    } else {
        AppSpec::randomized(rng.next_u64())
    };
    let app = generate(&spec);
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let budget = rng.gen_range(1500u64..=4000);
    let trace = execute(
        &app.program,
        &app.model,
        InputConfig::training(rng.next_u64()),
        budget,
    );

    let n = app.program.num_blocks() as u32;
    let plan: InjectionPlan = (0..rng.gen_range(1u32..=12))
        .map(|_| Injection {
            cue: BlockId::new(rng.gen_range(0..n)),
            victim: CodeLoc::new(BlockId::new(rng.gen_range(0..n)), 0),
        })
        .collect();

    let threshold = [0.05, 0.1, 0.3, 0.5][rng.gen_range(0..4usize)];
    let label = format!(
        "app {} (spec seed {:#x}), {} blocks traced, {} injections, threshold {threshold}",
        spec.name,
        spec.seed,
        trace.len(),
        plan.len(),
    );
    RewriteCase {
        label,
        program: app.program,
        layout,
        trace,
        plan,
        threshold,
    }
}

/// Dense-vs-reference cue analysis over a *real* oracle window set from
/// the rewritten binary (the exact windows the fixpoint loop analyzes).
fn analysis_violation(case: &RewriteCase) -> Option<String> {
    let rewritten = rewrite(&case.program, &case.layout, &case.plan);
    let mut cfg = SimConfig::default();
    cfg.l1i = CacheGeometry::new(1024, 2);
    cfg.prefetcher = PrefetcherKind::NextLine;
    cfg.eviction_mechanism = EvictionMechanism::NoOp;
    let session = SimSession::new(&rewritten.program, &rewritten.layout, &case.trace, cfg);
    let mut windows = WindowSink::new();
    session.run_with_sink(PolicyKind::OPT, &mut windows);
    let windows = windows.into_windows();

    let mut analysis_cfg = AnalysisConfig::default();
    analysis_cfg.min_windows_per_injection = 1;
    let dense = analyze_windows(
        &rewritten.program,
        &rewritten.layout,
        &case.trace,
        windows.clone(),
        &analysis_cfg,
    );
    let reference = reference::analyze_choices(
        &rewritten.program,
        &rewritten.layout,
        &case.trace,
        &windows,
        &analysis_cfg,
    );
    if dense.windows() != windows.as_slice() {
        return Some("dense analysis reordered the window set".into());
    }
    if dense.choices() != reference.as_slice() {
        let idx = dense
            .choices()
            .iter()
            .zip(reference.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| dense.choices().len().min(reference.len()));
        return Some(format!(
            "dense and reference cue choices diverge at window {idx}"
        ));
    }
    None
}

/// Full-pipeline probe: train once, evaluate at 1 and 4 harness threads;
/// the outcomes (which flow through relinking, columnar replay, and dense
/// analysis) must be identical.
fn outcome_violation(case: &RewriteCase) -> Option<String> {
    let mut base = RippleConfig::default();
    base.sim.l1i = CacheGeometry::new(2 * 1024, 4);
    base.analysis.min_windows_per_injection = 1;
    base.threshold = case.threshold.min(0.3);
    let mut outcomes = Vec::new();
    for threads in [1usize, 4] {
        let mut cfg = base.clone();
        cfg.threads = Some(threads);
        let ripple = match Ripple::train(&case.program, &case.layout, &case.trace, cfg) {
            Ok(r) => r,
            Err(e) => return Some(format!("train failed at {threads} threads: {e}")),
        };
        match ripple.evaluate(&case.trace) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => return Some(format!("evaluate failed at {threads} threads: {e}")),
        }
    }
    (outcomes[0] != outcomes[1])
        .then(|| "RippleOutcome differs between 1 and 4 harness threads".into())
}

/// Checks one generated case; shrinks the trace on an analysis
/// divergence.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let case = gen_case(seed);
    if let Some(message) = analysis_violation(&case) {
        let len = min_failing_prefix(case.trace.len(), |n| {
            let probe = RewriteCase {
                label: case.label.clone(),
                program: case.program.clone(),
                layout: case.layout.clone(),
                trace: BbTrace::new(case.trace.blocks()[..n].to_vec()),
                plan: case.plan.clone(),
                threshold: case.threshold,
            };
            analysis_violation(&probe).is_some()
        });
        let minimal = RewriteCase {
            label: format!("{} [truncated to {len}]", case.label),
            program: case.program.clone(),
            layout: case.layout.clone(),
            trace: BbTrace::new(case.trace.blocks()[..len].to_vec()),
            plan: case.plan.clone(),
            threshold: case.threshold,
        };
        let final_message = analysis_violation(&minimal).expect("shrunk case still fails");
        let repro = format!(
            "case: {}\ntrace shrunk {} -> {} blocks\n{final_message}",
            minimal.label,
            case.trace.len(),
            minimal.trace.len(),
        );
        return Err((message, repro));
    }

    // The end-to-end probe is an order of magnitude more expensive than
    // the direct oracles, so only a slice of the corpus pays for it.
    if seed.is_multiple_of(4) {
        if let Some(message) = outcome_violation(&case) {
            let repro = format!("case: {}\n{message}", case.label);
            return Err((message, repro));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relink_and_analysis_agree_on_many_seeds() {
        for seed in 0..16 {
            if let Err((msg, repro)) = check(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn violation_helpers_cover_a_real_case() {
        // The oracles must actually exercise non-trivial inputs: the
        // generated case relinks with a non-empty plan.
        let case = gen_case(4); // seed 4 also runs the outcome probe in check()
        assert!(!case.plan.is_empty());
        assert!(analysis_violation(&case).is_none());
        assert!(outcome_violation(&case).is_none());
    }
}
