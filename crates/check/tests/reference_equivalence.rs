//! Byte-identical equivalence between the simulator and the pre-interning
//! reference oracle ([`ripple_check::reference`]).
//!
//! The dense `LineId` representation is an internal optimization: for any
//! (app, prefetcher, policy) combination, a [`SimSession`] run and
//! [`reference::simulate`] must produce identical [`SimStats`] *and* an
//! identical eviction-event stream — same victims, same positions, same
//! `by_prefetch` flags, in the same order. A full Ripple pipeline's runs
//! of the original binary, at any harness thread count, must match the
//! reference too, and so must its cue scan
//! ([`reference::analyze_choices`]).

use std::sync::Arc;

use ripple::{analyze_windows, Ripple, RippleConfig, RippleOutcome, WindowSink};
use ripple_check::reference;
use ripple_program::{
    rewrite, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LayoutConfig, LineAddr, Program,
};
use ripple_sim::{
    CacheGeometry, EvictionEvent, EvictionMechanism, NullSink, PolicyKind, PrefetcherKind,
    SimConfig, SimSession, SimStats, Temperature, TemperatureMap, VecSink,
};
use ripple_trace::BbTrace;
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

type Run = (SimStats, Vec<EvictionEvent>);

fn small_cfg(prefetcher: PrefetcherKind) -> SimConfig {
    let mut cfg = SimConfig::default();
    // Shrink the L1I so the tiny apps actually miss after warmup.
    cfg.l1i = CacheGeometry::new(1024, 2);
    cfg.prefetcher = prefetcher;
    cfg
}

/// `policy` on a fresh session and on the reference oracle, in that order.
fn session_and_reference(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    cfg: &SimConfig,
    policy: PolicyKind,
) -> (Run, Run) {
    let session = SimSession::new(program, layout, trace, cfg.clone());
    let mut sink = VecSink::new();
    let stats = session.run_with_sink(policy, &mut sink);
    let mut reference_sink = VecSink::new();
    let reference_stats =
        reference::simulate(program, layout, trace, cfg, policy, &mut reference_sink);
    (
        (stats, sink.into_events()),
        (reference_stats, reference_sink.into_events()),
    )
}

/// The OPT eviction schedule of a no-prefetch run, as scripted
/// invalidations sorted by position.
fn opt_script(program: &Program, layout: &Layout, trace: &BbTrace) -> Vec<(u64, LineAddr)> {
    let session = SimSession::new(program, layout, trace, small_cfg(PrefetcherKind::None));
    let mut sink = VecSink::new();
    session.run_with_sink(PolicyKind::OPT, &mut sink);
    let mut script: Vec<(u64, LineAddr)> = sink
        .events()
        .iter()
        .map(|e| (e.evict_pos, e.victim))
        .collect();
    script.sort_unstable_by_key(|&(p, _)| p);
    script
}

#[test]
fn session_and_reference_are_byte_identical() {
    for seed in [11, 29] {
        let app = generate(&AppSpec::tiny(seed));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(
            &app.program,
            &app.model,
            InputConfig::training(seed),
            30_000,
        );
        for prefetcher in [PrefetcherKind::NextLine, PrefetcherKind::Fdip] {
            for policy in [PolicyKind::LRU, PolicyKind::SRRIP, PolicyKind::DEMAND_MIN] {
                let cfg = small_cfg(prefetcher);
                let (fast, reference) =
                    session_and_reference(&app.program, &layout, &trace, &cfg, policy);
                assert_eq!(
                    fast.0,
                    reference.0,
                    "stats diverged: seed {seed}, {}, {}",
                    prefetcher.name(),
                    policy.name()
                );
                assert_eq!(
                    fast.1,
                    reference.1,
                    "eviction stream diverged: seed {seed}, {}, {}",
                    prefetcher.name(),
                    policy.name()
                );
                assert!(
                    !fast.1.is_empty(),
                    "equivalence must be over a non-trivial run"
                );
            }
        }
    }
}

#[test]
fn trrip_matches_reference_under_a_profile() {
    // TRRIP is the only policy whose decisions read the profiled
    // temperature map, so its hint path crosses the simulator/reference
    // boundary nowhere else in this file. Cycle every line through
    // hot/warm/cold (plus unprofiled gaps) and demand identical stats and
    // eviction streams from both.
    for seed in [13, 41] {
        let app = generate(&AppSpec::tiny(seed));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(
            &app.program,
            &app.model,
            InputConfig::training(seed),
            30_000,
        );
        let (lo, hi) = layout.line_bounds().expect("non-empty layout");
        let mut temps = TemperatureMap::new();
        for (i, line) in (lo.index()..=hi.index()).enumerate() {
            match i % 4 {
                0 => temps.set(LineAddr::new(line), Temperature::Hot),
                1 => temps.set(LineAddr::new(line), Temperature::Cold),
                2 => temps.set(LineAddr::new(line), Temperature::Warm),
                _ => {} // unprofiled: defaults to warm
            }
        }
        let temps = Arc::new(temps);
        for prefetcher in [PrefetcherKind::None, PrefetcherKind::Fdip] {
            let mut cfg = small_cfg(prefetcher);
            cfg.temperatures = Some(temps.clone());
            let (fast, reference) =
                session_and_reference(&app.program, &layout, &trace, &cfg, PolicyKind::TRRIP);
            assert_eq!(
                fast,
                reference,
                "trrip diverged: seed {seed}, {}",
                prefetcher.name()
            );
            assert!(
                !fast.1.is_empty(),
                "equivalence must be over a non-trivial run"
            );
        }
    }
}

#[test]
fn scripted_invalidations_match_reference() {
    // The scripted-oracle configuration exercises the invalidation lookup
    // (including unmapped-address fallbacks) on both implementations.
    let app = generate(&AppSpec::tiny(7));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(7), 30_000);
    let mut script = opt_script(&app.program, &layout, &trace);
    // An out-of-span line: both must treat it as never resident.
    script.push((0, LineAddr::new(3)));
    script.sort_unstable_by_key(|&(p, _)| p);

    let mut cfg = small_cfg(PrefetcherKind::None);
    cfg.scripted_invalidations = Some(Arc::new(script));
    let (fast, reference) =
        session_and_reference(&app.program, &layout, &trace, &cfg, PolicyKind::LRU);
    assert_eq!(fast, reference);
    assert!(fast.0.invalidate_hits > 0);
}

#[test]
fn scripted_invalidations_with_warmup_match_reference() {
    // Scripted invalidations combined with a nonzero warmup exercise the
    // stats gate on the script path in both implementations; the gate
    // must be identical (fixing it in one only would fail here).
    let app = generate(&AppSpec::tiny(7));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(7), 30_000);
    let script = Arc::new(opt_script(&app.program, &layout, &trace));

    let mut cfg = small_cfg(PrefetcherKind::NextLine);
    cfg.warmup_fraction = 0.4;
    cfg.scripted_invalidations = Some(script.clone());
    let (fast, reference) =
        session_and_reference(&app.program, &layout, &trace, &cfg, PolicyKind::LRU);
    assert_eq!(fast, reference);
    // The warmup prefix contains script entries, so the counted hits are a
    // strict subset of the schedule.
    assert!(fast.0.invalidate_hits > 0);
    assert!((fast.0.invalidate_hits as usize) < script.len());
}

#[test]
fn eviction_mechanisms_match_reference_on_injected_programs() {
    // Injected invalidate instructions are the only way the Demote/NoOp
    // mechanisms act; rewrite the program with a manual plan so both
    // implementations execute them.
    let app = generate(&AppSpec::tiny(11));
    let base_layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(11), 30_000);

    // Cue a handful of blocks to invalidate the first line of their
    // neighbours; rewrite() preserves BlockIds so the trace stays valid.
    let n = app.program.num_blocks() as u32;
    let mut plan = InjectionPlan::new();
    for i in 0..n.min(6) {
        plan.push(Injection {
            cue: BlockId::new(i),
            victim: CodeLoc::new(BlockId::new((i + 1) % n), 0),
        });
    }
    let rewritten = rewrite(&app.program, &base_layout, &plan);

    for mechanism in [
        EvictionMechanism::Invalidate,
        EvictionMechanism::Demote,
        EvictionMechanism::NoOp,
    ] {
        let mut cfg = small_cfg(PrefetcherKind::NextLine);
        cfg.eviction_mechanism = mechanism;
        let (fast, reference) = session_and_reference(
            &rewritten.program,
            &rewritten.layout,
            &trace,
            &cfg,
            PolicyKind::LRU,
        );
        assert_eq!(fast, reference, "{mechanism:?} diverged");
        assert!(fast.0.invalidate_instructions > 0);
        match mechanism {
            EvictionMechanism::Invalidate | EvictionMechanism::Demote => {
                assert!(fast.0.invalidate_hits > 0, "{mechanism:?} never hit")
            }
            EvictionMechanism::NoOp => assert_eq!(fast.0.invalidate_hits, 0),
        }
    }
}

/// The tiny app the pipeline tests train on, with its layout and a
/// 60k-block training trace.
fn pipeline_app() -> (Program, Layout, BbTrace) {
    let app = generate(&AppSpec::tiny(21));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(21), 60_000);
    (app.program, layout, trace)
}

fn pipeline_cfg(threads: Option<usize>) -> RippleConfig {
    let mut cfg = RippleConfig::default();
    // Shrink the L1I so the tiny app thrashes it, and drop the recurrence
    // filter (tiny traces rarely repeat pairs).
    cfg.sim.l1i = CacheGeometry::new(2 * 1024, 4);
    cfg.analysis.min_windows_per_injection = 1;
    cfg.threshold = 0.1;
    cfg.threads = threads;
    cfg
}

/// Trains and evaluates Ripple on the pipeline app, then asserts that the
/// outcome's three runs of the original binary — the baseline (underlying
/// policy), the ideal oracle and the LRU reference, all made through the
/// production session — each equal the reference oracle on the same
/// configuration.
fn pipeline_outcome_checked(threads: Option<usize>) -> RippleOutcome {
    let (program, layout, trace) = pipeline_app();
    let cfg = pipeline_cfg(threads);
    let (sim, underlying, oracle) = (cfg.sim.clone(), cfg.underlying, cfg.oracle());
    let ripple = Ripple::train(&program, &layout, &trace, cfg).expect("train");
    let outcome = ripple.evaluate(&trace).expect("evaluate");
    assert!(
        outcome.ripple.invalidate_instructions > 0,
        "non-trivial run"
    );

    let reference = |policy: PolicyKind| {
        reference::simulate(&program, &layout, &trace, &sim, policy, &mut NullSink)
    };
    assert_eq!(outcome.baseline, reference(underlying), "baseline");
    assert_eq!(outcome.ideal, reference(oracle), "ideal");
    assert_eq!(
        outcome.lru_reference,
        reference(PolicyKind::LRU),
        "lru_reference"
    );
    outcome
}

#[test]
fn pipeline_original_binary_runs_match_reference() {
    pipeline_outcome_checked(Some(1));
}

#[test]
fn pipeline_equivalence_holds_under_parallel_evaluation() {
    // Parallel evaluation must neither change the outcome nor move its
    // original-binary runs off the reference.
    let serial = pipeline_outcome_checked(Some(1));
    let parallel = pipeline_outcome_checked(Some(4));
    assert_eq!(serial, parallel);
}

#[test]
fn pipeline_window_choices_match_reference_scan() {
    // The dense cue scan over the pipeline's own oracle windows (the
    // original binary, the pipeline's simulator configuration) must pick
    // the same candidates as the map-based reference scan, window by
    // window.
    let (program, layout, trace) = pipeline_app();
    let cfg = pipeline_cfg(Some(1));
    let session = SimSession::new(&program, &layout, &trace, cfg.sim.clone());
    let mut sink = WindowSink::new();
    session.run_with_sink(cfg.oracle(), &mut sink);
    let windows = sink.into_windows();
    assert!(!windows.is_empty(), "the oracle must evict something");

    let dense = analyze_windows(&program, &layout, &trace, windows.clone(), &cfg.analysis);
    let reference = reference::analyze_choices(&program, &layout, &trace, &windows, &cfg.analysis);
    assert_eq!(dense.windows(), windows.as_slice());
    assert_eq!(dense.choices(), reference.as_slice());
    assert!(
        reference.iter().any(|c| !c.candidates.is_empty()),
        "some window must have a cue candidate"
    );
}

#[test]
fn offline_ideals_match_reference_without_prefetching() {
    // With no prefetcher, OPT and Demand-MIN take the reference's offline
    // route (LRU record, hash-keyed future index, verified replay) on a
    // stream of demand fetches only; a warmup prefix must be gated
    // identically on both sides.
    for seed in [5, 17] {
        let app = generate(&AppSpec::tiny(seed));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(
            &app.program,
            &app.model,
            InputConfig::training(seed),
            30_000,
        );
        for warmup in [0.0, 0.3] {
            for policy in [PolicyKind::OPT, PolicyKind::DEMAND_MIN] {
                let mut cfg = small_cfg(PrefetcherKind::None);
                cfg.warmup_fraction = warmup;
                let (fast, reference) =
                    session_and_reference(&app.program, &layout, &trace, &cfg, policy);
                assert_eq!(
                    fast,
                    reference,
                    "seed {seed}, warmup {warmup}, {}",
                    policy.name()
                );
                assert!(
                    !fast.1.is_empty(),
                    "equivalence must be over a non-trivial run"
                );
            }
        }
    }
}
