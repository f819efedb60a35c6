//! Byte-identical equivalence between the simulator's own execution
//! routes.
//!
//! An online policy either runs the single-pass frontend or, once its
//! session holds a captured request stream, replays that capture; and a
//! session may build its fetch plan from scratch or splice it from a
//! previous round's [`PlanCache`](ripple_sim::PlanCache). Every route must
//! produce identical [`SimStats`](ripple_sim::SimStats) *and* an identical
//! eviction-event stream. (Equivalence against the pre-interning reference
//! frontend lives with that oracle in `ripple-check`.)

use ripple_program::{rewrite, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LayoutConfig};
use ripple_sim::{CacheGeometry, PolicyKind, PrefetcherKind, SimConfig, SimSession, VecSink};
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

fn small_cfg(prefetcher: PrefetcherKind) -> SimConfig {
    let mut cfg = SimConfig::default();
    // Shrink the L1I so the tiny apps actually miss after warmup.
    cfg.l1i = CacheGeometry::new(1024, 2);
    cfg.prefetcher = prefetcher;
    cfg
}

#[test]
fn replayed_policies_match_fresh_single_pass_runs() {
    // Once a session holds a captured stream, online policies replay it
    // through the columnar fast path instead of re-running the frontend.
    // The replay must be byte-identical to a fresh single-pass run for
    // every registered policy; the PC-indexed ones (GHRP, Hawkeye) only
    // pass if the replay reproduces the exact demand and prefetch PCs,
    // including FDIP prefetches issued from *predicted* blocks.
    let app = generate(&AppSpec::tiny(17));
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(17), 30_000);
    for prefetcher in [PrefetcherKind::NextLine, PrefetcherKind::Fdip] {
        let cfg = small_cfg(prefetcher);
        let recorded = SimSession::new(&app.program, &layout, &trace, cfg.clone());
        recorded.ensure_recorded();
        for policy in PolicyKind::all() {
            let mut replay_sink = VecSink::new();
            let replay_stats = recorded.run_with_sink(policy, &mut replay_sink);

            let fresh = SimSession::new(&app.program, &layout, &trace, cfg.clone());
            let mut fresh_sink = VecSink::new();
            let fresh_stats = fresh.run_with_sink(policy, &mut fresh_sink);

            assert_eq!(
                replay_stats,
                fresh_stats,
                "stats diverged: {}, {}",
                prefetcher.name(),
                policy.name()
            );
            assert_eq!(
                replay_sink.into_events(),
                fresh_sink.into_events(),
                "eviction stream diverged: {}, {}",
                prefetcher.name(),
                policy.name()
            );
        }
        assert_eq!(
            recorded.recording_passes(),
            1,
            "all replays must share the one capture"
        );
    }
}

#[test]
fn spliced_fetch_plans_match_full_builds_after_rewrite() {
    // Incremental relinking reuses a previous round's per-function line
    // lists for functions whose block-size signature is unchanged. The
    // spliced plan must equal a from-scratch build on the rewritten
    // layout, and a session constructed from the cache must be
    // byte-identical to one built fresh.
    use ripple_sim::{FetchPlan, LineTable};

    let app = generate(&AppSpec::tiny(23));
    let base_layout = Layout::new(&app.program, &LayoutConfig::default());
    let trace = execute(&app.program, &app.model, InputConfig::training(23), 30_000);
    let cfg = small_cfg(PrefetcherKind::NextLine);

    let base_session = SimSession::new(&app.program, &base_layout, &trace, cfg.clone());
    let cache = base_session.plan_cache();

    // Dirty a handful of functions with injected invalidate prefixes; the
    // rest must be spliced, shifted by each function's start-line delta.
    let n = app.program.num_blocks() as u32;
    let mut plan = InjectionPlan::new();
    for i in 0..n.min(5) {
        plan.push(Injection {
            cue: BlockId::new((i * 2) % n),
            victim: CodeLoc::new(BlockId::new((i + 3) % n), 0),
        });
    }
    let rewritten = rewrite(&app.program, &base_layout, &plan);

    let table = LineTable::build(&rewritten.layout);
    let full = FetchPlan::build(&rewritten.program, &rewritten.layout, &table);
    let spliced =
        FetchPlan::build_cached(&rewritten.program, &rewritten.layout, &table, Some(&cache));
    assert_eq!(full, spliced, "spliced plan diverged from full build");

    for policy in [PolicyKind::LRU, PolicyKind::DEMAND_MIN] {
        let fresh = SimSession::new(&rewritten.program, &rewritten.layout, &trace, cfg.clone());
        let cached = SimSession::new_cached(
            &rewritten.program,
            &rewritten.layout,
            &trace,
            cfg.clone(),
            Some(&cache),
        );
        let mut fresh_sink = VecSink::new();
        let mut cached_sink = VecSink::new();
        let fresh_stats = fresh.run_with_sink(policy, &mut fresh_sink);
        let cached_stats = cached.run_with_sink(policy, &mut cached_sink);
        assert_eq!(fresh_stats, cached_stats, "{} diverged", policy.name());
        assert_eq!(fresh_sink.into_events(), cached_sink.into_events());
    }
}
