//! Byte-identical equivalence between the simulator's own execution
//! routes.
//!
//! An online policy either runs the single-pass frontend or, once its
//! session holds a captured request stream, replays that capture. Both
//! routes must produce identical [`SimStats`](ripple_sim::SimStats) *and*
//! an identical eviction-event stream. (Equivalence against the pre-interning reference
//! frontend lives with that oracle in `ripple-check`.)

use ripple_program::{Layout, LayoutConfig};
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
