//! The trace-driven simulation engine.
//!
//! Online policies run in a single pass. Offline-ideal policies (OPT,
//! Demand-MIN) run in two: a recording pass captures the L1I request
//! stream — which is replacement-policy-independent, because prefetcher
//! and branch-predictor state never observe cache contents — a
//! [`FutureIndex`] is built from it, and the replay pass re-runs the
//! frontend with the oracle policy.
//!
//! [`SimSession`] makes that recording pass *shared*: it captures the
//! request stream and its [`FutureIndex`] at most once per
//! (program, layout, trace, config) and replays arbitrary policies against
//! it, so a policy matrix pays for recording once instead of once per
//! oracle run. Sessions are `Sync`; one session can serve replays from many
//! threads concurrently.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use ripple_obs::{time_phase, FieldValue, NullRecorder, PhaseTimer, Recorder};
use ripple_program::{Layout, Program};
use ripple_trace::{BbTrace, TraceHealth};

use crate::config::{LinePath, PolicyKind, SimConfig};
use crate::frontend::Frontend;
use crate::intern::{FetchPlan, LineTable, PlanCache};
use crate::policy::{
    build_ideal_policy, build_policy, DemandMinPolicy, FutureIndex, LruPolicy, OptPolicy,
    ReplacementPolicy, StreamRecord,
};
use crate::reference::ReferenceFrontend;
use crate::replay::{CaptureFrontend, ColumnarStream, ReplayFrontend, StreamLimitError};
use crate::sink::{EvictionSink, NullSink};
use crate::stats::SimStats;

/// The policy-independent artifacts of a recording pass.
enum RecordedStream {
    /// Interned path: the bit-packed columnar capture. Every policy —
    /// oracle or online — replays it through [`ReplayFrontend`].
    Columnar {
        stream: ColumnarStream,
        future: Arc<FutureIndex>,
    },
    /// Reference path: the legacy materialized stream, kept verbatim as
    /// the equivalence oracle (replays re-derive the stream and verify
    /// against it).
    Reference {
        stream: Vec<StreamRecord>,
        future: Arc<FutureIndex>,
    },
}

/// A reusable simulation context over one (program, layout, trace, config).
///
/// The session replays any [`PolicyKind`] against the same inputs. For
/// offline-ideal policies it records the L1I request stream lazily, exactly
/// once, and shares the resulting [`FutureIndex`] across replays — including
/// concurrent replays from multiple threads, since `&self` suffices to run.
///
/// The per-run policy overrides `config.policy`; everything else in the
/// config (geometry, prefetcher, eviction mechanism, scripted
/// invalidations) is fixed for the session's lifetime. The recorded stream
/// is valid for every policy because the request stream only depends on the
/// trace, the layout and the prefetcher — never on cache contents.
///
/// # Examples
///
/// ```
/// use ripple_program::{Layout, LayoutConfig};
/// use ripple_sim::{PolicyKind, SimConfig, SimSession};
/// use ripple_workloads::{execute, generate, AppSpec, InputConfig};
///
/// let app = generate(&AppSpec::tiny(1));
/// let layout = Layout::new(&app.program, &LayoutConfig::default());
/// let trace = execute(&app.program, &app.model, InputConfig::training(1), 20_000);
///
/// let session = SimSession::new(&app.program, &layout, &trace, SimConfig::default());
/// let lru = session.run(PolicyKind::LRU);
/// let opt = session.run(PolicyKind::OPT);
/// let demand_min = session.run(PolicyKind::DEMAND_MIN);
/// assert!(opt.demand_misses <= lru.demand_misses);
/// assert!(demand_min.demand_misses <= lru.demand_misses);
/// // Both oracle replays shared one recording pass.
/// assert_eq!(session.recording_passes(), 1);
/// ```
pub struct SimSession<'a> {
    program: &'a Program,
    layout: &'a Layout,
    trace: &'a BbTrace,
    config: SimConfig,
    /// Dense interning of this layout's reachable lines, built once per
    /// session and shared by every run (plain data, so the session stays
    /// `Sync`).
    table: LineTable,
    /// Precomputed block → interned-lines fetch plan over `table`.
    plan: FetchPlan,
    recorded: OnceLock<Result<RecordedStream, StreamLimitError>>,
    /// The steady-state L3 pre-warm every columnar replay starts from,
    /// built lazily on the first replay and cloned into each run.
    l3_seed: OnceLock<crate::cache::Cache<LruPolicy>>,
    recording_passes: AtomicU32,
    /// Observability sink; [`NullRecorder`] (the default) keeps every
    /// instrumented seam on its free path.
    recorder: Arc<dyn Recorder>,
    /// Decode-health of the input trace when it came through the lossy
    /// decoder; stamped onto every run's stats and gauges.
    trace_health: Option<TraceHealth>,
}

impl std::fmt::Debug for SimSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("trace_len", &self.trace.len())
            .field("config", &self.config)
            .field("recording_passes", &self.recording_passes())
            .finish_non_exhaustive()
    }
}

impl<'a> SimSession<'a> {
    /// Creates a session; no simulation happens until a run is requested.
    pub fn new(
        program: &'a Program,
        layout: &'a Layout,
        trace: &'a BbTrace,
        config: SimConfig,
    ) -> Self {
        Self::new_cached(program, layout, trace, config, None)
    }

    /// [`SimSession::new`], splicing the fetch plan from a previous
    /// session's [`PlanCache`] where per-function layout hashes match
    /// (identical plans either way; see [`FetchPlan::build_cached`]).
    pub fn new_cached(
        program: &'a Program,
        layout: &'a Layout,
        trace: &'a BbTrace,
        config: SimConfig,
        prev: Option<&PlanCache>,
    ) -> Self {
        let table = LineTable::build(layout);
        let plan = FetchPlan::build_cached(program, layout, &table, prev);
        SimSession {
            program,
            layout,
            trace,
            config,
            table,
            plan,
            recorded: OnceLock::new(),
            l3_seed: OnceLock::new(),
            recording_passes: AtomicU32::new(0),
            recorder: Arc::new(NullRecorder),
            trace_health: None,
        }
    }

    /// Attaches the decode-health of the session's trace (as produced by
    /// `reconstruct_trace_lossy`). Every run stamps
    /// [`SimStats::dropped_packets`] / [`SimStats::resync_events`] from it
    /// and, when a recorder is attached, reports the
    /// `trace.dropped_packets` / `trace.resync_events` gauges — so a run
    /// over a degraded trace is visibly degraded in its outputs.
    pub fn with_trace_health(mut self, health: TraceHealth) -> Self {
        self.trace_health = Some(health);
        self
    }

    /// The attached trace decode-health, if any.
    pub fn trace_health(&self) -> Option<TraceHealth> {
        self.trace_health
    }

    /// Attaches an observability recorder; subsequent runs report
    /// `session.*` and `frontend.*` phases into it. Recorders observe
    /// only — simulation outputs stay byte-identical (the determinism
    /// suite asserts this).
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached observability recorder ([`NullRecorder`] by default).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The session's configuration (its `policy` field is the default for
    /// [`SimSession::run`] calls and is otherwise inert).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The program being simulated.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The layout being simulated.
    pub fn layout(&self) -> &'a Layout {
        self.layout
    }

    /// The trace being simulated.
    pub fn trace(&self) -> &'a BbTrace {
        self.trace
    }

    /// Extracts this session's reusable interning artifacts, to seed a
    /// later session over a re-linked layout via
    /// [`SimSession::new_cached`].
    pub fn plan_cache(&self) -> PlanCache {
        PlanCache::capture(self.program, self.layout, &self.table, &self.plan)
    }

    /// Simulates under `policy`, discarding evictions.
    ///
    /// # Panics
    ///
    /// Panics if the trace produces more cache requests than the columnar
    /// capture can index (≥ `u32::MAX` records); use
    /// [`SimSession::try_run`] to handle that as a typed error.
    pub fn run(&self, policy: PolicyKind) -> SimStats {
        self.run_with_sink(policy, &mut NullSink)
    }

    /// Simulates under `policy`, streaming every L1I eviction into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if the trace produces more cache requests than the columnar
    /// capture can index (≥ `u32::MAX` records); use
    /// [`SimSession::try_run_with_sink`] to handle that as a typed error.
    pub fn run_with_sink(&self, policy: PolicyKind, sink: &mut dyn EvictionSink) -> SimStats {
        // The panic is the documented contract; the try_* entry points
        // exist for callers that want the typed error instead.
        #[allow(clippy::expect_used)]
        self.try_run_with_sink(policy, sink)
            .expect("request stream exceeds the columnar capture's u32 capacity")
    }

    /// [`SimSession::run`], returning a typed [`StreamLimitError`] instead
    /// of panicking when the trace produces more cache requests than the
    /// columnar capture can index.
    pub fn try_run(&self, policy: PolicyKind) -> Result<SimStats, StreamLimitError> {
        self.try_run_with_sink(policy, &mut NullSink)
    }

    /// [`SimSession::run_with_sink`], returning a typed
    /// [`StreamLimitError`] instead of panicking when the trace produces
    /// more cache requests than the columnar capture can index.
    pub fn try_run_with_sink(
        &self,
        policy: PolicyKind,
        sink: &mut dyn EvictionSink,
    ) -> Result<SimStats, StreamLimitError> {
        let timer = PhaseTimer::start(&*self.recorder);
        let cfg = self.config.clone().with_policy(policy);
        let mut stats = if policy.is_offline_ideal() {
            match self.recorded()? {
                RecordedStream::Columnar { stream, future } => {
                    // Monomorphized for the two known oracles so the
                    // policy callbacks inline into the replay loop.
                    if policy == PolicyKind::OPT {
                        let oracle = Box::new(OptPolicy::new(cfg.l1i, future.clone()));
                        self.run_replay(&cfg, oracle, stream, sink)
                    } else if policy == PolicyKind::DEMAND_MIN {
                        let oracle = Box::new(DemandMinPolicy::new(cfg.l1i, future.clone()));
                        self.run_replay(&cfg, oracle, stream, sink)
                    } else {
                        let oracle = build_ideal_policy(policy, cfg.l1i, future.clone());
                        self.run_replay(&cfg, oracle, stream, sink)
                    }
                }
                RecordedStream::Reference { stream, future } => {
                    let oracle = build_ideal_policy(policy, cfg.l1i, future.clone());
                    self.run_frontend(&cfg, oracle, false, Some(stream), sink).0
                }
            }
        } else if let Some(Ok(RecordedStream::Columnar { stream, .. })) = self.recorded.get() {
            // Online policy with a capture already in hand: replay it
            // (byte-identical to a fresh frontend pass, minus the fetch
            // plan, predictor and filter).
            self.run_replay(&cfg, build_policy(&cfg), stream, sink)
        } else {
            // No capture yet, a reference recording (which does not replay
            // online policies), or a failed capture: the single-pass
            // frontend, which has no u32 position limit.
            self.run_frontend(&cfg, build_policy(&cfg), false, None, sink)
                .0
        };
        if let Some(health) = self.trace_health {
            stats.dropped_packets = health.dropped_packets;
            stats.resync_events = health.resync_events;
        }
        if self.recorder.enabled() {
            if let Some(health) = self.trace_health {
                self.recorder
                    .gauge("trace.dropped_packets", health.dropped_packets as f64);
                self.recorder
                    .gauge("trace.resync_events", health.resync_events as f64);
            }
            self.recorder.add("session.runs", 1);
            self.recorder.event(
                "session.run",
                &[
                    ("policy", FieldValue::Str(policy.name())),
                    ("blocks", FieldValue::U64(stats.blocks)),
                ],
            );
            timer.finish(&*self.recorder, "session.run");
        }
        Ok(stats)
    }

    /// Runs one frontend pass, dispatching on the configured
    /// [`LinePath`]. Both paths are byte-identical in their outputs; the
    /// reference path exists as the equivalence oracle and performance
    /// baseline.
    fn run_frontend(
        &self,
        cfg: &SimConfig,
        l1i_policy: Box<dyn ReplacementPolicy>,
        record: bool,
        verify: Option<&[StreamRecord]>,
        sink: &mut dyn EvictionSink,
    ) -> (SimStats, Option<Vec<StreamRecord>>) {
        match cfg.line_path {
            LinePath::Interned => Frontend::new(
                self.program,
                self.layout,
                cfg,
                &self.table,
                &self.plan,
                l1i_policy,
                record,
                verify,
                sink,
                &*self.recorder,
            )
            .run(self.trace.iter()),
            LinePath::Reference => ReferenceFrontend::new(
                self.program,
                self.layout,
                cfg,
                l1i_policy,
                record,
                verify,
                sink,
                &*self.recorder,
            )
            .run(self.trace.iter()),
        }
    }

    /// Statistics for the paper's *ideal I-cache* (no misses at all).
    pub fn run_ideal_cache(&self) -> SimStats {
        simulate_ideal_cache(self.program, self.trace, &self.config)
    }

    /// How many frontend recording passes this session has performed
    /// (0 before any oracle replay, never more than 1 after).
    pub fn recording_passes(&self) -> u32 {
        self.recording_passes.load(Ordering::Acquire)
    }

    /// Forces the shared recording pass (and its [`FutureIndex`]) to run
    /// now; it otherwise happens lazily on the first offline-ideal
    /// replay. Lets callers pay the pass up front — before spawning
    /// replay threads, or to time recording and replay separately.
    ///
    /// # Panics
    ///
    /// Panics if the trace produces more cache requests than the columnar
    /// capture can index; use [`SimSession::try_ensure_recorded`] to
    /// handle that as a typed error.
    pub fn ensure_recorded(&self) {
        // The panic is the documented contract; try_ensure_recorded is the
        // fallible variant.
        #[allow(clippy::expect_used)]
        self.try_ensure_recorded()
            .expect("request stream exceeds the columnar capture's u32 capacity")
    }

    /// [`SimSession::ensure_recorded`], returning a typed
    /// [`StreamLimitError`] instead of panicking when the trace produces
    /// more cache requests than the capture's `u32` positions can index.
    pub fn try_ensure_recorded(&self) -> Result<(), StreamLimitError> {
        self.recorded().map(|_| ())
    }

    fn recorded(&self) -> Result<&RecordedStream, StreamLimitError> {
        self.recorded
            .get_or_init(|| {
                self.recording_passes.fetch_add(1, Ordering::AcqRel);
                self.recorder.add("session.recording_passes", 1);
                match self.config.line_path {
                    LinePath::Interned => {
                        // The request stream never reads cache contents, so
                        // the capture pass runs no cache model at all: one
                        // walk through the predictor and prefetch filter,
                        // bit-packed as it goes. A trace beyond the u32
                        // record capacity surfaces here, at record time,
                        // and the error is cached like a successful pass.
                        let stream = time_phase(&*self.recorder, "session.record", || {
                            CaptureFrontend::new(
                                self.program,
                                self.layout,
                                &self.config,
                                &self.table,
                                &self.plan,
                                &*self.recorder,
                            )
                            .run(self.trace.iter())
                        })?;
                        let future = time_phase(&*self.recorder, "session.future_index", || {
                            FutureIndex::build_packed(&stream.packed, self.table.len())
                        });
                        Ok(RecordedStream::Columnar { stream, future })
                    }
                    LinePath::Reference => {
                        // The recording policy is irrelevant to the captured
                        // stream; LRU is the cheapest throwaway.
                        let cfg = self.config.clone().with_policy(PolicyKind::LRU);
                        let mut sink = NullSink;
                        let (_, stream) = time_phase(&*self.recorder, "session.record", || {
                            self.run_frontend(
                                &cfg,
                                Box::new(LruPolicy::new(cfg.l1i)),
                                true,
                                None,
                                &mut sink,
                            )
                        });
                        // `run_frontend` with `record = true` always returns a
                        // stream.
                        #[allow(clippy::expect_used)]
                        let stream = stream.expect("recording pass returns a stream");
                        let future = time_phase(&*self.recorder, "session.future_index", || {
                            FutureIndex::build(&stream)
                        });
                        Ok(RecordedStream::Reference { stream, future })
                    }
                }
            })
            .as_ref()
            .map_err(|&e| e)
    }

    /// Replays the captured columnar stream under `l1i_policy`.
    fn run_replay<P: ?Sized + ReplacementPolicy>(
        &self,
        cfg: &SimConfig,
        l1i_policy: Box<P>,
        stream: &ColumnarStream,
        sink: &mut dyn EvictionSink,
    ) -> SimStats {
        // The steady-state L3 pre-warm only depends on session-level state
        // (program, plan, geometry — never the policy), so it is built on
        // the first replay and cloned into later ones instead of re-running
        // the O(blocks × lines) fill loop per run.
        let l3_seed = self.l3_seed.get_or_init(|| {
            crate::replay::prewarm_l3(self.program, &self.table, &self.plan, &self.config)
        });
        if self.recorder.enabled() {
            // Each replay clones the shared L3 seed exactly once.
            self.recorder.add("session.l3_seed_clones", 1);
        }
        ReplayFrontend::new(
            self.layout,
            cfg,
            &self.table,
            stream,
            l3_seed.clone(),
            l1i_policy,
            sink,
            &*self.recorder,
        )
        .run(self.trace.iter())
    }
}

/// Simulates `trace` of `program` under `config`, discarding evictions.
///
/// One-shot convenience over [`SimSession`]; when running several policies
/// on the same inputs, build a session instead so oracle replays share the
/// recording pass.
///
/// # Examples
///
/// ```
/// use ripple_program::{Layout, LayoutConfig};
/// use ripple_sim::{simulate, PolicyKind, SimConfig};
/// use ripple_workloads::{execute, generate, AppSpec, InputConfig};
///
/// let app = generate(&AppSpec::tiny(1));
/// let layout = Layout::new(&app.program, &LayoutConfig::default());
/// let trace = execute(&app.program, &app.model, InputConfig::training(1), 20_000);
///
/// let lru = simulate(&app.program, &layout, &trace, &SimConfig::default());
/// let opt = simulate(
///     &app.program,
///     &layout,
///     &trace,
///     &SimConfig::default().with_policy(PolicyKind::OPT),
/// );
/// assert!(opt.demand_misses <= lru.demand_misses);
/// ```
pub fn simulate(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    config: &SimConfig,
) -> SimStats {
    simulate_with_sink(program, layout, trace, config, &mut NullSink)
}

/// Simulates `trace` of `program` under `config`, streaming every L1I
/// eviction into `sink`.
pub fn simulate_with_sink(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    config: &SimConfig,
    sink: &mut dyn EvictionSink,
) -> SimStats {
    SimSession::new(program, layout, trace, config.clone()).run_with_sink(config.policy, sink)
}

/// Statistics for the paper's *ideal I-cache* (no misses at all): every
/// fetch hits, so cycles are purely `instructions × base_cpi`. This is
/// the Fig. 1 upper bound.
pub fn simulate_ideal_cache(program: &Program, trace: &BbTrace, config: &SimConfig) -> SimStats {
    let warmup = (trace.len() as f64 * config.warmup_fraction.clamp(0.0, 0.9)) as usize;
    let mut stats = SimStats {
        blocks: (trace.len() - warmup) as u64,
        ..SimStats::default()
    };
    for block in trace.iter().skip(warmup) {
        let bb = program.block(block);
        stats.instructions += bb.original_instructions().len() as u64;
        stats.invalidate_instructions += u64::from(bb.injected_prefix_len());
    }
    let total = stats.instructions + stats.invalidate_instructions;
    stats.cycles = total as f64 * config.base_cpi;
    stats
}

/// Convenience: run the baseline configuration (LRU, chosen prefetcher)
/// and an ideal-replacement configuration, returning `(baseline, ideal)`.
///
/// The ideal oracle is prefetch-aware ([`PolicyKind::DEMAND_MIN`]) whenever
/// a prefetcher is active, matching §II-C, and plain OPT otherwise.
pub fn baseline_and_ideal(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    config: &SimConfig,
) -> (SimStats, SimStats) {
    let session = SimSession::new(program, layout, trace, config.clone());
    (
        session.run(PolicyKind::LRU),
        session.run(ideal_policy_for(config.prefetcher)),
    )
}

/// The ideal oracle matching a prefetcher configuration: prefetch-aware
/// Demand-MIN when prefetching is active, plain OPT otherwise (§II-C).
pub fn ideal_policy_for(prefetcher: crate::config::PrefetcherKind) -> PolicyKind {
    if prefetcher == crate::config::PrefetcherKind::None {
        PolicyKind::OPT
    } else {
        PolicyKind::DEMAND_MIN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetcherKind;
    use crate::sink::VecSink;
    use ripple_program::LayoutConfig;
    use ripple_workloads::{execute, generate, AppSpec, InputConfig};

    fn small_setup() -> (ripple_program::Program, Layout, BbTrace) {
        let app = generate(&AppSpec::tiny(5));
        let layout = Layout::new(&app.program, &LayoutConfig::default());
        let trace = execute(&app.program, &app.model, InputConfig::training(5), 40_000);
        (app.program, layout, trace)
    }

    /// The tiny app fits in a 32 KB L1I; shrink it so misses happen after
    /// warmup.
    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.l1i = crate::config::CacheGeometry::new(1024, 2);
        cfg
    }

    #[test]
    fn lru_simulation_produces_sane_stats() {
        let (p, l, t) = small_setup();
        let stats = simulate(&p, &l, &t, &SimConfig::default());
        // Statistics only accumulate after the warmup fraction.
        let warmup = (t.len() as f64 * SimConfig::default().warmup_fraction) as u64;
        assert_eq!(stats.blocks, t.len() as u64 - warmup);
        assert!(stats.instructions >= 40_000 / 2);
        assert!(stats.demand_accesses > 0);
        assert!(stats.demand_misses <= stats.demand_accesses);
        assert!(stats.cycles > 0.0);
        assert!(stats.ipc() > 0.0);
    }

    #[test]
    fn opt_never_loses_to_lru() {
        let (p, l, t) = small_setup();
        let lru = simulate(&p, &l, &t, &small_cfg());
        let opt = simulate(&p, &l, &t, &small_cfg().with_policy(PolicyKind::OPT));
        assert!(opt.demand_misses <= lru.demand_misses);
        assert!(lru.demand_misses > 0, "workload must miss");
    }

    #[test]
    fn prefetching_reduces_misses() {
        let (p, l, t) = small_setup();
        let none = simulate(&p, &l, &t, &small_cfg());
        let nlp = simulate(
            &p,
            &l,
            &t,
            &small_cfg().with_prefetcher(PrefetcherKind::NextLine),
        );
        let fdip = simulate(
            &p,
            &l,
            &t,
            &small_cfg().with_prefetcher(PrefetcherKind::Fdip),
        );
        assert!(nlp.demand_misses < none.demand_misses);
        assert!(fdip.demand_misses < none.demand_misses);
        assert!(nlp.prefetches_issued > 0);
        assert!(fdip.prefetches_issued > 0);
    }

    #[test]
    fn demand_min_never_loses_to_lru_under_prefetching() {
        let (p, l, t) = small_setup();
        for pf in [PrefetcherKind::NextLine, PrefetcherKind::Fdip] {
            let cfg = small_cfg().with_prefetcher(pf);
            let lru = simulate(&p, &l, &t, &cfg);
            let dm = simulate(&p, &l, &t, &cfg.clone().with_policy(PolicyKind::DEMAND_MIN));
            assert!(
                dm.demand_misses <= lru.demand_misses,
                "{}: {} > {}",
                pf.name(),
                dm.demand_misses,
                lru.demand_misses
            );
        }
    }

    #[test]
    fn ideal_cache_bounds_everything() {
        let (p, l, t) = small_setup();
        let cfg = small_cfg();
        let ideal = simulate_ideal_cache(&p, &t, &cfg);
        let lru = simulate(&p, &l, &t, &cfg);
        assert!(ideal.cycles < lru.cycles);
        assert_eq!(ideal.demand_misses, 0);
        assert_eq!(ideal.instructions, lru.instructions);
    }

    #[test]
    fn eviction_sink_receives_ordered_log() {
        let (p, l, t) = small_setup();
        let cfg = small_cfg();
        let mut sink = VecSink::new();
        let stats = simulate_with_sink(&p, &l, &t, &cfg, &mut sink);
        let log = sink.into_events();
        // The log records warmup evictions too (the analysis wants them);
        // the counter only accumulates post-warmup.
        assert!(log.len() as u64 >= stats.evictions);
        assert!(!log.is_empty());
        for w in log.windows(2) {
            assert!(w[0].evict_pos <= w[1].evict_pos, "log must be ordered");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (p, l, t) = small_setup();
        let cfg = small_cfg().with_prefetcher(PrefetcherKind::Fdip);
        let a = simulate(&p, &l, &t, &cfg);
        let b = simulate(&p, &l, &t, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_and_ideal_picks_demand_min_under_prefetching() {
        let (p, l, t) = small_setup();
        let cfg = small_cfg().with_prefetcher(PrefetcherKind::Fdip);
        let (base, ideal) = baseline_and_ideal(&p, &l, &t, &cfg);
        assert!(ideal.demand_misses <= base.demand_misses);
    }

    #[test]
    fn session_shares_one_recording_pass() {
        let (p, l, t) = small_setup();
        let session = SimSession::new(&p, &l, &t, small_cfg());
        assert_eq!(session.recording_passes(), 0);
        let opt = session.run(PolicyKind::OPT);
        assert_eq!(session.recording_passes(), 1);
        let dm = session.run(PolicyKind::DEMAND_MIN);
        let opt_again = session.run(PolicyKind::OPT);
        // Replaying a second (and third) oracle performed no new recording.
        assert_eq!(session.recording_passes(), 1);
        assert_eq!(opt, opt_again);
        assert!(dm.demand_accesses > 0);
    }

    #[test]
    fn session_matches_one_shot_simulate() {
        let (p, l, t) = small_setup();
        let cfg = small_cfg().with_prefetcher(PrefetcherKind::Fdip);
        let session = SimSession::new(&p, &l, &t, cfg.clone());
        for kind in [
            PolicyKind::LRU,
            PolicyKind::SRRIP,
            PolicyKind::OPT,
            PolicyKind::DEMAND_MIN,
        ] {
            let one_shot = simulate(&p, &l, &t, &cfg.clone().with_policy(kind));
            assert_eq!(session.run(kind), one_shot, "{}", kind.name());
        }
    }

    #[test]
    fn trace_health_is_stamped_onto_stats_and_gauges() {
        let (p, l, t) = small_setup();
        let health = TraceHealth {
            total_bytes: 1000,
            dropped_bytes: 40,
            dropped_packets: 7,
            resync_events: 2,
        };
        let metrics = Arc::new(ripple_obs::MetricsRecorder::new());
        let session = SimSession::new(&p, &l, &t, small_cfg())
            .with_trace_health(health)
            .with_recorder(metrics.clone());
        let stats = session.run(PolicyKind::LRU);
        assert_eq!(stats.dropped_packets, 7);
        assert_eq!(stats.resync_events, 2);
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("trace.dropped_packets"), Some(7.0));
        assert_eq!(snap.gauge("trace.resync_events"), Some(2.0));

        // Without attached health, the fields stay zero (lossless runs are
        // indistinguishable from pre-lossy behaviour).
        let plain = SimSession::new(&p, &l, &t, small_cfg()).run(PolicyKind::LRU);
        assert_eq!(plain.dropped_packets, 0);
        assert_eq!(plain.resync_events, 0);
        // Health stamping never perturbs the simulation itself.
        assert_eq!(
            SimStats {
                dropped_packets: 0,
                resync_events: 0,
                ..stats
            },
            plain
        );
    }

    /// A scripted-invalidation plan over real interned lines, exercising
    /// the replay's invalidation cursor.
    fn small_script(layout: &Layout, trace: &BbTrace) -> Vec<(u64, ripple_program::LineAddr)> {
        let table = crate::intern::LineTable::build(layout);
        let mut script: Vec<(u64, ripple_program::LineAddr)> = (0..200u64)
            .map(|i| {
                let pos = (i * 37) % trace.len() as u64;
                let id = crate::LineId::new((i % u64::from(table.len())) as u32);
                (pos, table.line(id))
            })
            .collect();
        script.sort_by_key(|&(pos, _)| pos);
        script
    }

    #[test]
    fn replay_from_capture_is_byte_identical_to_fresh_frontend() {
        // An online policy runs the single-pass frontend when no capture
        // exists, and replays the capture once one does. Both must produce
        // identical stats and identical eviction streams, for per-set and
        // global-state policies alike.
        let (p, l, t) = small_setup();
        for pf in [PrefetcherKind::NextLine, PrefetcherKind::Fdip] {
            let mut cfg = small_cfg().with_prefetcher(pf);
            cfg.scripted_invalidations = Some(Arc::new(small_script(&l, &t)));
            for kind in [
                PolicyKind::LRU,
                PolicyKind::TREE_PLRU,
                PolicyKind::SRRIP,
                PolicyKind::DRRIP,
                PolicyKind::RANDOM,
            ] {
                let mut frontend_sink = VecSink::new();
                let frontend = SimSession::new(&p, &l, &t, cfg.clone())
                    .run_with_sink(kind, &mut frontend_sink);
                let session = SimSession::new(&p, &l, &t, cfg.clone());
                session.ensure_recorded();
                let mut replay_sink = VecSink::new();
                let replayed = session.run_with_sink(kind, &mut replay_sink);
                assert_eq!(frontend, replayed, "{} under {}", kind.name(), pf.name());
                assert_eq!(
                    frontend_sink.into_events(),
                    replay_sink.into_events(),
                    "{} under {}: eviction streams diverge",
                    kind.name(),
                    pf.name()
                );
            }
        }
    }

    #[test]
    fn every_online_policy_replays_capture_without_prefetching() {
        // Without a prefetcher the capture holds demand requests only; the
        // replay must still match the fresh frontend for every online
        // registry policy, learned predictors included.
        let (p, l, t) = small_setup();
        let mut cfg = small_cfg();
        cfg.scripted_invalidations = Some(Arc::new(small_script(&l, &t)));
        let session = SimSession::new(&p, &l, &t, cfg.clone());
        session.ensure_recorded();
        for kind in PolicyKind::all()
            .into_iter()
            .filter(|k| !k.is_offline_ideal())
        {
            let mut frontend_sink = VecSink::new();
            let frontend =
                SimSession::new(&p, &l, &t, cfg.clone()).run_with_sink(kind, &mut frontend_sink);
            let mut replay_sink = VecSink::new();
            let replayed = session.run_with_sink(kind, &mut replay_sink);
            assert_eq!(frontend, replayed, "{}", kind.name());
            assert_eq!(
                frontend_sink.into_events(),
                replay_sink.into_events(),
                "{}: eviction streams diverge",
                kind.name()
            );
        }
        assert_eq!(session.recording_passes(), 1);
    }

    #[test]
    fn online_policy_without_capture_runs_single_pass() {
        // With no capture in hand an online policy runs the single-pass
        // frontend: no recording pass, no L3 seed. Once a capture exists
        // the same policy replays it.
        let (p, l, t) = small_setup();
        let metrics = Arc::new(ripple_obs::MetricsRecorder::new());
        let session = SimSession::new(&p, &l, &t, small_cfg()).with_recorder(metrics.clone());
        let fresh_lru = session.run(PolicyKind::LRU);
        let fresh_drrip = session.run(PolicyKind::DRRIP);
        assert_eq!(session.recording_passes(), 0);
        assert_eq!(metrics.snapshot().counter("session.l3_seed_clones"), None);
        session.ensure_recorded();
        assert_eq!(session.run(PolicyKind::LRU), fresh_lru);
        assert_eq!(session.run(PolicyKind::DRRIP), fresh_drrip);
        assert_eq!(session.recording_passes(), 1);
        assert_eq!(
            metrics.snapshot().counter("session.l3_seed_clones"),
            Some(2)
        );
    }

    #[test]
    fn reference_recording_does_not_replay_online_policies() {
        // The reference path records for the offline ideals only; online
        // policies keep the frontend and agree with the interned path.
        let (p, l, t) = small_setup();
        let cfg = small_cfg().with_prefetcher(PrefetcherKind::NextLine);
        let metrics = Arc::new(ripple_obs::MetricsRecorder::new());
        let reference =
            SimSession::new(&p, &l, &t, cfg.clone().with_line_path(LinePath::Reference))
                .with_recorder(metrics.clone());
        reference.ensure_recorded();
        let interned = SimSession::new(&p, &l, &t, cfg);
        for kind in [PolicyKind::LRU, PolicyKind::SRRIP, PolicyKind::DRRIP] {
            assert_eq!(reference.run(kind), interned.run(kind), "{}", kind.name());
        }
        assert_eq!(reference.recording_passes(), 1);
        assert_eq!(metrics.snapshot().counter("session.l3_seed_clones"), None);
    }

    #[test]
    fn l3_seed_cloned_once_per_replay() {
        let (p, l, t) = small_setup();
        let metrics = Arc::new(ripple_obs::MetricsRecorder::new());
        let session = SimSession::new(&p, &l, &t, small_cfg()).with_recorder(metrics.clone());
        session.run(PolicyKind::OPT);
        assert_eq!(
            metrics.snapshot().counter("session.l3_seed_clones"),
            Some(1)
        );
        session.run(PolicyKind::DEMAND_MIN);
        // An online policy replays the capture the oracles left behind.
        session.run(PolicyKind::DRRIP);
        assert_eq!(
            metrics.snapshot().counter("session.l3_seed_clones"),
            Some(3)
        );
    }

    #[test]
    fn try_run_succeeds_within_stream_capacity() {
        let (p, l, t) = small_setup();
        let session = SimSession::new(&p, &l, &t, small_cfg());
        assert!(session.try_ensure_recorded().is_ok());
        let stats = session.try_run(PolicyKind::OPT).unwrap();
        assert_eq!(stats, session.run(PolicyKind::OPT));
        let mut sink = VecSink::new();
        assert!(session
            .try_run_with_sink(PolicyKind::LRU, &mut sink)
            .is_ok());
    }

    #[test]
    fn concurrent_session_replays_are_deterministic() {
        let (p, l, t) = small_setup();
        let session = SimSession::new(&p, &l, &t, small_cfg());
        let sequential: Vec<SimStats> = [PolicyKind::OPT, PolicyKind::DEMAND_MIN, PolicyKind::LRU]
            .into_iter()
            .map(|k| session.run(k))
            .collect();
        let fresh = SimSession::new(&p, &l, &t, small_cfg());
        let fresh = &fresh;
        let parallel: Vec<SimStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = [PolicyKind::OPT, PolicyKind::DEMAND_MIN, PolicyKind::LRU]
                .into_iter()
                .map(|k| scope.spawn(move || fresh.run(k)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, parallel);
        assert_eq!(fresh.recording_passes(), 1);
    }
}
