//! The pre-interning reference implementations, kept here as equivalence
//! oracles for the production fast paths.
//!
//! Production crates carry one implementation per concept: `ripple-sim`
//! has only the dense interned frontend and `ripple` only the dense,
//! epoch-stamped cue analysis. The original implementations they replaced
//! live on in this module, unchanged in behaviour, so the `equivalence`
//! and `rewrite` dimensions (and `tests/reference_equivalence.rs`) can
//! demand byte-identical results from the fast paths:
//!
//! * [`simulate`] — the hash-keyed `ReferenceFrontend`: online policies
//!   run one pass; offline ideals record the request stream under LRU,
//!   build [`FutureIndex::build`] over the materialized [`StreamRecord`]s,
//!   and replay, verifying each request against the recording;
//! * [`analyze_choices`] — the two-pass, map-based cue scan behind
//!   [`ripple::analyze_windows`];
//! * [`loc_of_addr`] — a linear scan over every block behind the binary
//!   search of [`Layout::loc_of_addr`] (checked by the `trace_rt`
//!   dimension).
//!
//! Everything here deliberately keeps the original cost profile: the
//! block→line mapping is re-derived from the layout on every step, the
//! per-line bookkeeping is hash-keyed by [`LineAddr`], the prefetch dedup
//! filter is a scanned `VecDeque`, and the scripted-invalidation schedule
//! is re-cloned out of the config each step. Only the cache boundary
//! changed with interning — it speaks [`LineId`] — so this path maps
//! addresses through the *identity* interning (`id == raw line index`),
//! which preserves set mapping and policy decisions exactly.

use std::collections::{HashMap, HashSet, VecDeque};

use ripple::{AnalysisConfig, CueCandidate, EvictionWindow, WindowChoice};
use ripple_program::{Addr, BlockId, CodeLoc, InstKind, Layout, LineAddr, Program};
use ripple_sim::{
    build_ideal_policy, build_policy, AccessOutcome, BranchPredictor, Cache, EvictionEvent,
    EvictionMechanism, EvictionSink, FutureIndex, LineId, LruPolicy, NullSink, PolicyKind,
    Prediction, PrefetcherKind, ReplacementPolicy, SimConfig, SimStats, StreamRecord,
};
use ripple_trace::BbTrace;

/// Dedup window for issued prefetches. The simulator models a 32-entry
/// FIFO filter; the oracle states the size independently, so a change to
/// the production filter shows up as a divergence.
const PREFETCH_FILTER: usize = 32;

/// Simulates `trace` under `policy` on the reference frontend, streaming
/// every L1I eviction into `sink`. `config.policy` is ignored in favour
/// of `policy`, exactly as in `SimSession::run_with_sink`.
pub fn simulate(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    config: &SimConfig,
    policy: PolicyKind,
    sink: &mut dyn EvictionSink,
) -> SimStats {
    let cfg = config.clone().with_policy(policy);
    if !policy.is_offline_ideal() {
        let l1i_policy = build_policy(&cfg);
        return ReferenceFrontend::new(program, layout, &cfg, l1i_policy, false, None, sink)
            .run(trace.iter())
            .0;
    }
    // The recording policy is irrelevant to the captured stream; LRU is
    // the cheapest throwaway.
    let record_cfg = config.clone().with_policy(PolicyKind::LRU);
    let lru = Box::new(LruPolicy::new(record_cfg.l1i));
    let (_, stream) =
        ReferenceFrontend::new(program, layout, &record_cfg, lru, true, None, &mut NullSink)
            .run(trace.iter());
    let stream = stream.expect("a recording pass returns its stream");
    let oracle = build_ideal_policy(policy, cfg.l1i, FutureIndex::build(&stream));
    ReferenceFrontend::new(program, layout, &cfg, oracle, false, Some(&stream), sink)
        .run(trace.iter())
        .0
}

/// Identity interning: the id *is* the raw line index.
#[inline]
fn id_of(line: LineAddr) -> LineId {
    debug_assert!(line.index() < u64::from(u32::MAX), "line index exceeds u32");
    LineId::new(line.index() as u32)
}

/// [`id_of`] for lines of unconstrained origin (invalidate operands such
/// as [`NOOP_LINE`](ripple_program::NOOP_LINE), scripted lines): an index
/// outside `u32` can never be resident, so it converts to `None` and the
/// invalidation is a no-op — the same fallback the interned path gets
/// from `LineTable::lookup`.
#[inline]
fn try_id_of(line: LineAddr) -> Option<LineId> {
    (line.index() < u64::from(u32::MAX)).then(|| LineId::new(line.index() as u32))
}

/// Inverse of [`id_of`].
#[inline]
fn line_of(id: LineId) -> LineAddr {
    LineAddr::new(u64::from(id.get()))
}

/// One reference-path frontend simulation over a block trace.
struct ReferenceFrontend<'a> {
    program: &'a Program,
    layout: &'a Layout,
    config: &'a SimConfig,
    l1i: Cache<dyn ReplacementPolicy>,
    l2: Cache<dyn ReplacementPolicy>,
    l3: Cache<dyn ReplacementPolicy>,
    bpred: BranchPredictor,
    ftq: VecDeque<BlockId>,
    frontier: Option<BlockId>,
    prefetch_filter: VecDeque<LineAddr>,
    stats: SimStats,
    stall_cycles: f64,
    seq: u64,
    /// When recording: the captured request stream.
    record: Option<Vec<StreamRecord>>,
    /// When verifying a replay: the previously captured stream.
    verify: Option<&'a [StreamRecord]>,
    sink: &'a mut dyn EvictionSink,
    last_demand_pos: HashMap<LineAddr, u64>,
    prefetch_issue_pos: HashMap<LineAddr, u64>,
    seen_lines: HashSet<LineAddr>,
    prev_block: Option<BlockId>,
    trace_pos: u64,
    script_cursor: usize,
    warmup_until: u64,
}

impl<'a> ReferenceFrontend<'a> {
    /// A frontend over `program`/`layout` with `l1i_policy` managing the
    /// L1I. With `record`, [`ReferenceFrontend::run`] also returns the
    /// request stream; with `verify`, every request is checked (in debug
    /// builds) against a previously recorded stream.
    fn new(
        program: &'a Program,
        layout: &'a Layout,
        config: &'a SimConfig,
        l1i_policy: Box<dyn ReplacementPolicy>,
        record: bool,
        verify: Option<&'a [StreamRecord]>,
        sink: &'a mut dyn EvictionSink,
    ) -> Self {
        let mut l3: Cache<dyn ReplacementPolicy> =
            Cache::new(config.l3, Box::new(LruPolicy::new(config.l3)));
        for block in program.blocks() {
            for line in layout.lines_of_block(block.id()) {
                l3.access(id_of(line), line.base_addr(), false, 0);
            }
        }
        ReferenceFrontend {
            program,
            layout,
            config,
            l1i: Cache::new(config.l1i, l1i_policy),
            l2: Cache::new(config.l2, Box::new(LruPolicy::new(config.l2))),
            l3,
            bpred: BranchPredictor::new(),
            ftq: VecDeque::new(),
            frontier: None,
            prefetch_filter: VecDeque::with_capacity(PREFETCH_FILTER),
            stats: SimStats::default(),
            stall_cycles: 0.0,
            seq: 0,
            record: record.then(Vec::new),
            verify,
            sink,
            last_demand_pos: HashMap::new(),
            prefetch_issue_pos: HashMap::new(),
            seen_lines: HashSet::new(),
            prev_block: None,
            trace_pos: 0,
            script_cursor: 0,
            warmup_until: 0,
        }
    }

    /// Runs the whole trace; returns (stats, request stream if recording).
    ///
    /// The first `warmup_fraction` of the trace updates all architectural
    /// state but accumulates no statistics. Evictions stream into the sink
    /// throughout, warmup included.
    fn run(
        mut self,
        trace: impl ExactSizeIterator<Item = BlockId>,
    ) -> (SimStats, Option<Vec<StreamRecord>>) {
        let len = trace.len() as u64;
        self.warmup_until = (len as f64 * self.config.warmup_fraction.clamp(0.0, 0.9)) as u64;
        let mut counted_blocks = 0u64;
        for block in trace {
            self.step(block);
            if self.trace_pos >= self.warmup_until {
                counted_blocks += 1;
            }
            self.trace_pos += 1;
        }
        let total_instr = self.stats.instructions + self.stats.invalidate_instructions;
        self.stats.blocks = counted_blocks;
        self.stats.cycles = total_instr as f64 * self.config.base_cpi + self.stall_cycles;
        (self.stats, self.record)
    }

    #[inline]
    fn counting(&self) -> bool {
        self.trace_pos >= self.warmup_until
    }

    fn step(&mut self, block: BlockId) {
        // 0. Scripted (oracle) invalidations. The per-step Arc clone is the
        // pre-interning behaviour, kept on purpose.
        if let Some(script) = self.config.scripted_invalidations.clone() {
            while let Some(&(pos, line)) = script.get(self.script_cursor) {
                if pos > self.trace_pos {
                    break;
                }
                self.script_cursor += 1;
                if pos == self.trace_pos
                    && try_id_of(line).is_some_and(|id| self.l1i.invalidate(id))
                    && self.counting()
                {
                    self.stats.invalidate_hits += 1;
                }
            }
        }

        // 1. FDIP bookkeeping: consume or squash the FTQ, train predictor.
        if self.config.prefetcher == PrefetcherKind::Fdip {
            if let Some(prev) = self.prev_block {
                let correct = self.bpred.train(self.program, self.layout, prev, block);
                if !correct && self.counting() {
                    self.stats.mispredictions += 1;
                }
            }
            match self.ftq.front() {
                Some(&head) if head == block => {
                    self.ftq.pop_front();
                }
                Some(_) => {
                    self.ftq.clear();
                    self.frontier = None;
                    self.bpred.reset_speculation();
                }
                None => {}
            }
        }
        self.prev_block = Some(block);

        // 2. Demand-fetch the block's lines (re-derived per step).
        let bb = self.program.block(block);
        let pc = self.layout.block_addr(block);
        if self.counting() {
            self.stats.instructions += bb.original_instructions().len() as u64;
            self.stats.invalidate_instructions += u64::from(bb.injected_prefix_len());
        }
        let lines: Vec<LineAddr> = self.layout.lines_of_block(block).collect();
        for &line in &lines {
            self.demand_access(line, pc);
        }

        // 3. Prefetching.
        match self.config.prefetcher {
            PrefetcherKind::None => {}
            PrefetcherKind::NextLine => {
                for &line in &lines {
                    self.issue_prefetch(line.next(), pc);
                }
            }
            PrefetcherKind::Fdip => self.extend_runahead(block),
        }

        // 4. Execute injected invalidations.
        for inst in &bb.instructions()[..bb.injected_prefix_len() as usize] {
            if let InstKind::Invalidate { line } = inst.kind() {
                let present = match (self.config.eviction_mechanism, try_id_of(line)) {
                    (EvictionMechanism::Invalidate, Some(id)) => self.l1i.invalidate(id),
                    (EvictionMechanism::Demote, Some(id)) => self.l1i.demote(id),
                    _ => false,
                };
                if present && self.counting() {
                    self.stats.invalidate_hits += 1;
                }
            }
        }
    }

    fn next_seq(&mut self, line: LineAddr, is_prefetch: bool) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        if let Some(rec) = &mut self.record {
            rec.push(StreamRecord { line, is_prefetch });
        }
        if let Some(stream) = self.verify {
            debug_assert!(
                stream
                    .get(seq as usize)
                    .is_some_and(|r| r.line == line && r.is_prefetch == is_prefetch),
                "replay diverged from recorded stream at seq {seq}"
            );
        }
        seq
    }

    fn demand_access(&mut self, line: LineAddr, pc: Addr) {
        let seq = self.next_seq(line, false);
        let counting = self.counting();
        if counting {
            self.stats.demand_accesses += 1;
        }
        let out = self.l1i.access(id_of(line), pc, false, seq);
        if let Some(issue_pos) = self.prefetch_issue_pos.remove(&line) {
            if out.is_hit() && counting {
                let window = u64::from(self.config.prefetch_timeliness_blocks);
                let elapsed = self.trace_pos.saturating_sub(issue_pos);
                if elapsed < window && window > 0 {
                    let remaining = (window - elapsed) as f64 / window as f64;
                    self.stall_cycles +=
                        f64::from(self.config.l2_latency) * remaining * self.config.stall_exposure;
                }
            }
        }
        match out {
            AccessOutcome::Hit => {}
            AccessOutcome::Miss { evicted } => {
                let first_touch = self.seen_lines.insert(line);
                let latency = self.lower_levels(line);
                if counting {
                    self.stats.demand_misses += 1;
                    if first_touch {
                        self.stats.compulsory_misses += 1;
                    }
                    self.stall_cycles += f64::from(latency) * self.config.stall_exposure;
                }
                self.note_eviction(evicted, false);
            }
        }
        self.last_demand_pos.insert(line, self.trace_pos);
    }

    fn issue_prefetch(&mut self, line: LineAddr, pc: Addr) {
        if self.prefetch_filter.contains(&line) {
            return;
        }
        if self.prefetch_filter.len() == PREFETCH_FILTER {
            self.prefetch_filter.pop_front();
        }
        self.prefetch_filter.push_back(line);

        let seq = self.next_seq(line, true);
        if self.counting() {
            self.stats.prefetches_issued += 1;
        }
        self.prefetch_issue_pos
            .entry(line)
            .or_insert(self.trace_pos);
        let out = self.l1i.access(id_of(line), pc, true, seq);
        if let AccessOutcome::Miss { evicted } = out {
            if self.counting() {
                self.stats.prefetch_fills += 1;
            }
            self.seen_lines.insert(line);
            let _ = self.lower_levels(line);
            self.note_eviction(evicted, true);
        }
    }

    fn note_eviction(&mut self, evicted: Option<LineId>, by_prefetch: bool) {
        let Some(victim) = evicted.map(line_of) else {
            return;
        };
        let last = self.last_demand_pos.get(&victim).copied();
        if self.counting() {
            self.stats.evictions += 1;
            if last.is_none() {
                self.stats.prefetch_pollution_evictions += 1;
            }
        }
        self.sink.record(EvictionEvent {
            victim,
            evict_pos: self.trace_pos,
            last_access_pos: last.unwrap_or(u64::MAX),
            by_prefetch,
        });
    }

    fn lower_levels(&mut self, line: LineAddr) -> u32 {
        let pc = line.base_addr();
        let counting = self.counting();
        let l2_hit = self.l2.access(id_of(line), pc, false, 0).is_hit();
        if l2_hit {
            if counting {
                self.stats.served_l2 += 1;
            }
            return self.config.l2_latency;
        }
        let l3_hit = self.l3.access(id_of(line), pc, false, 0).is_hit();
        if l3_hit {
            if counting {
                self.stats.served_l3 += 1;
            }
            self.config.l3_latency
        } else {
            if counting {
                self.stats.served_mem += 1;
            }
            self.config.mem_latency
        }
    }

    fn extend_runahead(&mut self, current: BlockId) {
        if self.ftq.is_empty() && self.frontier.is_none() {
            self.frontier = Some(current);
        }
        while self.ftq.len() < self.config.ftq_depth {
            let from = match self.frontier {
                Some(f) => f,
                None => break,
            };
            match self.bpred.predict(self.program, self.layout, from) {
                Prediction::Block(next) => {
                    self.ftq.push_back(next);
                    self.frontier = Some(next);
                    let pc = self.layout.block_addr(next);
                    let lines: Vec<LineAddr> = self.layout.lines_of_block(next).collect();
                    for line in lines {
                        self.issue_prefetch(line, pc);
                    }
                }
                Prediction::Unknown => break,
            }
        }
    }
}

/// The original two-pass, map-based cue scan behind
/// [`ripple::analyze_windows`]: the per-window [`WindowChoice`]s the dense
/// production path must reproduce exactly, in window order.
pub fn analyze_choices(
    program: &Program,
    layout: &Layout,
    trace: &BbTrace,
    windows: &[EvictionWindow],
    config: &AnalysisConfig,
) -> Vec<WindowChoice> {
    let blocks = trace.blocks();

    // Execution counts for the probability denominator.
    let mut exec_count = vec![0u64; program.num_blocks()];
    for &b in blocks {
        exec_count[b.index()] += 1;
    }

    // Cache of which lines each block spans (for the stop-at-victim rule).
    let mut block_lines: Vec<Option<(u64, u64)>> = vec![None; program.num_blocks()];
    let mut lines_of = |b: BlockId| -> (u64, u64) {
        let slot = &mut block_lines[b.index()];
        *slot.get_or_insert_with(|| {
            let mut iter = layout.lines_of_block(b);
            let first = iter.next().map(|l| l.index()).unwrap_or(u64::MAX);
            let last = iter.last().map(|l| l.index()).unwrap_or(first);
            (first, last)
        })
    };
    let mut contains = |b: BlockId, line: LineAddr| -> bool {
        let (first, last) = lines_of(b);
        (first..=last).contains(&line.index())
    };

    // Candidate scan: both ends of the window matter. Blocks just
    // *before* the eviction trigger time the invalidation perfectly, but
    // depend on whatever request happens to run next; blocks just *after*
    // the victim's last access belong to the victim's own (recurring)
    // request, so the same (cue, victim) pair re-covers every recurrence
    // — and at high coverage, early in-window invalidation is exactly as
    // good (the free way is consumed by fills that each had their own
    // invalidated victim).
    let mut scan = |w: &EvictionWindow,
                    scratch: &mut HashSet<BlockId>,
                    ordered: Option<&mut Vec<BlockId>>,
                    earliest: Option<&mut HashMap<BlockId, u64>>| {
        scratch.clear();
        let lo = w.start + 1;
        let hi = w.end; // exclusive: the trigger block itself is too late
        let back_lo = hi.saturating_sub(config.max_window_blocks as u64).max(lo);
        let front_hi = lo.saturating_add(config.front_window_blocks as u64).min(hi);
        let mut ordered = ordered;
        let mut earliest = earliest;
        let half = config.max_candidates / 2;
        // Back side, nearest the trigger first.
        for p in (back_lo..hi).rev() {
            let b = blocks[p as usize];
            if contains(b, w.victim) {
                break;
            }
            if scratch.insert(b) {
                if let Some(ord) = ordered.as_deref_mut() {
                    if ord.len() < half {
                        ord.push(b);
                    }
                }
            }
            if let Some(e) = earliest.as_deref_mut() {
                e.insert(b, p); // walking backward: later writes are earlier
            }
        }
        // Front side, nearest the last access first.
        for p in lo..front_hi {
            let b = blocks[p as usize];
            if contains(b, w.victim) {
                break;
            }
            if scratch.insert(b) {
                if let Some(ord) = ordered.as_deref_mut() {
                    if ord.len() < config.max_candidates {
                        ord.push(b);
                    }
                }
            }
            if let Some(e) = earliest.as_deref_mut() {
                e.entry(b).and_modify(|x| *x = (*x).min(p)).or_insert(p);
            }
        }
    };

    // Pass 1: count, per (victim, candidate) pair, the distinct windows of
    // the victim that contain the candidate.
    let mut pair_windows: HashMap<(LineAddr, BlockId), u32> = HashMap::new();
    let mut scratch: HashSet<BlockId> = HashSet::new();
    for w in windows {
        scan(w, &mut scratch, None, None);
        for &b in scratch.iter() {
            *pair_windows.entry((w.victim, b)).or_insert(0) += 1;
        }
    }

    // Pass 2: collect each window's candidates.
    let is_rewritable = |b: BlockId| {
        let func = program.block(b).func();
        program.function(func).kind().is_rewritable()
    };
    let mut choices = Vec::with_capacity(windows.len());
    let mut ordered: Vec<BlockId> = Vec::new();
    let mut earliest: HashMap<BlockId, u64> = HashMap::new();
    for w in windows {
        ordered.clear();
        earliest.clear();
        scan(w, &mut scratch, Some(&mut ordered), Some(&mut earliest));
        let hi = w.end;
        let candidates: Vec<CueCandidate> = ordered
            .iter()
            .filter_map(|&b| {
                let execs = exec_count[b.index()];
                if execs == 0 {
                    return None;
                }
                let hits = pair_windows[&(w.victim, b)];
                Some(CueCandidate {
                    block: b,
                    probability: f64::from(hits) / execs as f64,
                    rewritable: is_rewritable(b),
                    earliest_gap: hi - earliest.get(&b).copied().unwrap_or(hi),
                })
            })
            .collect();
        choices.push(WindowChoice {
            victim: w.victim,
            candidates,
        });
    }
    choices
}

/// The block containing byte `addr` and the offset into its original
/// bytes, found by testing every block: the answer
/// [`Layout::loc_of_addr`] must give. A byte of an injected prefix is
/// offset 0 of its block; padding and bytes outside the text segment
/// belong to no block.
pub fn loc_of_addr(program: &Program, layout: &Layout, addr: Addr) -> Option<CodeLoc> {
    (0..program.num_blocks() as u32)
        .map(BlockId::new)
        .find(|&b| layout.block_addr(b) <= addr && addr < layout.block_end(b))
        .map(|b| {
            let code_start = layout.addr_of(CodeLoc::new(b, 0));
            CodeLoc::new(b, addr.get().saturating_sub(code_start.get()) as u32)
        })
}
