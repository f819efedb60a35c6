//! The instruction-supply frontend: demand fetch, prefetching, the
//! `invalidate` instruction, and the stall-based timing model.
//!
//! Every line is a [`LineId`] from the session's [`LineTable`], block
//! footprints come from a precomputed [`FetchPlan`], and all per-line
//! bookkeeping is flat `Vec` indexing. This is the single-pass online
//! frontend; captured streams replay through
//! [`ReplayFrontend`](crate::replay::ReplayFrontend) instead. The
//! pre-interning, hash-keyed implementation is kept as an oracle in the
//! `ripple-check` crate, whose equivalence suite demands byte-identical
//! results from this one.

use std::collections::VecDeque;
use std::time::Instant;

use ripple_obs::Recorder;
use ripple_program::{Addr, BlockId, InstKind, Layout, LineAddr, Program};

use crate::bpred::{BranchPredictor, Prediction};
use crate::cache::Cache;
use crate::config::{EvictionMechanism, PrefetcherKind, SimConfig};
use crate::intern::{FetchPlan, LineId, LineTable};
use crate::policy::{LruPolicy, ReplacementPolicy};
use crate::sink::EvictionSink;
use crate::stats::{EvictionEvent, SimStats};

/// Dedup window for issued prefetches (a real FDIP filters against the
/// in-flight queue; this models that cheaply and, crucially, in a way that
/// does not depend on cache contents so the request stream stays
/// replacement-policy-independent).
pub(crate) const PREFETCH_FILTER: usize = 32;

/// Position sentinel meaning "never" (no demand access / no outstanding
/// prefetch issue for this line yet).
pub(crate) const NO_POS: u64 = u64::MAX;

/// One frontend simulation over a block trace.
pub(crate) struct Frontend<'a> {
    program: &'a Program,
    layout: &'a Layout,
    config: &'a SimConfig,
    table: &'a LineTable,
    plan: &'a FetchPlan,
    l1i: Cache<dyn ReplacementPolicy>,
    // L2 and L3 are always LRU, so they stay concrete: no virtual dispatch
    // on the miss path.
    l2: Cache<LruPolicy>,
    l3: Cache<LruPolicy>,
    bpred: BranchPredictor,
    ftq: VecDeque<BlockId>,
    frontier: Option<BlockId>,
    /// FIFO order of the prefetch dedup window...
    filter_fifo: VecDeque<LineId>,
    /// ...and its membership, indexed by line id.
    in_filter: Vec<bool>,
    stats: SimStats,
    stall_cycles: f64,
    seq: u64,
    /// Observer receiving every eviction as it happens.
    sink: &'a mut dyn EvictionSink,
    /// Observability recorder; disabled recorders cost one boolean check
    /// per run.
    recorder: &'a dyn Recorder,
    /// Trace position of each line's last demand access (`NO_POS` = never).
    last_demand_pos: Vec<u64>,
    /// Trace position of each line's oldest unconsumed prefetch *issue*
    /// (`NO_POS` = none outstanding). Timeliness charges key on the issue
    /// stream, which is replacement-policy-independent, so policy orderings
    /// are preserved: a demand hit may pay at most the partial L2 latency,
    /// which never exceeds the full charge the same access would pay as a
    /// miss.
    prefetch_issue_pos: Vec<u64>,
    /// Whether each line has ever been fetched (compulsory-miss tracking).
    seen_lines: Vec<bool>,
    prev_block: Option<BlockId>,
    trace_pos: u64,
    /// The scripted-invalidation schedule, borrowed once for the whole run.
    script: Option<&'a [(u64, LineAddr)]>,
    script_cursor: usize,
    warmup_until: u64,
}

impl<'a> Frontend<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: &'a Program,
        layout: &'a Layout,
        config: &'a SimConfig,
        table: &'a LineTable,
        plan: &'a FetchPlan,
        l1i_policy: Box<dyn ReplacementPolicy>,
        sink: &'a mut dyn EvictionSink,
        recorder: &'a dyn Recorder,
    ) -> Self {
        let base = table.line_base();
        let lines = table.len() as usize;
        // Steady-state assumption: the application has executed long
        // before the measured window, so its text is resident in the last
        // level cache (the paper's 100 M-instruction steady-state traces
        // imply the same). First touches then cost an L3 hit, not DRAM.
        let mut l3: Cache<LruPolicy> =
            Cache::with_line_base(config.l3, Box::new(LruPolicy::new(config.l3)), base);
        for block in program.blocks() {
            for &id in plan.lines_of(block.id()) {
                l3.access(id, table.line(id).base_addr(), false, 0);
            }
        }
        Frontend {
            program,
            layout,
            config,
            table,
            plan,
            l1i: Cache::with_line_base(config.l1i, l1i_policy, base),
            l2: Cache::with_line_base(config.l2, Box::new(LruPolicy::new(config.l2)), base),
            l3,
            bpred: BranchPredictor::new(),
            ftq: VecDeque::new(),
            frontier: None,
            filter_fifo: VecDeque::with_capacity(PREFETCH_FILTER),
            in_filter: vec![false; lines],
            stats: SimStats::default(),
            stall_cycles: 0.0,
            seq: 0,
            sink,
            recorder,
            last_demand_pos: vec![NO_POS; lines],
            prefetch_issue_pos: vec![NO_POS; lines],
            seen_lines: vec![false; lines],
            prev_block: None,
            trace_pos: 0,
            script: config.scripted_invalidations.as_ref().map(|s| s.as_slice()),
            script_cursor: 0,
            warmup_until: 0,
        }
    }

    /// Runs the whole trace and returns its statistics.
    ///
    /// The first `warmup_fraction` of the trace updates all architectural
    /// state but accumulates no statistics. Evictions stream into the sink
    /// throughout, warmup included.
    pub(crate) fn run(mut self, trace: impl ExactSizeIterator<Item = BlockId>) -> SimStats {
        let len = trace.len() as u64;
        self.warmup_until = (len as f64 * self.config.warmup_fraction.clamp(0.0, 0.9)) as u64;
        // Warmup/measure wall split. One short-circuited boolean per
        // counted block when disabled; clocks read only when a recorder
        // is listening (the overhead contract of ripple-obs).
        let timing = self.recorder.enabled();
        let run_start = timing.then(Instant::now);
        let mut measure_start: Option<Instant> = None;
        let mut counted_blocks = 0u64;
        for block in trace {
            self.step(block);
            if self.trace_pos >= self.warmup_until {
                if timing && counted_blocks == 0 {
                    measure_start = Some(Instant::now());
                }
                counted_blocks += 1;
            }
            self.trace_pos += 1;
        }
        if let Some(run_start) = run_start {
            let end = Instant::now();
            let measured_at = measure_start.unwrap_or(end);
            self.recorder.phase(
                "frontend.warmup",
                (measured_at - run_start).as_nanos() as u64,
            );
            if let Some(m) = measure_start {
                self.recorder
                    .phase("frontend.measure", (end - m).as_nanos() as u64);
            }
        }
        let total_instr = self.stats.instructions + self.stats.invalidate_instructions;
        self.stats.blocks = counted_blocks;
        self.stats.cycles = total_instr as f64 * self.config.base_cpi + self.stall_cycles;
        self.stats
    }

    #[inline]
    fn counting(&self) -> bool {
        self.trace_pos >= self.warmup_until
    }

    fn step(&mut self, block: BlockId) {
        // 0. Scripted (oracle) invalidations scheduled for this position
        // apply before the block executes. Lines outside the interned text
        // segment can never be resident, so they are skipped outright.
        if let Some(script) = self.script {
            while let Some(&(pos, line)) = script.get(self.script_cursor) {
                if pos > self.trace_pos {
                    break;
                }
                self.script_cursor += 1;
                if pos == self.trace_pos {
                    let hit = self
                        .table
                        .lookup(line)
                        .is_some_and(|id| self.l1i.invalidate(id));
                    // Stats-gated like injected invalidations (step 4): the
                    // cache state always updates, the counter only counts
                    // once warmup has elapsed.
                    if hit && self.counting() {
                        self.stats.invalidate_hits += 1;
                    }
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
                    // Runahead went down the wrong path: squash.
                    self.ftq.clear();
                    self.frontier = None;
                    self.bpred.reset_speculation();
                }
                None => {}
            }
        }
        self.prev_block = Some(block);

        // 2. Demand-fetch the block's lines (precomputed fetch plan).
        let bb = self.program.block(block);
        let pc = self.layout.block_addr(block);
        if self.counting() {
            self.stats.instructions += bb.original_instructions().len() as u64;
            self.stats.invalidate_instructions += u64::from(bb.injected_prefix_len());
        }
        let plan = self.plan;
        let ids = plan.lines_of(block);
        for &id in ids {
            self.demand_access(id, pc);
        }

        // 3. Prefetching.
        match self.config.prefetcher {
            PrefetcherKind::None => {}
            PrefetcherKind::NextLine => {
                // The table's margin line keeps `id.next()` in range even
                // for the last code line.
                for &id in ids {
                    self.issue_prefetch(id.next(), pc);
                }
            }
            PrefetcherKind::Fdip => self.extend_runahead(block),
        }

        // 4. Execute injected invalidations (they sit at the block head;
        // cache effects apply once the block is fetched and executed).
        for inst in &bb.instructions()[..bb.injected_prefix_len() as usize] {
            if let InstKind::Invalidate { line } = inst.kind() {
                let id = self.table.lookup(line);
                let present = match (self.config.eviction_mechanism, id) {
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

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn demand_access(&mut self, id: LineId, pc: Addr) {
        let seq = self.next_seq();
        let counting = self.counting();
        if counting {
            self.stats.demand_accesses += 1;
        }
        let out = self.l1i.access(id, pc, false, seq);
        // Timeliness: the first demand use after a prefetch issue pays the
        // fraction of the fill latency the runahead distance failed to
        // hide (a miss pays the full charge below instead).
        let issue_pos = self.prefetch_issue_pos[id.index()];
        if issue_pos != NO_POS {
            self.prefetch_issue_pos[id.index()] = NO_POS;
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
            crate::cache::AccessOutcome::Hit => {}
            crate::cache::AccessOutcome::Miss { evicted } => {
                let first_touch = !self.seen_lines[id.index()];
                self.seen_lines[id.index()] = true;
                let latency = self.lower_levels(id);
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
        self.last_demand_pos[id.index()] = self.trace_pos;
    }

    fn issue_prefetch(&mut self, id: LineId, pc: Addr) {
        if self.in_filter[id.index()] {
            return;
        }
        if self.filter_fifo.len() == PREFETCH_FILTER {
            if let Some(oldest) = self.filter_fifo.pop_front() {
                self.in_filter[oldest.index()] = false;
            }
        }
        self.filter_fifo.push_back(id);
        self.in_filter[id.index()] = true;

        let seq = self.next_seq();
        if self.counting() {
            self.stats.prefetches_issued += 1;
        }
        if self.prefetch_issue_pos[id.index()] == NO_POS {
            self.prefetch_issue_pos[id.index()] = self.trace_pos;
        }
        let out = self.l1i.access(id, pc, true, seq);
        if let crate::cache::AccessOutcome::Miss { evicted } = out {
            if self.counting() {
                self.stats.prefetch_fills += 1;
            }
            self.seen_lines[id.index()] = true;
            // Prefetch latency is off the critical path; still warms L2/L3.
            let _ = self.lower_levels(id);
            self.note_eviction(evicted, true);
        }
    }

    fn note_eviction(&mut self, evicted: Option<LineId>, by_prefetch: bool) {
        let Some(victim) = evicted else { return };
        let last = self.last_demand_pos[victim.index()];
        if self.counting() {
            self.stats.evictions += 1;
            if last == NO_POS {
                self.stats.prefetch_pollution_evictions += 1;
            }
        }
        self.sink.record(EvictionEvent {
            victim: self.table.line(victim),
            evict_pos: self.trace_pos,
            last_access_pos: last,
            by_prefetch,
        });
    }

    /// Looks `id` up in L2 then L3, filling on the way; returns the
    /// latency of the serving level.
    fn lower_levels(&mut self, id: LineId) -> u32 {
        let pc = self.table.line(id).base_addr();
        let counting = self.counting();
        let l2_hit = self.l2.access(id, pc, false, 0).is_hit();
        if l2_hit {
            if counting {
                self.stats.served_l2 += 1;
            }
            return self.config.l2_latency;
        }
        let l3_hit = self.l3.access(id, pc, false, 0).is_hit();
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

    /// FDIP: follow the predicted path up to the FTQ depth, prefetching
    /// each predicted block's lines.
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
                    let plan = self.plan;
                    for &id in plan.lines_of(next) {
                        self.issue_prefetch(id, pc);
                    }
                }
                Prediction::Unknown => break,
            }
        }
    }
}
