//! Link-time injection of invalidation instructions.
//!
//! Ripple's analysis runs against a *profiled* layout (v0). Injection adds
//! instructions, which shifts addresses, producing a *rewritten* layout
//! (v1). Victim cache lines discovered in v0 must therefore be translated
//! to v1; [`LineMapper`] performs that translation by following the first
//! code byte of each v0 line to its new home.

use std::collections::HashMap;

use ripple_json::{object, FromJson, JsonError, ToJson, Value};

use crate::addr::{lines_spanning, LineAddr};
use crate::ids::{BlockId, CodeLoc};
use crate::inst::Instruction;
use crate::layout::Layout;
use crate::program::Program;

/// One planned injection: when `cue` executes, invalidate the line holding
/// `victim` (a code location in the profiled layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Injection {
    /// Block that receives the invalidate instruction.
    pub cue: BlockId,
    /// First code byte of the victim line, in profiled-layout terms.
    pub victim: CodeLoc,
}

/// A set of injections to apply to a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InjectionPlan {
    injections: Vec<Injection>,
}

impl InjectionPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an injection, deduplicating identical (cue, victim) pairs.
    pub fn push(&mut self, injection: Injection) {
        if !self.injections.contains(&injection) {
            self.injections.push(injection);
        }
    }

    /// The planned injections.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// Number of static invalidate instructions this plan will insert.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }
}

impl ToJson for Injection {
    fn to_json(&self) -> Value {
        object([
            ("cue", self.cue.get().to_json()),
            ("victim_block", self.victim.block.get().to_json()),
            ("victim_offset", self.victim.offset.to_json()),
        ])
    }
}

impl FromJson for Injection {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(Injection {
            cue: BlockId::new(u32::from_json(v.get("cue")?)?),
            victim: CodeLoc::new(
                BlockId::new(u32::from_json(v.get("victim_block")?)?),
                u32::from_json(v.get("victim_offset")?)?,
            ),
        })
    }
}

impl ToJson for InjectionPlan {
    fn to_json(&self) -> Value {
        object([("injections", self.injections.to_json())])
    }
}

impl FromJson for InjectionPlan {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let injections: Vec<Injection> = FromJson::from_json(v.get("injections")?)?;
        Ok(injections.into_iter().collect())
    }
}

impl FromIterator<Injection> for InjectionPlan {
    fn from_iter<I: IntoIterator<Item = Injection>>(iter: I) -> Self {
        let mut plan = InjectionPlan::new();
        for inj in iter {
            plan.push(inj);
        }
        plan
    }
}

impl Extend<Injection> for InjectionPlan {
    fn extend<I: IntoIterator<Item = Injection>>(&mut self, iter: I) {
        for inj in iter {
            self.push(inj);
        }
    }
}

/// Translates profiled-layout (v0) cache lines to rewritten-layout (v1)
/// cache lines.
///
/// A v0 line is followed through its first *code* byte: the block and
/// original-instruction offset holding that byte are located in v0, then
/// resolved against v1. Lines containing no code (alignment padding) map to
/// themselves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LineMapper {
    map: HashMap<LineAddr, LineAddr>,
}

impl LineMapper {
    /// Builds a mapper between two layouts of the same program (same block
    /// ids; v1 may contain injected prefixes).
    pub fn new(program: &Program, old_layout: &Layout, new_layout: &Layout) -> Self {
        let mut map = HashMap::new();
        for block in program.blocks() {
            let id = block.id();
            let start = old_layout.block_addr(id);
            let size = u64::from(old_layout.block_size(id));
            if size == 0 {
                continue;
            }
            for line in lines_spanning(start, size) {
                // First code byte of this line within this block.
                let line_base = line.base_addr();
                let first_byte = line_base.max(start);
                // Only the block owning the line's first in-code byte
                // defines the mapping; earlier blocks win.
                map.entry(line).or_insert_with(|| {
                    let offset = (first_byte.get() - start.get()) as u32;
                    new_layout.line_of(CodeLoc::new(id, offset))
                });
            }
        }
        LineMapper { map }
    }

    /// Maps a v0 line to its v1 equivalent (identity for unknown lines).
    #[inline]
    pub fn map(&self, line: LineAddr) -> LineAddr {
        self.map.get(&line).copied().unwrap_or(line)
    }

    /// Number of mapped lines.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether any lines are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Maps every cache line of the text segment to the [`CodeLoc`] of its
/// first code byte under `layout`.
///
/// This is how analysis results (victim lines, found in a *profiled*
/// layout) are expressed in layout-independent terms so they survive the
/// relinking that injection causes. Lines spanning two blocks are owned by
/// the block holding their first code byte.
pub fn line_origins(program: &Program, layout: &Layout) -> HashMap<LineAddr, CodeLoc> {
    let mut map = HashMap::new();
    for block in program.blocks() {
        let id = block.id();
        let start = layout.block_addr(id);
        let size = u64::from(layout.block_size(id));
        if size == 0 {
            continue;
        }
        for line in lines_spanning(start, size) {
            let first_byte = line.base_addr().max(start);
            map.entry(line).or_insert_with(|| {
                let offset = (first_byte.get() - start.get()) as u32;
                CodeLoc::new(id, offset)
            });
        }
    }
    map
}

/// Result of [`rewrite`]: the rewritten program and its new layout.
#[derive(Debug, Clone)]
pub struct Rewritten {
    /// The program with invalidate instructions injected.
    pub program: Program,
    /// Layout of the rewritten program.
    pub layout: Layout,
}

/// Applies `plan` to `program`, relinks, and fixes up invalidate operands.
///
/// The operand of every injected instruction is the *rewritten-layout* line
/// of the victim, i.e. exactly what the simulated `invalidate` instruction
/// must evict at run time.
///
/// # Examples
///
/// ```
/// use ripple_program::{
///     rewrite, CodeKind, CodeLoc, Injection, InjectionPlan, Instruction, Layout,
///     LayoutConfig, ProgramBuilder,
/// };
///
/// let mut b = ProgramBuilder::new();
/// let main = b.add_function("main", CodeKind::Static);
/// let bb0 = b.add_block(main);
/// let bb1 = b.add_block(main);
/// b.push_inst(bb0, Instruction::other(60));
/// b.push_inst(bb1, Instruction::ret());
/// let program = b.finish(main)?;
/// let layout = Layout::new(&program, &LayoutConfig::default());
///
/// let mut plan = InjectionPlan::new();
/// plan.push(Injection { cue: bb1, victim: CodeLoc::new(bb0, 0) });
/// let rewritten = rewrite(&program, &layout, &plan);
/// assert_eq!(rewritten.program.injected_instruction_count(), 1);
/// # Ok::<(), ripple_program::ValidateProgramError>(())
/// ```
pub fn rewrite(program: &Program, old_layout: &Layout, plan: &InjectionPlan) -> Rewritten {
    let mut new_program = program.clone();

    // Group injections per cue block, preserving plan order.
    let mut per_block: HashMap<BlockId, Vec<CodeLoc>> = HashMap::new();
    for inj in plan.injections() {
        per_block.entry(inj.cue).or_default().push(inj.victim);
    }

    // Insert placeholder invalidates carrying the *old-layout* line; the
    // operands are remapped once the new layout is known.
    for (cue, victims) in &per_block {
        let instrs: Vec<Instruction> = victims
            .iter()
            .map(|&loc| Instruction::invalidate(old_layout.line_of(loc)))
            .collect();
        new_program.blocks_mut()[cue.index()].inject_prefix(instrs);
    }

    let new_layout = Layout::new(&new_program, old_layout.config());
    let mapper = LineMapper::new(program, old_layout, &new_layout);

    for block in new_program.blocks_mut() {
        block.map_invalidate_operands(|old_line| mapper.map(old_line));
    }

    Rewritten {
        program: new_program,
        layout: new_layout,
    }
}

/// A line operand that never matches a real cache line: invalidating it is
/// a no-op. Used to fill reserved-but-unassigned invalidate slots.
pub const NOOP_LINE: LineAddr = LineAddr::new(u64::MAX);

/// Replaces the invalidate operands of each listed block with the given
/// lines, padding unused slots with [`NOOP_LINE`].
///
/// The block sizes are unchanged (every invalidate instruction has the
/// same encoding size), so the program's layout is preserved — this is
/// how the final link-time analysis pass assigns victims against the
/// *final* layout without perturbing it.
///
/// # Panics
///
/// Panics if a block is assigned more lines than it has injected slots
/// (so a block without slots takes none).
pub fn patch_invalidates(program: &mut Program, assignments: &HashMap<BlockId, Vec<LineAddr>>) {
    for (&id, lines) in assignments {
        let slots = program.block(id).injected_prefix_len() as usize;
        assert!(
            lines.len() <= slots,
            "block {id} has {slots} invalidate slots but {} assignments",
            lines.len()
        );
    }
    for block in program.blocks_mut() {
        if block.injected_prefix_len() == 0 {
            continue;
        }
        let mut lines = assignments.get(&block.id()).into_iter().flatten().copied();
        block.map_invalidate_operands(|_| lines.next().unwrap_or(NOOP_LINE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::CodeKind;
    use crate::inst::{InstKind, INVALIDATE_BYTES};
    use crate::layout::LayoutConfig;
    use crate::program::ProgramBuilder;

    fn linear_program(block_bytes: &[u8]) -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let n = block_bytes.len();
        let blocks: Vec<BlockId> = (0..n).map(|_| b.add_block(main)).collect();
        for (i, (&blk, &sz)) in blocks.iter().zip(block_bytes).enumerate() {
            if i + 1 == n {
                if sz > 1 {
                    b.push_inst(blk, Instruction::other(sz - 1));
                }
                b.push_inst(blk, Instruction::ret());
            } else {
                b.push_inst(blk, Instruction::other(sz));
            }
        }
        b.finish(main).unwrap()
    }

    /// Multi-function program: `funcs[i]` lists block byte sizes of f_i.
    fn multi_function_program(funcs: &[&[u8]]) -> Program {
        let mut b = ProgramBuilder::new();
        let mut entry = None;
        for (fi, blocks) in funcs.iter().enumerate() {
            let f = b.add_function(format!("f{fi}"), CodeKind::Static);
            entry.get_or_insert(f);
            let n = blocks.len();
            for (bi, &sz) in blocks.iter().enumerate() {
                let blk = b.add_block(f);
                if bi + 1 == n {
                    if sz > 1 {
                        b.push_inst(blk, Instruction::other(sz - 1));
                    }
                    b.push_inst(blk, Instruction::ret());
                } else {
                    b.push_inst(blk, Instruction::other(sz));
                }
            }
        }
        b.finish(entry.unwrap()).unwrap()
    }

    fn inj(cue: u32, victim_block: u32, offset: u32) -> Injection {
        Injection {
            cue: BlockId::new(cue),
            victim: CodeLoc::new(BlockId::new(victim_block), offset),
        }
    }

    /// The operands of `block`'s injected invalidation prefix, in order.
    fn invalidate_operands(program: &Program, block: BlockId) -> Vec<LineAddr> {
        let block = program.block(block);
        block.instructions()[..block.injected_prefix_len() as usize]
            .iter()
            .map(|inst| match inst.kind() {
                InstKind::Invalidate { line } => line,
                other => panic!("expected invalidate, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn empty_plan_is_identity() {
        // Also at a 16-byte function alignment, where functions share
        // cache lines.
        let p = multi_function_program(&[&[32, 16], &[10], &[70]]);
        for function_align in [16, 64] {
            let config = LayoutConfig {
                function_align,
                ..LayoutConfig::default()
            };
            let layout = Layout::new(&p, &config);
            let rw = rewrite(&p, &layout, &InjectionPlan::new());
            assert_eq!(rw.program, p);
            assert_eq!(rw.layout, layout);
            let mapper = LineMapper::new(&p, &layout, &rw.layout);
            for block in p.blocks() {
                for line in layout.lines_of_block(block.id()) {
                    assert_eq!(mapper.map(line), line);
                }
            }
        }
    }

    #[test]
    fn injection_grows_block_and_shifts_layout() {
        let p = linear_program(&[32, 32, 16]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let mut plan = InjectionPlan::new();
        plan.push(Injection {
            cue: BlockId::new(0),
            victim: CodeLoc::new(BlockId::new(2), 0),
        });
        let rw = rewrite(&p, &layout, &plan);
        assert_eq!(
            rw.layout.block_size(BlockId::new(0)),
            32 + u32::from(INVALIDATE_BYTES)
        );
        assert_eq!(
            rw.layout.block_addr(BlockId::new(1)).get(),
            layout.block_addr(BlockId::new(1)).get() + u64::from(INVALIDATE_BYTES)
        );
    }

    #[test]
    fn invalidate_operand_is_new_layout_line() {
        let p = linear_program(&[60, 60, 60]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        // Victim: first byte of block 2 (old layout).
        let victim = CodeLoc::new(BlockId::new(2), 0);
        let old_line = layout.line_of(victim);
        let mut plan = InjectionPlan::new();
        plan.push(Injection {
            cue: BlockId::new(0),
            victim,
        });
        let rw = rewrite(&p, &layout, &plan);
        let new_line = rw.layout.line_of(victim);
        // Injection shifted block 2 by 7 bytes, may or may not move it to
        // another line, but operand must equal new layout's line.
        assert_eq!(
            invalidate_operands(&rw.program, BlockId::new(0)),
            [new_line]
        );
        let mapper = LineMapper::new(&p, &layout, &rw.layout);
        assert_eq!(mapper.map(old_line), new_line);
    }

    #[test]
    fn plan_deduplicates() {
        let mut plan = InjectionPlan::new();
        let inj = Injection {
            cue: BlockId::new(0),
            victim: CodeLoc::new(BlockId::new(1), 0),
        };
        plan.push(inj);
        plan.push(inj);
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn plan_from_iterator() {
        let inj = Injection {
            cue: BlockId::new(0),
            victim: CodeLoc::new(BlockId::new(1), 0),
        };
        let plan: InjectionPlan = vec![inj, inj].into_iter().collect();
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }

    #[test]
    fn rewritten_program_still_validates() {
        let p = linear_program(&[32, 32, 16]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let mut plan = InjectionPlan::new();
        plan.push(Injection {
            cue: BlockId::new(1),
            victim: CodeLoc::new(BlockId::new(0), 0),
        });
        plan.push(Injection {
            cue: BlockId::new(1),
            victim: CodeLoc::new(BlockId::new(2), 4),
        });
        let rw = rewrite(&p, &layout, &plan);
        rw.program.validate().expect("rewritten program is valid");
        assert_eq!(rw.program.injected_instruction_count(), 2);
        // Original instruction stream is preserved.
        for (old, new) in p.blocks().iter().zip(rw.program.blocks()) {
            assert_eq!(old.instructions(), new.original_instructions());
        }
    }

    #[test]
    fn mapper_follows_shifted_lines() {
        // Two 64-byte blocks, line-aligned. Injecting 7 bytes into block 0
        // shifts block 1 into the next line region.
        let p = linear_program(&[64, 64]);
        let layout = Layout::new(&p, &LayoutConfig::default());
        let b1_old_line = layout.block_addr(BlockId::new(1)).line();
        let mut plan = InjectionPlan::new();
        plan.push(Injection {
            cue: BlockId::new(0),
            victim: CodeLoc::new(BlockId::new(1), 0),
        });
        let rw = rewrite(&p, &layout, &plan);
        let b1_new_line = rw.layout.block_addr(BlockId::new(1)).line();
        let mapper = LineMapper::new(&p, &layout, &rw.layout);
        assert_eq!(mapper.map(b1_old_line), b1_new_line);
    }

    #[test]
    fn sub_line_alignment_operands_follow_line_mapper() {
        // function_align = 16 lets functions share cache lines; the
        // property tests cover only the default 64-byte alignment.
        let p = multi_function_program(&[&[10], &[10], &[10]]);
        let config = LayoutConfig {
            function_align: 16,
            ..LayoutConfig::default()
        };
        let layout = Layout::new(&p, &config);
        let plan: InjectionPlan = [inj(0, 1, 0), inj(2, 0, 0), inj(0, 2, 4)]
            .into_iter()
            .collect();
        let rw = rewrite(&p, &layout, &plan);
        let mapper = LineMapper::new(&p, &layout, &rw.layout);
        let mut expected: HashMap<BlockId, Vec<LineAddr>> = HashMap::new();
        for inj in plan.injections() {
            expected
                .entry(inj.cue)
                .or_default()
                .push(mapper.map(layout.line_of(inj.victim)));
        }
        for block in rw.program.blocks() {
            let want = expected.remove(&block.id()).unwrap_or_default();
            assert_eq!(invalidate_operands(&rw.program, block.id()), want);
        }
        assert_eq!(rw.layout, Layout::new(&rw.program, &config));
    }

    /// A relinked program with two slots in block 0, one in block 2 and
    /// none in block 1.
    fn slotted() -> (Rewritten, LayoutConfig) {
        let p = linear_program(&[32, 32, 16]);
        let config = LayoutConfig::default();
        let layout = Layout::new(&p, &config);
        let plan: InjectionPlan = [inj(0, 2, 0), inj(0, 1, 0), inj(2, 0, 0)]
            .into_iter()
            .collect();
        (rewrite(&p, &layout, &plan), config)
    }

    #[test]
    fn patch_keeps_the_relinked_layout() {
        let (mut rw, config) = slotted();
        let assignments = HashMap::from([
            (BlockId::new(0), vec![LineAddr::new(7)]),
            (BlockId::new(2), vec![LineAddr::new(3)]),
        ]);
        patch_invalidates(&mut rw.program, &assignments);
        assert_eq!(Layout::new(&rw.program, &config), rw.layout);
    }

    #[test]
    fn patch_pads_unassigned_slots_with_noop_line() {
        let (mut rw, _) = slotted();
        let assignments = HashMap::from([(BlockId::new(0), vec![LineAddr::new(7)])]);
        patch_invalidates(&mut rw.program, &assignments);
        assert_eq!(
            invalidate_operands(&rw.program, BlockId::new(0)),
            [LineAddr::new(7), NOOP_LINE]
        );
        assert_eq!(
            invalidate_operands(&rw.program, BlockId::new(2)),
            [NOOP_LINE]
        );
    }

    #[test]
    fn patch_keeps_assignment_order() {
        let (mut rw, _) = slotted();
        let lines = vec![LineAddr::new(9), LineAddr::new(2)];
        let assignments = HashMap::from([(BlockId::new(0), lines.clone())]);
        patch_invalidates(&mut rw.program, &assignments);
        assert_eq!(invalidate_operands(&rw.program, BlockId::new(0)), lines);
    }

    #[test]
    fn patch_leaves_slotless_blocks_untouched() {
        let (mut rw, _) = slotted();
        let before = rw.program.block(BlockId::new(1)).clone();
        let assignments = HashMap::from([
            (BlockId::new(0), vec![LineAddr::new(7), LineAddr::new(8)]),
            (BlockId::new(2), vec![LineAddr::new(3)]),
        ]);
        patch_invalidates(&mut rw.program, &assignments);
        assert_eq!(rw.program.block(BlockId::new(1)), &before);
    }

    #[test]
    #[should_panic(expected = "invalidate slots")]
    fn patch_panics_on_assignment_to_a_slotless_block() {
        let (mut rw, _) = slotted();
        let lines = vec![LineAddr::new(1)];
        patch_invalidates(&mut rw.program, &HashMap::from([(BlockId::new(1), lines)]));
    }

    #[test]
    #[should_panic(expected = "invalidate slots")]
    fn patch_panics_on_over_assignment() {
        let (mut rw, _) = slotted();
        let lines = vec![LineAddr::new(1); 2];
        patch_invalidates(&mut rw.program, &HashMap::from([(BlockId::new(2), lines)]));
    }
}
