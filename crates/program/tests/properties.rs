//! Property tests for the program model, linker and rewriter.

use proptest::prelude::*;
use ripple_program::{
    lines_spanning, rewrite, Addr, BlockId, CodeKind, CodeLoc, Injection, InjectionPlan,
    Instruction, Layout, LayoutConfig, LineMapper, Program, ProgramBuilder, CACHE_LINE_BYTES,
};

/// Strategy: a linear program of 1..=12 functions, each with 1..=8 blocks
/// of 1..=10 instructions with random sizes.
fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(1u8..=15, 1..=10), 1..=8),
        1..=12,
    )
    .prop_map(|functions| {
        let mut b = ProgramBuilder::new();
        let mut entry = None;
        for blocks in &functions {
            let f = b.add_function("f", CodeKind::Static);
            entry.get_or_insert(f);
            let n = blocks.len();
            for (bi, sizes) in blocks.iter().enumerate() {
                let blk = b.add_block(f);
                for &s in sizes {
                    b.push_inst(blk, Instruction::other(s));
                }
                if bi + 1 == n {
                    b.push_inst(blk, Instruction::ret());
                }
            }
        }
        b.finish(entry.unwrap()).expect("linear programs validate")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Layout places blocks without overlap and in ascending address
    /// order within a function.
    #[test]
    fn layout_is_non_overlapping(program in arb_program()) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        let mut spans: Vec<(u64, u64)> = (0..program.num_blocks())
            .map(|i| {
                let b = BlockId::new(i as u32);
                (layout.block_addr(b).get(), layout.block_end(b).get())
            })
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "blocks overlap: {w:?}");
        }
    }

    /// Every function entry is aligned as configured.
    #[test]
    fn layout_respects_function_alignment(program in arb_program()) {
        let cfg = LayoutConfig::default();
        let layout = Layout::new(&program, &cfg);
        for func in program.functions() {
            let entry = layout.block_addr(func.entry());
            prop_assert_eq!(entry.get() % cfg.function_align, 0);
        }
    }

    /// `loc_of_addr` inverts `addr_of` for every instruction boundary.
    #[test]
    fn loc_addr_roundtrip(program in arb_program()) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        for block in program.blocks() {
            let mut off = 0u32;
            for inst in block.instructions() {
                let loc = CodeLoc::new(block.id(), off);
                let addr = layout.addr_of(loc);
                prop_assert_eq!(layout.loc_of_addr(addr), Some(loc));
                off += u32::from(inst.size_bytes());
            }
        }
    }

    /// The static footprint in lines matches the code-byte count within
    /// one line per block boundary (padding can add at most that).
    #[test]
    fn footprint_bounds(program in arb_program()) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        let lines = layout.footprint_lines();
        let min_lines = layout.code_bytes().div_ceil(CACHE_LINE_BYTES);
        let max_lines = min_lines + program.num_blocks() as u64 + program.num_functions() as u64;
        prop_assert!(lines >= min_lines, "{lines} < {min_lines}");
        prop_assert!(lines <= max_lines, "{lines} > {max_lines}");
    }

    /// Rewriting with an arbitrary plan preserves the original instruction
    /// stream, keeps the program valid, and the line mapper tracks every
    /// victim line to the line holding the same first code byte.
    #[test]
    fn rewrite_preserves_code(
        program in arb_program(),
        picks in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
    ) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        let n = program.num_blocks();
        let mut plan = InjectionPlan::new();
        for (cue_raw, victim_raw) in picks {
            let cue = BlockId::new((cue_raw % n) as u32);
            let victim_block = BlockId::new((victim_raw % n) as u32);
            plan.push(Injection {
                cue,
                victim: CodeLoc::new(victim_block, 0),
            });
        }
        let rw = rewrite(&program, &layout, &plan);
        prop_assert!(rw.program.validate().is_ok());
        prop_assert_eq!(rw.program.injected_instruction_count(), plan.len() as u64);
        for (old, new) in program.blocks().iter().zip(rw.program.blocks()) {
            prop_assert_eq!(old.instructions(), new.original_instructions());
        }
        // Mapper: a line's identity follows its *first code byte* (which
        // may belong to an earlier block than the victim byte).
        let mapper = LineMapper::new(&program, &layout, &rw.layout);
        let origins = ripple_program::line_origins(&program, &layout);
        for inj in plan.injections() {
            let old_line = layout.line_of(inj.victim);
            let origin = origins[&old_line];
            prop_assert_eq!(mapper.map(old_line), rw.layout.line_of(origin));
        }
    }

    /// After a relink with an arbitrary plan, `loc_of_addr` still inverts
    /// `addr_of`, every injected-prefix byte resolves to offset 0 of its
    /// block, and padding between functions resolves to no block.
    #[test]
    fn relinked_layout_lookup(
        program in arb_program(),
        picks in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
    ) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        let n = program.num_blocks();
        let mut plan = InjectionPlan::new();
        for (cue_raw, victim_raw) in picks {
            plan.push(Injection {
                cue: BlockId::new((cue_raw % n) as u32),
                victim: CodeLoc::new(BlockId::new((victim_raw % n) as u32), 0),
            });
        }
        let rw = rewrite(&program, &layout, &plan);
        let relinked = &rw.layout;
        for block in rw.program.blocks() {
            let start = relinked.block_addr(block.id());
            for p in 0..block.injected_prefix_bytes() {
                prop_assert_eq!(
                    relinked.loc_of_addr(start.wrapping_add(u64::from(p))),
                    Some(CodeLoc::new(block.id(), 0))
                );
            }
            let mut off = 0u32;
            for inst in block.original_instructions() {
                let loc = CodeLoc::new(block.id(), off);
                prop_assert_eq!(relinked.loc_of_addr(relinked.addr_of(loc)), Some(loc));
                off += u32::from(inst.size_bytes());
            }
        }
        for pair in rw.program.functions().windows(2) {
            let gap_lo = relinked.block_end(*pair[0].blocks().last().unwrap()).get();
            let gap_hi = relinked.block_addr(pair[1].entry()).get();
            for a in gap_lo..gap_hi {
                prop_assert_eq!(relinked.loc_of_addr(Addr::new(a)), None);
            }
        }
    }

    /// `lines_spanning` covers exactly the bytes of the range.
    #[test]
    fn lines_spanning_exact(start in 0u64..10_000, len in 0u64..1_000) {
        let lines: Vec<_> = lines_spanning(Addr::new(start), len).collect();
        if len == 0 {
            prop_assert!(lines.is_empty());
        } else {
            prop_assert_eq!(lines.first().copied(), Some(Addr::new(start).line()));
            prop_assert_eq!(
                lines.last().copied(),
                Some(Addr::new(start + len - 1).line())
            );
            // Consecutive and gap-free.
            for w in lines.windows(2) {
                prop_assert_eq!(w[0].next(), w[1]);
            }
        }
    }
}
