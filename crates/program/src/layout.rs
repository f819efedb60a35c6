//! The linker: assigns byte addresses to every basic block.
//!
//! Layout matters twice in the Ripple pipeline. First, it determines which
//! cache lines each basic block touches, which drives the whole I-cache
//! simulation. Second, injecting invalidation instructions grows blocks and
//! shifts every subsequent address — the "static and dynamic code bloat"
//! the paper charges against Ripple — so the same program is laid out twice
//! (before and after rewriting) and results are translated between the two
//! layouts by a [`LineMapper`](crate::LineMapper).

use crate::addr::{lines_spanning, Addr, LineAddr, LineSpan};
use crate::ids::{BlockId, CodeLoc};
use crate::program::Program;

/// Linker parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutConfig {
    /// Base address of the text segment.
    pub base_addr: Addr,
    /// Alignment of function entries (power of two).
    pub function_align: u64,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig {
            base_addr: Addr::new(0x0040_0000),
            // Cache-line-aligned function entries, as post-link optimizers
            // (BOLT, Propeller) emit for hot data center code. This also
            // confines injection-induced address shifts to the function
            // being rewritten, keeping the profile valid for the rest of
            // the binary.
            function_align: 64,
        }
    }
}

/// Address assignment for every block of a [`Program`].
///
/// # Examples
///
/// ```
/// use ripple_program::{CodeKind, Instruction, Layout, LayoutConfig, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// let main = b.add_function("main", CodeKind::Static);
/// let bb = b.add_block(main);
/// b.push_inst(bb, Instruction::other(4));
/// b.push_inst(bb, Instruction::ret());
/// let program = b.finish(main)?;
///
/// let layout = Layout::new(&program, &LayoutConfig::default());
/// assert_eq!(layout.block_addr(bb), LayoutConfig::default().base_addr);
/// assert_eq!(layout.lines_of_block(bb).count(), 1);
/// # Ok::<(), ripple_program::ValidateProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    config: LayoutConfig,
    block_addr: Vec<Addr>,
    block_size: Vec<u32>,
    /// Byte size of each block's injected invalidation prefix (so code
    /// locations expressed against original instructions can be resolved).
    block_prefix: Vec<u32>,
    /// Block indices in ascending address order: functions in id order,
    /// each function's blocks in layout order. Every block is non-empty,
    /// so the addresses are strictly ascending.
    by_addr: Vec<u32>,
    end: Addr,
}

impl Layout {
    /// Lays out `program` according to `config`.
    ///
    /// Functions are placed in id order at `function_align` boundaries;
    /// blocks are packed back-to-back inside each function, mirroring how a
    /// real linker emits a text section.
    pub fn new(program: &Program, config: &LayoutConfig) -> Self {
        let mut block_addr = vec![Addr::new(0); program.num_blocks()];
        let mut block_size = vec![0u32; program.num_blocks()];
        let mut block_prefix = vec![0u32; program.num_blocks()];
        let mut by_addr = Vec::with_capacity(program.num_blocks());
        let mut cursor = config.base_addr;
        for func in program.functions() {
            cursor = cursor.align_up(config.function_align);
            for &bid in func.blocks() {
                let block = program.block(bid);
                let size = block.size_bytes();
                block_addr[bid.index()] = cursor;
                block_size[bid.index()] = size;
                block_prefix[bid.index()] = block.injected_prefix_bytes();
                by_addr.push(bid.get());
                cursor = cursor.wrapping_add(u64::from(size));
            }
        }
        Layout {
            config: *config,
            block_addr,
            block_size,
            block_prefix,
            by_addr,
            end: cursor,
        }
    }

    /// The configuration this layout was produced with.
    #[inline]
    pub fn config(&self) -> &LayoutConfig {
        &self.config
    }

    /// Start address of a block.
    #[inline]
    pub fn block_addr(&self, id: BlockId) -> Addr {
        self.block_addr[id.index()]
    }

    /// Encoded size of a block in this layout.
    #[inline]
    pub fn block_size(&self, id: BlockId) -> u32 {
        self.block_size[id.index()]
    }

    /// One-past-the-end address of a block.
    #[inline]
    pub fn block_end(&self, id: BlockId) -> Addr {
        self.block_addr(id)
            .wrapping_add(u64::from(self.block_size(id)))
    }

    /// One-past-the-end address of the whole text segment.
    #[inline]
    pub fn end(&self) -> Addr {
        self.end
    }

    /// Total code bytes laid out (excluding alignment padding).
    pub fn code_bytes(&self) -> u64 {
        self.block_size.iter().map(|&s| u64::from(s)).sum()
    }

    /// Every cache line a block's instruction bytes touch, in fetch order.
    #[inline]
    pub fn lines_of_block(&self, id: BlockId) -> LineSpan {
        lines_spanning(self.block_addr(id), u64::from(self.block_size(id)))
    }

    /// Number of distinct cache lines in the text segment (static
    /// instruction footprint).
    pub fn footprint_lines(&self) -> u64 {
        let mut count = 0u64;
        let mut last: Option<LineAddr> = None;
        // In ascending address order, dedup against the previous line
        // suffices.
        for &i in &self.by_addr {
            let i = i as usize;
            for line in lines_spanning(self.block_addr[i], u64::from(self.block_size[i])) {
                if last != Some(line) {
                    count += 1;
                    last = Some(line);
                }
            }
        }
        count
    }

    /// The first and last cache line of the text segment, or `None` when
    /// the program has no code bytes.
    ///
    /// Every line any block touches falls inside this inclusive range; the
    /// simulator's line interner builds its dense table from it.
    pub fn line_bounds(&self) -> Option<(LineAddr, LineAddr)> {
        let mut first: Option<Addr> = None;
        let mut last_end: Option<Addr> = None;
        for i in 0..self.block_addr.len() {
            if self.block_size[i] == 0 {
                continue;
            }
            let start = self.block_addr[i];
            let end = start.wrapping_add(u64::from(self.block_size[i]));
            first = Some(first.map_or(start, |f| f.min(start)));
            last_end = Some(last_end.map_or(end, |l| l.max(end)));
        }
        let (first, last_end) = (first?, last_end?);
        Some((first.line(), Addr::new(last_end.get() - 1).line()))
    }

    /// Resolves a [`CodeLoc`] (block + offset into *original* instruction
    /// bytes) to a byte address in this layout, skipping any injected
    /// invalidation prefix.
    #[inline]
    pub fn addr_of(&self, loc: CodeLoc) -> Addr {
        self.block_addr(loc.block)
            .wrapping_add(u64::from(self.block_prefix[loc.block.index()]))
            .wrapping_add(u64::from(loc.offset))
    }

    /// Resolves a [`CodeLoc`] to the cache line holding that byte.
    #[inline]
    pub fn line_of(&self, loc: CodeLoc) -> LineAddr {
        self.addr_of(loc).line()
    }

    /// Finds the block containing byte address `addr`, if any, along with
    /// the offset into the block's *original* bytes.
    ///
    /// Bytes within an injected prefix report offset 0 of the same block.
    /// One binary search over the stored address order; no allocation.
    pub fn loc_of_addr(&self, addr: Addr) -> Option<CodeLoc> {
        let pos = self
            .by_addr
            .partition_point(|&i| self.block_addr[i as usize] <= addr);
        let i = self.by_addr[pos.checked_sub(1)?] as usize;
        let start = self.block_addr[i];
        let size = u64::from(self.block_size[i]);
        if addr.get() >= start.get() + size {
            return None;
        }
        let prefix = u64::from(self.block_prefix[i]);
        let raw_off = addr.get() - start.get();
        let offset = raw_off.saturating_sub(prefix) as u32;
        Some(CodeLoc::new(BlockId::new(i as u32), offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::CodeKind;
    use crate::inst::Instruction;
    use crate::program::ProgramBuilder;

    fn program_with_sizes(sizes: &[&[u8]]) -> Program {
        // One function per slice; each inner slice lists per-block byte
        // sizes (last instruction replaced by a 1-byte ret in final block).
        let mut b = ProgramBuilder::new();
        let mut entry = None;
        for (fi, blocks) in sizes.iter().enumerate() {
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

    #[test]
    fn blocks_are_packed_contiguously() {
        let p = program_with_sizes(&[&[10, 20, 5]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let base = LayoutConfig::default().base_addr;
        assert_eq!(l.block_addr(BlockId::new(0)), base);
        assert_eq!(l.block_addr(BlockId::new(1)), base.wrapping_add(10));
        assert_eq!(l.block_addr(BlockId::new(2)), base.wrapping_add(30));
        assert_eq!(l.end(), base.wrapping_add(35));
        assert_eq!(l.code_bytes(), 35);
    }

    #[test]
    fn functions_are_aligned() {
        let p = program_with_sizes(&[&[10], &[10]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let f1_addr = l.block_addr(BlockId::new(1));
        assert_eq!(f1_addr.get() % 16, 0);
        assert!(f1_addr > l.block_addr(BlockId::new(0)));
    }

    #[test]
    fn lines_of_block_spans_boundaries() {
        let p = program_with_sizes(&[&[100]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        // 100 bytes starting at a 64B-aligned base covers 2 lines.
        assert_eq!(l.lines_of_block(BlockId::new(0)).count(), 2);
    }

    #[test]
    fn footprint_counts_unique_lines() {
        let p = program_with_sizes(&[&[32, 32], &[64]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        // f0: 64 bytes = 1 line; f1 aligned to next 16B -> starts at +64,
        // also line-aligned here, 64 bytes = 1 line.
        assert_eq!(l.footprint_lines(), 2);
    }

    #[test]
    fn line_bounds_cover_every_block_line() {
        let p = program_with_sizes(&[&[10, 20], &[30, 5], &[100]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let (first, last) = l.line_bounds().unwrap();
        for i in 0..p.num_blocks() {
            for line in l.lines_of_block(BlockId::new(i as u32)) {
                assert!(first <= line && line <= last, "line {line} out of bounds");
            }
        }
        // The bounds are tight: both ends are touched by some block.
        assert_eq!(first, LayoutConfig::default().base_addr.line());
        let max_end = (0..p.num_blocks())
            .map(|i| l.block_end(BlockId::new(i as u32)).get())
            .max()
            .unwrap();
        assert_eq!(last, Addr::new(max_end - 1).line());
    }

    #[test]
    fn addr_of_loc_roundtrip() {
        let p = program_with_sizes(&[&[10, 20, 5]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let loc = CodeLoc::new(BlockId::new(1), 7);
        let addr = l.addr_of(loc);
        assert_eq!(l.loc_of_addr(addr), Some(loc));
    }

    #[test]
    fn loc_of_addr_outside_code() {
        let p = program_with_sizes(&[&[10]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        assert_eq!(l.loc_of_addr(Addr::new(0)), None);
        assert_eq!(l.loc_of_addr(l.end()), None);
    }

    #[test]
    fn non_overlapping_blocks() {
        let p = program_with_sizes(&[&[10, 20], &[30, 5], &[64]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let mut spans: Vec<(u64, u64)> = (0..p.num_blocks())
            .map(|i| {
                let b = BlockId::new(i as u32);
                (l.block_addr(b).get(), l.block_end(b).get())
            })
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "blocks overlap: {w:?}");
        }
    }
}
