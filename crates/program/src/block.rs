//! Basic blocks.

use crate::ids::{BlockId, FuncId};
use crate::inst::{InstKind, Instruction};

/// A basic block: a straight-line sequence of instructions whose only
/// control transfer (if any) is its final, terminating instruction.
///
/// After Ripple rewrites a program, a block may additionally carry a prefix
/// of injected [`InstKind::Invalidate`] instructions before its original
/// instructions; [`BasicBlock::injected_prefix_len`] exposes where the
/// original code begins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    id: BlockId,
    func: FuncId,
    pos_in_func: u32,
    instructions: Vec<Instruction>,
    injected_prefix: u32,
}

impl BasicBlock {
    pub(crate) fn new(
        id: BlockId,
        func: FuncId,
        pos_in_func: u32,
        instructions: Vec<Instruction>,
    ) -> Self {
        BasicBlock {
            id,
            func,
            pos_in_func,
            instructions,
            injected_prefix: 0,
        }
    }

    /// This block's id.
    #[inline]
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// The function this block belongs to.
    #[inline]
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// Zero-based position of this block within its function's block list.
    #[inline]
    pub fn pos_in_func(&self) -> u32 {
        self.pos_in_func
    }

    /// All instructions, including any injected invalidation prefix.
    #[inline]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// The number of injected invalidation instructions at the head of this
    /// block (zero for blocks Ripple has not touched).
    #[inline]
    pub fn injected_prefix_len(&self) -> u32 {
        self.injected_prefix
    }

    /// The block's original instructions, excluding any injected prefix.
    #[inline]
    pub fn original_instructions(&self) -> &[Instruction] {
        &self.instructions[self.injected_prefix as usize..]
    }

    /// Byte size of the injected prefix.
    pub fn injected_prefix_bytes(&self) -> u32 {
        self.instructions[..self.injected_prefix as usize]
            .iter()
            .map(|i| u32::from(i.size_bytes()))
            .sum()
    }

    /// Total encoded size of the block in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.instructions
            .iter()
            .map(|i| u32::from(i.size_bytes()))
            .sum()
    }

    /// Number of instructions (including injected ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the block has no instructions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The block's terminator, if its last instruction transfers control.
    ///
    /// Blocks without a terminator fall through to the next block in
    /// function order.
    pub fn terminator(&self) -> Option<InstKind> {
        self.instructions
            .last()
            .map(|i| i.kind())
            .filter(|k| k.is_terminator())
    }

    /// Appends an instruction. Used only by the builder; blocks are
    /// immutable once a [`Program`](crate::Program) has been finished.
    pub(crate) fn push(&mut self, inst: Instruction) {
        self.instructions.push(inst);
    }

    /// Injects `invalidates` at the head of this block, recording them as
    /// prefix instructions. Used by the rewriter.
    pub(crate) fn inject_prefix(&mut self, invalidates: Vec<Instruction>) {
        debug_assert!(
            invalidates.iter().all(|i| i.kind().is_invalidate()),
            "only invalidate instructions may be injected"
        );
        let n = invalidates.len() as u32;
        let mut v = invalidates;
        v.extend_from_slice(&self.instructions);
        self.instructions = v;
        self.injected_prefix += n;
    }

    /// Rewrites injected invalidate operands in place. Used by the rewriter
    /// after relinking to translate old-layout lines to new-layout lines.
    pub(crate) fn map_invalidate_operands(
        &mut self,
        mut f: impl FnMut(crate::addr::LineAddr) -> crate::addr::LineAddr,
    ) {
        for inst in &mut self.instructions[..self.injected_prefix as usize] {
            if let InstKind::Invalidate { line } = inst.kind() {
                *inst = Instruction::invalidate(f(line));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;

    fn sample_block() -> BasicBlock {
        BasicBlock::new(
            BlockId::new(0),
            FuncId::new(0),
            0,
            vec![
                Instruction::other(4),
                Instruction::other(3),
                Instruction::ret(),
            ],
        )
    }

    #[test]
    fn size_and_terminator() {
        let b = sample_block();
        assert_eq!(b.size_bytes(), 8);
        assert_eq!(b.terminator(), Some(InstKind::Return));
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn fallthrough_block_has_no_terminator() {
        let b = BasicBlock::new(
            BlockId::new(1),
            FuncId::new(0),
            1,
            vec![Instruction::other(4)],
        );
        assert_eq!(b.terminator(), None);
    }

    #[test]
    fn inject_prefix_tracks_original_instructions() {
        let mut b = sample_block();
        let original = b.instructions().to_vec();
        b.inject_prefix(vec![
            Instruction::invalidate(LineAddr::new(5)),
            Instruction::invalidate(LineAddr::new(9)),
        ]);
        assert_eq!(b.injected_prefix_len(), 2);
        assert_eq!(b.original_instructions(), &original[..]);
        assert_eq!(b.injected_prefix_bytes(), 14);
        assert_eq!(b.size_bytes(), 8 + 14);
        // Terminator is unchanged.
        assert_eq!(b.terminator(), Some(InstKind::Return));
    }

    #[test]
    fn map_invalidate_operands_only_touches_prefix() {
        let mut b = sample_block();
        b.inject_prefix(vec![Instruction::invalidate(LineAddr::new(5))]);
        b.map_invalidate_operands(|l| LineAddr::new(l.index() + 100));
        match b.instructions()[0].kind() {
            InstKind::Invalidate { line } => assert_eq!(line, LineAddr::new(105)),
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(b.original_instructions(), sample_block().instructions());
    }
}
