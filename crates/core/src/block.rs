//! Straight-line trace blocks — the fast-path form of an RTM entry.
//!
//! The plain reuse test probes the RTM through a `Fn(Loc) -> u64`
//! closure ([`crate::ReuseTraceMemory::lookup`]) and applies a hit's
//! outputs through [`Vm::apply_trace`]'s per-location dispatch. That is
//! faithful to §3.3 but pays enum matching on the hottest path of the
//! whole simulator.
//!
//! A [`TraceBlock`] is the same trace *pre-validated and flattened*: the
//! live-in check list and live-out write list split by storage class
//! (integer registers, FP registers, memory words), the zero-register
//! cases resolved once at build time, and the recorded next PC checked
//! against the program bounds once instead of per application — the
//! trace-level analogue of a JIT'd superblock. Blocks are cached lazily
//! per RTM entry and discarded whenever the underlying record changes
//! (conflict replacement, merge, eviction), so they can never serve
//! stale state.

use tlr_isa::{ClassMix, Loc};
use tlr_vm::Vm;

use crate::trace::TraceRecord;

/// A [`TraceRecord`] compiled into flat check/apply lists against a
/// specific program length. Build with [`TraceBlock::build`]; probe with
/// [`TraceBlock::matches`]; commit with [`TraceBlock::apply`].
#[derive(Clone, Debug)]
pub struct TraceBlock {
    next_pc: u32,
    len: u32,
    mix: ClassMix,
    /// `next_pc` is inside the program (checked once at build).
    next_pc_ok: bool,
    /// `false` when a live-in can never match current state (a recorded
    /// nonzero read of the hardwired zero register).
    matchable: bool,
    ireg_ins: Box<[(u8, u64)]>,
    freg_ins: Box<[(u8, u64)]>,
    mem_ins: Box<[(u64, u64)]>,
    ireg_outs: Box<[(u8, u64)]>,
    freg_outs: Box<[(u8, u64)]>,
    mem_outs: Box<[(u64, u64)]>,
}

impl TraceBlock {
    /// Flatten `rec` against a program of `code_len` instructions.
    ///
    /// Zero-register semantics are resolved here, mirroring what
    /// [`Vm::peek_loc`] / [`Vm::poke_loc`] would do per access: a
    /// recorded live-in of `r31`/`f31` with value zero is always
    /// satisfied (dropped from the check list), with a nonzero value is
    /// never satisfied (the block is marked unmatchable), and outputs to
    /// `r31`/`f31` are discarded.
    pub fn build(rec: &TraceRecord, code_len: usize) -> TraceBlock {
        let mut matchable = true;
        let mut ireg_ins = Vec::new();
        let mut freg_ins = Vec::new();
        let mut mem_ins = Vec::new();
        for &(loc, value) in rec.ins.iter() {
            match loc {
                Loc::IntReg(31) | Loc::FpReg(31) => {
                    if value != 0 {
                        matchable = false;
                    }
                }
                Loc::IntReg(n) => ireg_ins.push((n, value)),
                Loc::FpReg(n) => freg_ins.push((n, value)),
                Loc::Mem(addr) => mem_ins.push((addr, value)),
            }
        }
        let mut ireg_outs = Vec::new();
        let mut freg_outs = Vec::new();
        let mut mem_outs = Vec::new();
        for &(loc, value) in rec.outs.iter() {
            match loc {
                Loc::IntReg(31) | Loc::FpReg(31) => {}
                Loc::IntReg(n) => ireg_outs.push((n, value)),
                Loc::FpReg(n) => freg_outs.push((n, value)),
                Loc::Mem(addr) => mem_outs.push((addr, value)),
            }
        }
        TraceBlock {
            next_pc: rec.next_pc,
            len: rec.len,
            mix: rec.mix,
            next_pc_ok: (rec.next_pc as usize) < code_len,
            matchable,
            ireg_ins: ireg_ins.into_boxed_slice(),
            freg_ins: freg_ins.into_boxed_slice(),
            mem_ins: mem_ins.into_boxed_slice(),
            ireg_outs: ireg_outs.into_boxed_slice(),
            freg_outs: freg_outs.into_boxed_slice(),
            mem_outs: mem_outs.into_boxed_slice(),
        }
    }

    /// The reuse test: do all live-ins match current architectural
    /// state? Flat slice scans — no closure, no `Loc` dispatch.
    #[inline]
    pub fn matches(&self, vm: &Vm) -> bool {
        self.matchable
            && self
                .ireg_ins
                .iter()
                .all(|&(n, v)| vm.iregs()[n as usize] == v)
            && self
                .freg_ins
                .iter()
                .all(|&(n, v)| vm.fregs()[n as usize].to_bits() == v)
            && self.mem_ins.iter().all(|&(a, v)| vm.memory().read(a) == v)
    }

    /// Commit the trace: write every live-out and jump to the recorded
    /// next PC. Callers must have checked [`TraceBlock::pre_validated`];
    /// this is the unchecked-apply half of what [`Vm::apply_trace`] does.
    #[inline]
    pub fn apply(&self, vm: &mut Vm) {
        debug_assert!(self.next_pc_ok);
        for &(n, v) in self.ireg_outs.iter() {
            vm.iregs_mut()[n as usize] = v;
        }
        for &(n, v) in self.freg_outs.iter() {
            vm.fregs_mut()[n as usize] = f64::from_bits(v);
        }
        for &(a, v) in self.mem_outs.iter() {
            vm.memory_mut().write(a, v);
        }
        vm.set_pc(self.next_pc);
    }

    /// Whether the recorded next PC was inside the program at build time.
    /// A matching block that fails this check must surface the same
    /// [`tlr_vm::VmError::BadJumpTarget`] the reference path would.
    #[inline]
    pub fn pre_validated(&self) -> bool {
        self.next_pc_ok
    }

    /// Where control resumes after the block.
    #[inline]
    pub fn next_pc(&self) -> u32 {
        self.next_pc
    }

    /// Dynamic instructions the block covers.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` for a degenerate zero-length block.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-class histogram of the covered instructions.
    #[inline]
    pub fn mix(&self) -> ClassMix {
        self.mix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_asm::assemble;

    fn rec(ins: &[(Loc, u64)], outs: &[(Loc, u64)], next_pc: u32) -> TraceRecord {
        TraceRecord {
            start_pc: 0,
            next_pc,
            len: 3,
            ins: ins.to_vec().into_boxed_slice(),
            outs: outs.to_vec().into_boxed_slice(),
            mix: ClassMix::default(),
        }
    }

    fn vm() -> Vm {
        Vm::new(&assemble("nop\nnop\nnop\nhalt\n").unwrap())
    }

    #[test]
    fn matches_and_applies_like_the_reference_path() {
        let mut vm = vm();
        vm.poke_loc(Loc::IntReg(3), 7);
        vm.poke_loc(Loc::FpReg(1), 1.5f64.to_bits());
        vm.poke_loc(Loc::Mem(100), 42);
        let r = rec(
            &[
                (Loc::IntReg(3), 7),
                (Loc::FpReg(1), 1.5f64.to_bits()),
                (Loc::Mem(100), 42),
            ],
            &[
                (Loc::IntReg(4), 9),
                (Loc::FpReg(2), 2.5f64.to_bits()),
                (Loc::Mem(101), 11),
            ],
            3,
        );
        let block = TraceBlock::build(&r, vm.code_len());
        assert!(block.pre_validated());
        assert!(block.matches(&vm));
        assert_eq!(block.len(), 3);
        assert!(!block.is_empty());

        // Reference path on a twin VM.
        let mut reference = self::vm();
        reference.poke_loc(Loc::IntReg(3), 7);
        reference.poke_loc(Loc::FpReg(1), 1.5f64.to_bits());
        reference.poke_loc(Loc::Mem(100), 42);
        reference
            .apply_trace(r.outs.iter().copied(), r.next_pc)
            .unwrap();

        block.apply(&mut vm);
        assert_eq!(vm.pc(), 3);
        assert_eq!(vm.state_digest(), reference.state_digest());

        // A changed live-in stops the block from matching.
        vm.poke_loc(Loc::IntReg(3), 8);
        assert!(!block.matches(&vm));
    }

    #[test]
    fn zero_register_semantics_resolved_at_build() {
        let vm = vm();
        // r31 live-in of zero is vacuously satisfied; outputs to r31/f31
        // are discarded.
        let ok = rec(
            &[(Loc::IntReg(31), 0), (Loc::FpReg(31), 0)],
            &[(Loc::IntReg(31), 5), (Loc::FpReg(31), 5)],
            1,
        );
        let block = TraceBlock::build(&ok, vm.code_len());
        assert!(block.matches(&vm));
        let mut vm2 = self::vm();
        block.apply(&mut vm2);
        assert_eq!(vm2.peek_loc(Loc::IntReg(31)), 0);
        assert_eq!(vm2.peek_loc(Loc::FpReg(31)), 0);

        // A nonzero r31 live-in can never match (peek_loc reads 0).
        let never = rec(&[(Loc::IntReg(31), 3)], &[], 1);
        assert!(!TraceBlock::build(&never, vm.code_len()).matches(&vm));
    }

    #[test]
    fn out_of_range_next_pc_fails_pre_validation() {
        let r = rec(&[], &[], 99);
        let block = TraceBlock::build(&r, 4);
        assert!(!block.pre_validated());
        // In-range boundary: pc == code_len is out of range.
        assert!(!TraceBlock::build(&rec(&[], &[], 4), 4).pre_validated());
        assert!(TraceBlock::build(&rec(&[], &[], 3), 4).pre_validated());
    }
}
