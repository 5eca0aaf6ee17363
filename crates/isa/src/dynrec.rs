//! Dynamic instruction records — the trace format every analysis consumes.
//!
//! One [`DynInstr`] is the information an ATOM instrumentation routine
//! would capture per executed instruction: the PC, the ordered sequence of
//! (location, value) pairs the instruction *read*, the ordered sequence it
//! *wrote*, the class (for latency lookup), and the address of the next
//! instruction executed. The paper's definitions map directly onto it:
//!
//! * an instruction's **input** is its read sequence (`IL`/`IV` in the
//!   appendix), covering register sources *and* the memory word a load
//!   reads;
//! * its **output** is the write sequence (`OL`/`OV`), covering the
//!   destination register or the memory word a store writes;
//! * instruction-level reusability compares the input signature against
//!   previously observed inputs of the same static instruction (same PC).

use crate::latency::OpClass;
use crate::reg::Loc;
use tlr_util::fxhash::Signature128;
use tlr_util::InlineVec;

/// Maximum locations an instruction can read: a load reads base register +
/// memory word (2); a store reads value + base (2); a three-register FP op
/// reads 2; `JmpReg` reads 1. The extra headroom is for future ops.
pub const MAX_READS: usize = 4;

/// Maximum locations an instruction can write: one register or one memory
/// word, plus headroom for link-register writes by `jsr` (link only = 1).
pub const MAX_WRITES: usize = 2;

/// The read set of a dynamic instruction (ordered as performed).
pub type ReadSet = InlineVec<(Loc, u64), MAX_READS>;

/// The write set of a dynamic instruction (ordered as performed).
pub type WriteSet = InlineVec<(Loc, u64), MAX_WRITES>;

/// One executed instruction, as observed by the instrumentation layer.
#[derive(Clone, Debug, PartialEq)]
pub struct DynInstr {
    /// Address (instruction index) of this instruction.
    pub pc: u32,
    /// Address of the next instruction executed after this one.
    pub next_pc: u32,
    /// Latency class.
    pub class: OpClass,
    /// Ordered (location, value) pairs read.
    pub reads: ReadSet,
    /// Ordered (location, value) pairs written.
    pub writes: WriteSet,
}

/// A blank record (PC 0, class [`OpClass::Nop`], no reads or writes):
/// the buffer a caller hands `tlr_vm::Vm::step_into` to fill in place.
impl Default for DynInstr {
    fn default() -> Self {
        Self {
            pc: 0,
            next_pc: 0,
            class: OpClass::Nop,
            reads: ReadSet::new(),
            writes: WriteSet::new(),
        }
    }
}

impl DynInstr {
    /// 128-bit signature of the instruction's input: folds the ordered
    /// read locations and their values. Two dynamic instances of the same
    /// static instruction with equal signatures have (up to hash
    /// collision) identical inputs, hence identical outputs — the
    /// instruction-level reuse test of §4.2.
    ///
    /// The *locations* are folded as well as the values because a load may
    /// read a different address (different base register value) whose cell
    /// happens to contain the same value; the paper's input definition
    /// includes the identity of the storage location.
    pub fn input_signature(&self) -> u128 {
        let mut sig = Signature128::new(self.pc as u64);
        for (loc, value) in self.reads.iter() {
            sig.push(loc.encode());
            sig.push(*value);
        }
        sig.finish()
    }

    /// 128-bit signature of the instruction's output (locations + values +
    /// next PC). Used by tests to assert the determinism property that the
    /// reuse test relies on: equal inputs ⇒ equal outputs.
    pub fn output_signature(&self) -> u128 {
        let mut sig = Signature128::new(!(self.pc as u64));
        for (loc, value) in self.writes.iter() {
            sig.push(loc.encode());
            sig.push(*value);
        }
        sig.push(self.next_pc as u64);
        sig.finish()
    }

    /// `true` when this instruction wrote to `loc`.
    pub fn writes_loc(&self, loc: Loc) -> bool {
        self.writes.iter().any(|(l, _)| *l == loc)
    }

    /// `true` if the instruction is a taken or not-taken branch-class op.
    pub fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }

    /// Number of memory locations in the read set.
    pub fn mem_reads(&self) -> usize {
        self.reads.iter().filter(|(l, _)| l.is_mem()).count()
    }

    /// Number of memory locations in the write set.
    pub fn mem_writes(&self) -> usize {
        self.writes.iter().filter(|(l, _)| l.is_mem()).count()
    }
}

/// Streaming consumer of dynamic instructions.
///
/// The functional simulator pushes each executed instruction to a sink so
/// that analyses never materialize multi-million-record traces. Sinks
/// compose via [`Tee`].
pub trait StreamSink {
    /// Observe one executed instruction.
    fn observe(&mut self, d: &DynInstr);

    /// Called once when the producing run finishes (normally or on budget
    /// exhaustion). Default: nothing.
    fn finish(&mut self) {}
}

/// A sink that discards everything (for pure-execution timing runs).
#[derive(Default, Clone, Copy, Debug)]
pub struct NullSink;

impl StreamSink for NullSink {
    #[inline]
    fn observe(&mut self, _d: &DynInstr) {}
}

/// A sink that stores every record (tests and small examples only).
#[derive(Default, Debug)]
pub struct CollectSink {
    /// Collected records in execution order.
    pub records: Vec<DynInstr>,
}

impl StreamSink for CollectSink {
    #[inline]
    fn observe(&mut self, d: &DynInstr) {
        self.records.push(d.clone());
    }
}

/// Fan one stream out to two sinks.
pub struct Tee<'a, A: StreamSink, B: StreamSink> {
    /// First sink.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<'a, A: StreamSink, B: StreamSink> StreamSink for Tee<'a, A, B> {
    #[inline]
    fn observe(&mut self, d: &DynInstr) {
        self.a.observe(d);
        self.b.observe(d);
    }

    fn finish(&mut self) {
        self.a.finish();
        self.b.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(pc: u32, reads: &[(Loc, u64)], writes: &[(Loc, u64)]) -> DynInstr {
        DynInstr {
            pc,
            next_pc: pc + 1,
            class: OpClass::IntAlu,
            reads: reads.iter().copied().collect(),
            writes: writes.iter().copied().collect(),
        }
    }

    #[test]
    fn input_signature_depends_on_values() {
        let a = sample(5, &[(Loc::IntReg(1), 10), (Loc::IntReg(2), 20)], &[]);
        let b = sample(5, &[(Loc::IntReg(1), 10), (Loc::IntReg(2), 21)], &[]);
        let c = sample(5, &[(Loc::IntReg(1), 10), (Loc::IntReg(2), 20)], &[]);
        assert_ne!(a.input_signature(), b.input_signature());
        assert_eq!(a.input_signature(), c.input_signature());
    }

    #[test]
    fn input_signature_depends_on_locations() {
        let a = sample(5, &[(Loc::IntReg(1), 10)], &[]);
        let b = sample(5, &[(Loc::IntReg(2), 10)], &[]);
        let c = sample(5, &[(Loc::Mem(1), 10)], &[]);
        assert_ne!(a.input_signature(), b.input_signature());
        assert_ne!(a.input_signature(), c.input_signature());
    }

    #[test]
    fn input_signature_depends_on_pc() {
        let a = sample(5, &[(Loc::IntReg(1), 10)], &[]);
        let b = sample(6, &[(Loc::IntReg(1), 10)], &[]);
        assert_ne!(a.input_signature(), b.input_signature());
    }

    #[test]
    fn mem_counts() {
        let d = sample(
            0,
            &[(Loc::IntReg(1), 1), (Loc::Mem(100), 2)],
            &[(Loc::IntReg(3), 2)],
        );
        assert_eq!(d.mem_reads(), 1);
        assert_eq!(d.mem_writes(), 0);
    }

    #[test]
    fn tee_feeds_both() {
        let mut a = CollectSink::default();
        let mut b = CollectSink::default();
        {
            let mut tee = Tee {
                a: &mut a,
                b: &mut b,
            };
            tee.observe(&sample(1, &[], &[]));
            tee.observe(&sample(2, &[], &[]));
        }
        assert_eq!(a.records.len(), 2);
        assert_eq!(b.records.len(), 2);
        assert_eq!(a.records[1].pc, 2);
    }
}
