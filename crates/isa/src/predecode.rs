//! Predecoded program form — the dense dispatch table behind every
//! step of the VM.
//!
//! [`Instr`] is the *assembler's* view of an instruction: nested enums
//! ([`Operand`]), typed registers, and displacement/immediate fields that
//! still need sign-extension at execution time. Interpreting it directly
//! makes every step re-pay that decoding. [`Predecoded`] flattens a
//! program once into a table of [`POp`]s — raw register indices,
//! immediates pre-extended to 64 bits, the register/immediate operand
//! split resolved into distinct opcodes — plus a parallel table of
//! precomputed [`OpClass`]es, so the hot loop is a single `match` over a
//! dense, cache-friendly array with no per-step conversions.
//!
//! The table is pure derived data: it changes nothing observable about
//! execution. Both of `tlr-vm`'s step paths dispatch over it; its test
//! `run_records_match_fresh_step_records` (and
//! `run_records_match_fresh_step_records_on_every_workload` in
//! `tests/fast_engine.rs`) asserts that the records `Vm::run` refills in
//! one buffer equal freshly built `Vm::step` records field by field, and
//! `fast_path_matches_observed_execution` that the record-free path
//! reaches the same state.

use crate::instr::{BranchCond, FpCmpOp, FpOp, FpUnOp, Instr, IntOp, Operand};
use crate::latency::OpClass;

/// One predecoded operation. Register fields are raw indices in `0..32`
/// (`31` is the hardwired zero register); immediates and displacements
/// are pre-sign-extended to 64 bits so execution is a single wrapping
/// add; register-vs-immediate second operands are split into distinct
/// variants so the hot loop never re-inspects an [`Operand`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum POp {
    /// `rd = ra <op> rb` (register second operand).
    IntRR {
        /// Operation.
        op: IntOp,
        /// Destination register index.
        rd: u8,
        /// First source register index.
        ra: u8,
        /// Second source register index.
        rb: u8,
    },
    /// `rd = ra <op> imm` (immediate pre-extended to 64 bits).
    IntRI {
        /// Operation.
        op: IntOp,
        /// Destination register index.
        rd: u8,
        /// First source register index.
        ra: u8,
        /// Sign-extended immediate.
        imm: u64,
    },
    /// `rd = imm`.
    Li {
        /// Destination register index.
        rd: u8,
        /// Immediate bit pattern.
        imm: u64,
    },
    /// `fd = fa <op> fb`.
    Fp {
        /// Operation.
        op: FpOp,
        /// Destination FP register index.
        fd: u8,
        /// First source FP register index.
        fa: u8,
        /// Second source FP register index.
        fb: u8,
    },
    /// `fd = <op> fa`.
    FpUn {
        /// Operation.
        op: FpUnOp,
        /// Destination FP register index.
        fd: u8,
        /// Source FP register index.
        fa: u8,
    },
    /// `rd = (fa <cond> fb) as u64`.
    FpCmp {
        /// Predicate.
        op: FpCmpOp,
        /// Destination integer register index.
        rd: u8,
        /// First source FP register index.
        fa: u8,
        /// Second source FP register index.
        fb: u8,
    },
    /// `rd = MEM[base + disp]`.
    LoadInt {
        /// Destination register index.
        rd: u8,
        /// Base address register index.
        base: u8,
        /// Sign-extended word displacement.
        disp: u64,
    },
    /// `MEM[base + disp] = rs`.
    StoreInt {
        /// Value source register index.
        rs: u8,
        /// Base address register index.
        base: u8,
        /// Sign-extended word displacement.
        disp: u64,
    },
    /// `fd = MEM[base + disp]` as an IEEE double.
    LoadFp {
        /// Destination FP register index.
        fd: u8,
        /// Base address register index.
        base: u8,
        /// Sign-extended word displacement.
        disp: u64,
    },
    /// `MEM[base + disp] = fs` (bit pattern).
    StoreFp {
        /// Value source FP register index.
        fs: u8,
        /// Base address register index.
        base: u8,
        /// Sign-extended word displacement.
        disp: u64,
    },
    /// `fd = (ra as i64) as f64`.
    Itof {
        /// Destination FP register index.
        fd: u8,
        /// Source register index.
        ra: u8,
    },
    /// `rd = fa as i64` (saturating).
    Ftoi {
        /// Destination integer register index.
        rd: u8,
        /// Source FP register index.
        fa: u8,
    },
    /// Conditional branch on an integer register.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// Tested register index.
        ra: u8,
        /// Taken target (instruction index).
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Target (instruction index).
        target: u32,
    },
    /// Jump and link.
    Jsr {
        /// Link register index.
        link: u8,
        /// Target (instruction index).
        target: u32,
    },
    /// Indirect jump through a register.
    JmpReg {
        /// Register index holding the target.
        ra: u8,
    },
    /// Stop execution.
    Halt,
    /// No operation.
    Nop,
}

impl POp {
    /// Predecode one static instruction.
    pub fn of(instr: &Instr) -> POp {
        match *instr {
            Instr::IntOp { op, rd, ra, rb } => match rb {
                Operand::Reg(r) => POp::IntRR {
                    op,
                    rd: rd.index(),
                    ra: ra.index(),
                    rb: r.index(),
                },
                Operand::Imm(v) => POp::IntRI {
                    op,
                    rd: rd.index(),
                    ra: ra.index(),
                    imm: v as i64 as u64,
                },
            },
            Instr::Li { rd, imm } => POp::Li {
                rd: rd.index(),
                imm: imm as u64,
            },
            Instr::FpOp { op, fd, fa, fb } => POp::Fp {
                op,
                fd: fd.index(),
                fa: fa.index(),
                fb: fb.index(),
            },
            Instr::FpUn { op, fd, fa } => POp::FpUn {
                op,
                fd: fd.index(),
                fa: fa.index(),
            },
            Instr::FpCmp { op, rd, fa, fb } => POp::FpCmp {
                op,
                rd: rd.index(),
                fa: fa.index(),
                fb: fb.index(),
            },
            Instr::LoadInt { rd, base, disp } => POp::LoadInt {
                rd: rd.index(),
                base: base.index(),
                disp: disp as i64 as u64,
            },
            Instr::StoreInt { rs, base, disp } => POp::StoreInt {
                rs: rs.index(),
                base: base.index(),
                disp: disp as i64 as u64,
            },
            Instr::LoadFp { fd, base, disp } => POp::LoadFp {
                fd: fd.index(),
                base: base.index(),
                disp: disp as i64 as u64,
            },
            Instr::StoreFp { fs, base, disp } => POp::StoreFp {
                fs: fs.index(),
                base: base.index(),
                disp: disp as i64 as u64,
            },
            Instr::Itof { fd, ra } => POp::Itof {
                fd: fd.index(),
                ra: ra.index(),
            },
            Instr::Ftoi { rd, fa } => POp::Ftoi {
                rd: rd.index(),
                fa: fa.index(),
            },
            Instr::Branch { cond, ra, target } => POp::Branch {
                cond,
                ra: ra.index(),
                target,
            },
            Instr::Jump { target } => POp::Jump { target },
            Instr::Jsr { link, target } => POp::Jsr {
                link: link.index(),
                target,
            },
            Instr::JmpReg { ra } => POp::JmpReg { ra: ra.index() },
            Instr::Halt => POp::Halt,
            Instr::Nop => POp::Nop,
        }
    }
}

/// A program predecoded into dense dispatch form: one [`POp`] per static
/// instruction plus a parallel table of precomputed [`OpClass`]es. Built
/// once per program; indexed by PC on every step.
#[derive(Clone, Debug)]
pub struct Predecoded {
    ops: Box<[POp]>,
    classes: Box<[OpClass]>,
}

impl Predecoded {
    /// Predecode a program's instruction array.
    pub fn of(instrs: &[Instr]) -> Predecoded {
        Predecoded {
            ops: instrs.iter().map(POp::of).collect(),
            classes: instrs.iter().map(OpClass::of).collect(),
        }
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` for an empty program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The predecoded op at `pc`, or `None` past the end of the program.
    #[inline]
    pub fn op(&self, pc: u32) -> Option<POp> {
        self.ops.get(pc as usize).copied()
    }

    /// Precomputed class of the instruction at `pc`. Panics out of range
    /// (callers fetch the op first).
    #[inline]
    pub fn class(&self, pc: u32) -> OpClass {
        self.classes[pc as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{FReg, Reg};

    #[test]
    fn predecode_resolves_operand_split_and_extends_immediates() {
        let rr = Instr::IntOp {
            op: IntOp::Add,
            rd: Reg::new(1),
            ra: Reg::new(2),
            rb: Operand::Reg(Reg::new(3)),
        };
        assert_eq!(
            POp::of(&rr),
            POp::IntRR {
                op: IntOp::Add,
                rd: 1,
                ra: 2,
                rb: 3
            }
        );
        let ri = Instr::IntOp {
            op: IntOp::Sub,
            rd: Reg::new(1),
            ra: Reg::new(2),
            rb: Operand::Imm(-5),
        };
        assert_eq!(
            POp::of(&ri),
            POp::IntRI {
                op: IntOp::Sub,
                rd: 1,
                ra: 2,
                imm: (-5i64) as u64
            }
        );
        let ld = Instr::LoadInt {
            rd: Reg::new(4),
            base: Reg::new(5),
            disp: -1,
        };
        assert_eq!(
            POp::of(&ld),
            POp::LoadInt {
                rd: 4,
                base: 5,
                disp: u64::MAX
            }
        );
    }

    #[test]
    fn table_is_parallel_and_classes_precomputed() {
        let instrs = [
            Instr::Li {
                rd: Reg::new(1),
                imm: 7,
            },
            Instr::FpUn {
                op: FpUnOp::Sqrt,
                fd: FReg::new(0),
                fa: FReg::new(1),
            },
            Instr::Halt,
        ];
        let pre = Predecoded::of(&instrs);
        assert_eq!(pre.len(), 3);
        assert!(!pre.is_empty());
        for (pc, instr) in instrs.iter().enumerate() {
            assert_eq!(pre.op(pc as u32), Some(POp::of(instr)));
            assert_eq!(pre.class(pc as u32), OpClass::of(instr));
        }
        assert_eq!(pre.op(3), None);
        assert_eq!(pre.class(1), OpClass::FpSqrt);
    }
}
