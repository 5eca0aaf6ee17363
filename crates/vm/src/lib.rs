#![warn(missing_docs)]
//! # tlr-vm
//!
//! The functional simulator: executes a [`tlr_asm::Program`] and emits one
//! [`tlr_isa::DynInstr`] per executed instruction through a streaming
//! [`tlr_isa::StreamSink`]. This is the workspace's substitute for the
//! paper's ATOM-instrumented Alpha binaries: the record carries exactly
//! the information an instrumentation routine observes — PC, the ordered
//! (location, value) pairs read and written, and the next PC.
//!
//! Two capabilities beyond plain execution exist for the reuse study:
//!
//! * **architectural peeks** ([`Vm::peek_loc`]) — the RTM reuse test must
//!   compare a candidate trace's recorded live-in values against the
//!   *current* architectural state before deciding to skip the trace;
//! * **trace fast-forward** ([`Vm::apply_trace`]) — on a reuse hit the
//!   engine applies the recorded live-out values and jumps to the
//!   recorded next PC without executing (or even fetching) the skipped
//!   instructions, exactly the processor-state update of §3.3.
//!
//! Execution comes in two models sharing one predecoded dispatch table
//! ([`tlr_isa::Predecoded`], built once in [`Vm::new`]): the *observed*
//! step ([`Vm::step_into`], driven by [`Vm::run`]) fills a caller-owned
//! [`tlr_isa::DynInstr`] in place per instruction, while the *fast* path
//! ([`Vm::step_fast`]/[`Vm::run_fast`]) builds no record at all for when
//! nothing is consuming the dynamic stream. Both compute identical
//! architectural state.

mod memory;
mod vm;

pub use memory::Memory;
pub use vm::{FastStep, RunOutcome, StepResult, Vm, VmError};
