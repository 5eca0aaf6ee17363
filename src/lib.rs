#![warn(missing_docs)]
//! # trace-reuse
//!
//! A from-scratch Rust reproduction of **"Trace-Level Reuse"**
//! (A. González, J. Tubella and C. Molina, *Proc. International
//! Conference on Parallel Processing*, 1999), including every substrate
//! the paper's evaluation depends on.
//!
//! Trace-level reuse buffers the live-in and live-out value sets of
//! dynamic instruction sequences in a *Reuse Trace Memory* (RTM). When
//! the program reaches the same starting PC with the same live-in values,
//! the processor skips fetching and executing the whole trace and applies
//! the recorded outputs instead — collapsing long dependence chains into
//! a single reuse operation, saving fetch bandwidth, and freeing
//! instruction-window entries.
//!
//! ## Workspace map
//!
//! | crate | contents |
//! |---|---|
//! | [`isa`] | Alpha-flavoured ISA, dynamic-instruction records, 21164 latency model |
//! | [`asm`] | two-pass assembler + programmatic builder |
//! | [`vm`] | functional simulator (the ATOM-instrumentation substitute) |
//! | [`workloads`] | 14 SPEC95-named kernels with dialled-in reuse profiles |
//! | [`timing`] | Austin–Sohi dependence analysis; infinite & finite windows |
//! | [`core`] | **the paper's contribution**: reusability tables, trace partitioning, the RTM, collection heuristics, the execution-driven engine, limit studies, theorems |
//! | [`decant`] | reuse attribution: decants the engine's decision tap by opcode class and loop structure, feeding measured policy weights |
//! | [`persist`] | durable trace state: record/replay streams, RTM snapshots, warm starts |
//! | [`serve`] | sharded registry of warm RTMs keyed by program fingerprint, with snapshot merging |
//! | [`pipeline`] | cycle-level superscalar with the RTM at fetch (§3) |
//! | [`stats`] | means, tables, histograms, charts |
//! | [`util`] | inline vectors, fx hashing, deterministic RNGs |
//!
//! ## Quick start
//!
//! ```
//! use trace_reuse::prelude::*;
//!
//! // 1. Get a workload (or assemble your own program).
//! let program = tlr_workloads::by_name("compress").unwrap().program_with(42, 10);
//!
//! // 2. Run the execution-driven reuse engine with a 4K-entry RTM.
//! let mut engine = TraceReuseEngine::new(
//!     &program,
//!     EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4)),
//! );
//! let stats = engine.run(50_000).unwrap();
//! println!("{:.1}% of instructions skipped via trace reuse", stats.pct_reused());
//! ```
//!
//! The `reproduce` binary (in `tlr-bench`) regenerates every table and
//! figure of the paper's evaluation: `cargo run --release -p tlr-bench
//! --bin reproduce`.

pub use tlr_asm as asm;
pub use tlr_core as core;
pub use tlr_decant as decant;
pub use tlr_isa as isa;
pub use tlr_persist as persist;
pub use tlr_pipeline as pipeline;
pub use tlr_serve as serve;
pub use tlr_stats as stats;
pub use tlr_timing as timing;
pub use tlr_util as util;
pub use tlr_vm as vm;
pub use tlr_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use tlr_asm::{assemble, Program, ProgramBuilder};
    pub use tlr_core::RtmSnapshot;
    pub use tlr_core::{
        ClassWeights, DecisionLog, EngineConfig, EngineStats, Heuristic, InstrReuseTable, IoCaps,
        LimitConfig, LimitStudySink, ReplacementPolicy, ReuseTraceMemory, RtmConfig, TraceKey,
        TraceMeta, TraceReuseEngine, LFU_HALF_LIFE,
    };
    pub use tlr_decant::{decant, Attribution, LoopDetector, LoopShape};
    pub use tlr_isa::{Alpha21164, ClassMix, CollectSink, DynInstr, Loc, NullSink, StreamSink};
    pub use tlr_persist::{PersistError, TraceReader, TraceWriter};
    pub use tlr_pipeline::{PipeConfig, Pipeline, ReuseConfig};
    pub use tlr_serve::{
        Daemon, DaemonHandle, RefreshTicker, RegistryConfig, RemoteRegistry, SnapshotRegistry,
    };
    pub use tlr_timing::{analyze_base, TimingSim, Window};
    pub use tlr_vm::{RunOutcome, Vm};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_work() {
        use crate::prelude::*;
        let program = assemble("li r1, 7\nhalt\n").unwrap();
        let mut vm = Vm::new(&program);
        let outcome = vm.run(10, &mut NullSink).unwrap();
        assert!(matches!(outcome, RunOutcome::Halted { executed: 1 }));
    }
}
