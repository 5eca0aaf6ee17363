#![warn(missing_docs)]
//! # tlr-core — Trace-Level Reuse
//!
//! Reproduction of the central mechanism of *"Trace-Level Reuse"*
//! (A. González, J. Tubella, C. Molina — ICPP 1999): skipping the fetch
//! and execution of whole dynamic instruction sequences whose inputs
//! match a recorded previous execution.
//!
//! ## Map of the crate
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`ilr`] | §2, §4.2 | instruction-level reusability: infinite table and finite set-associative buffer |
//! | [`trace`] | §3.1 | live-in / live-out computation, I/O caps, trace records, merging (expansion) |
//! | [`rtm`] | §3.1, §4.6 | the Reuse Trace Memory: PC-indexed, set-associative |
//! | [`policy`] | ours | pluggable RTM replacement policies + per-trace provenance |
//! | [`collect`] | §3.2, §4.6 | dynamic trace collection heuristics: `ILR NE`, `ILR EXP`, `I(n) EXP` |
//! | [`engine`] | §3.3, §4.6 | the execution-driven reuse engine behind Figure 9 |
//! | [`block`] | ours | straight-line trace blocks: an RTM entry pre-validated and flattened for the fast path |
//! //! | [`valid_bit`] | §3.3 | the valid-bit + invalidation reuse test (the paper's "simpler" alternative) |
//! | [`schemes`] | §2 | Sodani & Sohi's Sv / Sn instruction-reuse buffer schemes |
//! | [`limits`] | §4.2–§4.5 | the infinite-history limit studies behind Figures 3–8 |
//! | [`theorems`] | §4.4, appendix | executable Theorems 1–4 |
//!
//! ## Quick start
//!
//! ```
//! use tlr_asm::assemble;
//! use tlr_core::{EngineConfig, Heuristic, RtmConfig, TraceReuseEngine};
//!
//! let program = assemble(
//!     r#"
//!         .org 0x100
//! tab:    .word 2, 4, 6, 8
//!         li      r9, 50
//! outer:  li      r1, tab
//!         li      r2, 4
//!         li      r5, 0
//! inner:  ldq     r3, 0(r1)
//!         addq    r5, r5, r3
//!         addq    r1, r1, 1
//!         subq    r2, r2, 1
//!         bnez    r2, inner
//!         stq     r5, 64(zero)
//!         subq    r9, r9, 1
//!         bnez    r9, outer
//!         halt
//!     "#,
//! )
//! .unwrap();
//!
//! let mut engine = TraceReuseEngine::new(
//!     &program,
//!     EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4)),
//! );
//! let stats = engine.run(100_000).unwrap();
//! assert!(stats.halted);
//! assert!(stats.pct_reused() > 10.0);
//! ```

pub mod block;
pub mod collect;
pub mod engine;
pub mod ilr;
pub mod limits;
pub mod policy;
pub mod rtm;
pub mod schemes;
pub mod theorems;
pub mod trace;
pub mod valid_bit;

pub use block::TraceBlock;
pub use collect::{CollectStats, Collector, Heuristic};
pub use engine::{
    run_engine, DecisionLog, EngineConfig, EngineStats, ReuseEvent, ReuseTest, TraceReuseEngine,
};
pub use ilr::{FiniteIlrBuffer, InstrReuseTable, SetAssocGeometry};
pub use limits::{LatencyRule, LimitConfig, LimitResult, LimitStudySink, TraceIoStats};
pub use policy::{ClassWeights, ReplacementPolicy, TraceMeta, LFU_HALF_LIFE};
pub use rtm::{
    FastHit, MergeError, MergeOutcome, ReuseTraceMemory, RtmConfig, RtmSnapshot, RtmStats,
};
pub use schemes::{compare_schemes, SchemeComparison, SnBuffer, SvBuffer};
pub use theorems::{check_theorem1, check_theorem3, theorem2_counterexample, TheoremCheck};
pub use trace::{IoCaps, TraceAccum, TraceKey, TraceRecord};
pub use valid_bit::InvalidatingRtm;
