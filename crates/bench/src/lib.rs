#![warn(missing_docs)]
//! # tlr-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§4) from this workspace's substrate, printing
//! paper-reported values next to measured ones and writing CSV into
//! `results/`.
//!
//! Every target is one row of [`TARGETS`] ([`targets`] module), which
//! `reproduce --help` and this table are drawn from:
//!
//! | target | reproduces | `--check` fails when |
//! |---|---|---|
//! | `reproduce fig3` | Figure 3 — instruction-level reusability | — |
//! | `reproduce fig4` | Figure 4 — ILR speed-up, infinite window (a: per-benchmark @1 cycle, b: latency sweep) | — |
//! | `reproduce fig5` | Figure 5 — ILR speed-up, 256-entry window | — |
//! | `reproduce fig6` | Figure 6 — TLR speed-up @1 cycle (a: infinite, b: 256-entry) | — |
//! | `reproduce fig7` | Figure 7 — average trace size | — |
//! | `reproduce fig8` | Figure 8 — TLR latency sensitivity (a: constant 1–4, b: ∝ I/O, K sweep) | — |
//! | `reproduce io` | §4.5 text — per-trace I/O counts and bandwidth per reused instruction | — |
//! | `reproduce fig9` | Figure 9 — finite RTM × collection heuristic (% reused, trace size) | — |
//! | `reproduce ablation` | ours — window slots per reused trace (0 vs 1) | — |
//! | `reproduce pipeline` | §3 model — pipeline ablation: fetch-skip and window-bypass decomposition | — |
//! | `reproduce validbit` | §3.3 — reuse test: value comparison vs valid bit + invalidation | — |
//! | `reproduce schemes` | §2 — instruction-reuse schemes (Sodani & Sohi): Sv values vs Sn names | — |
//! | `reproduce warmstart` | ours — cold vs RTM-snapshot-seeded engine | a warm start reuses less than its cold run, or a snapshot is empty |
//! | `reproduce fleet` | ours — solo-warm vs merged-warm reuse (snapshot pooling for a serving fleet) | merged-warm reuse falls below the weaker solo warm start on a workload or below the better solo on the suite mean, or a merge reports conflicts |
//! | `reproduce policy` | ours — RTM replacement-policy sweep (LRU vs LFU vs cost/benefit, cold and merged-warm) | a configuration leaves plain execution's state, or a policy merge is empty |
//! | `reproduce daemon` | ours — N concurrent clients warm-starting from one `tlrd` daemon vs the in-process registry path | a client's state digest differs from the in-process registry path's, a client starts cold, fewer than two clients overlap, or the daemon's counters miss client activity |
//! | `reproduce decant` | ours — reuse attribution by opcode class and loop structure (`tlr-decant` over the decision tap) | an attribution does not sum exactly to its decision log's totals, a log is empty or truncated, or a cold run leaves skips unattributed |
//! | `reproduce throughput` | ours — simulator MIPS: observing interpreter vs predecoded fast path, the collecting and serving-only engine against plain execution | an interpreter or engine leaves plain execution's state, count or halt, or a suite-mean floor fails: predecoded ≥ 2× observing, serving ≥ collecting, collecting ≥ `COLLECTING_FLOOR` of predecoded |
//! | `reproduce serveperf` | ours — zero-copy `Get` latency (cached image vs re-serialization), delta-spill write amplification, base ⊕ delta split-load equality | cached-image fetches miss `CACHED_SPEEDUP_FLOOR`, delta spills write no less than full rewrites, or a base + delta load disagrees with the full load |
//! | `reproduce crossseed` | ours — cross-seed warm start: same code under different data seeds shares reuse state by shape fingerprint | a run leaves plain execution's state, the shape fingerprint is lost, cross-warm reuse falls more than `CROSS_TOLERANCE_PCT` points below cold on a workload, or cross-warm does not beat cold on the suite mean |
//!
//! With `--check`, each gated target also acts as a CI regression gate:
//! the process exits nonzero when the gate's condition holds.
//!
//! With `--json OUT`, every table produced by the invocation is also
//! written to `OUT` as one machine-readable JSON document (config +
//! per-target headers and rows), so bench trajectories can accumulate
//! across commits.
//!
//! All figure functions are library code so the integration tests can run
//! them at reduced budgets.

pub mod crossseed;
pub mod daemon;
pub mod decant;
pub mod figures;
pub mod fleet;
pub mod harness;
pub mod policy;
pub mod serveperf;
pub mod targets;
pub mod throughput;
pub mod warmstart;

pub use harness::{run_engine_grid, run_limit_studies, BenchResult, EngineCell, HarnessConfig};
pub use targets::{resolve, Context, Emitted, Output, Target, TARGETS};
