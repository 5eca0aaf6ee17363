#![warn(missing_docs)]
//! # tlr-persist — durable trace state
//!
//! The paper's Reuse Trace Memory is built online and discarded at
//! process exit: every simulation pays the full cold-start collection
//! cost, and no experiment can be re-examined offline. This crate makes
//! trace state durable, in three capabilities:
//!
//! * **record** — [`TraceWriter`] is a [`tlr_isa::StreamSink`] tap: run
//!   any program through `tlr_vm::Vm::run` with it and every committed
//!   [`tlr_isa::DynInstr`] is appended to a trace file;
//! * **replay** — [`replay`](replay()) re-executes the program against the
//!   recording and fails loudly on the first divergence (mismatched PC
//!   or live-in/live-out values), wasm-rr style;
//! * **warm-start** — [`save_snapshot`] / [`load_snapshot`] persist a
//!   full [`tlr_core::RtmSnapshot`] so a later
//!   `TraceReuseEngine::new_warm` run starts with the prior run's reuse
//!   state instead of an empty RTM.
//!
//! ## Formats
//!
//! One format is read: a versioned, length-prefixed **binary** format
//! (conventionally `.tlrtrace` for streams, `.tlrsnap` for snapshots)
//! at exactly [`FORMAT_VERSION`] 6. A `.json` path ([`FileFormat::detect`])
//! saves a pretty-printed **JSON** debug dump for inspection and
//! diffing; dumps are write-only, and every load entry point refuses a
//! `.json` path with [`PersistError::JsonWriteOnly`]. Binary layout:
//!
//! | section | contents |
//! |---|---|
//! | header (16 B) | magic `TLRP`, version u16, kind u8, flags u8, fingerprint u64 |
//! | trace stream | per record: u32 length + [`tlr_isa::DynInstr`] frame |
//! | RTM snapshot | geometry (3 × u32), count u64, shape u64, then per trace: u32 length + [`tlr_core::TraceRecord`] + provenance + class-mix frame |
//! | delta segment | geometry, count, seq, tombstones, then changed-group frames ([`delta`]) |
//! | trailer | u32 `0`, u64 count, u64 checksum (+ u8 halt flag for streams) |
//!
//! The header is checked on every load: wrong magic, any version but
//! [`FORMAT_VERSION`], the wrong payload kind, or a fingerprint from a
//! different program/ISA each produce a distinct, descriptive
//! [`PersistError`]. Frame checksums catch bit-level damage; a missing
//! trailer reports the stream as truncated.
//!
//! Two header flags change the encoding:
//! [`format::FLAG_COMPRESSED_FRAMES`] run-length compresses every trace
//! frame ([`compress`]; spills always set it), and
//! [`format::FLAG_DELTA_SEGMENT`] marks an incremental **delta
//! segment** so publish-back spills only changed PC groups next to a
//! base file ([`delta`]); [`load_merged_snapshots`] replays base +
//! deltas in sequence order.
//!
//! ## Quick start
//!
//! ```
//! use tlr_asm::assemble;
//! use tlr_core::{EngineConfig, Heuristic, RtmConfig, TraceReuseEngine};
//!
//! let program = assemble(
//!     "li r9, 40\nloop: li r1, 3\naddq r2, r2, r1\nsubq r9, r9, 1\nbnez r9, loop\nhalt\n",
//! )
//! .unwrap();
//!
//! // Cold run: collect traces, snapshot the RTM.
//! let config = EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(2));
//! let mut cold = TraceReuseEngine::new(&program, config);
//! let cold_stats = cold.run(100_000).unwrap();
//! let snapshot = cold.export_rtm().unwrap();
//!
//! // Warm run: seeded from the snapshot, reuse starts at the first fetch.
//! let mut warm = TraceReuseEngine::new_warm(&program, config, &snapshot);
//! let warm_stats = warm.run(100_000).unwrap();
//! assert!(warm_stats.pct_reused() >= cold_stats.pct_reused());
//! ```
//!
//! (On disk the snapshot travels through [`save_snapshot`] /
//! [`load_snapshot`]; `examples/record_replay.rs` shows the full
//! record → replay → snapshot → warm-start loop, and the `tlrsim`
//! binary exposes it as `record` / `replay` / `snapshot` /
//! `run --warm-rtm` subcommands.)

pub mod compress;
pub mod delta;
pub mod error;
pub mod format;
pub mod json;
pub mod replay;
pub mod snapshot;
pub mod stream;
pub mod wire;

pub use delta::{
    apply_delta, base_file_name, delta_file_name, delta_seq_from_path, diff_snapshots,
    group_digests, save_base, save_delta_segment, write_delta_segment, DeltaSegment,
};
pub use error::{PersistError, Result};
pub use format::{
    FileFormat, Header, FLAG_COMPRESSED_FRAMES, FLAG_DELTA_SEGMENT, FORMAT_VERSION,
    KIND_RTM_SNAPSHOT, KIND_TRACE_STREAM, KNOWN_FLAGS, MAGIC, SNAPSHOT_EXT, TRACE_EXT,
};
pub use replay::{replay, MemorySource, RecordSource, ReplayStats};
pub use snapshot::{
    load_merged_snapshots, load_merged_snapshots_with, load_snapshot, load_snapshot_payload,
    peek_snapshot_fingerprint, peek_snapshot_identity, save_snapshot, save_snapshot_with,
    SnapshotPayload, SnapshotWriteOptions,
};
pub use stream::{load_trace, save_trace, TraceFile, TraceReader, TraceWriter};
pub use wire::{program_fingerprint, program_shape_fingerprint};
