//! Snapshot format compatibility: this build reads exactly format
//! v6, so every other version is refused by name, and a v6 frame
//! (record, then per-trace provenance, then per-trace class mix) with a
//! missing, truncated or surplus part is rejected with a named error,
//! never silently zeroed or misparsed.
//!
//! The writer here is hand-rolled byte-for-byte from the v6 layout
//! (header, geometry + shape prelude, checksummed frames, trailer) and
//! pinned to the real writer by `hand_rolled_layout_matches_the_writer`,
//! so the corrupt frames below differ from a real file only where each
//! test says. Test names keep the version that introduced the frame
//! part they probe: provenance arrived in v3, the class mix in v4.

use std::hash::Hasher;
use std::path::PathBuf;
use tlr_core::{ReuseTraceMemory, RtmConfig, TraceRecord};
use tlr_isa::Loc;
use tlr_persist::{load_snapshot, save_snapshot, PersistError, FORMAT_VERSION};
use tlr_util::fxhash::FxHasher64;
use trace_reuse::prelude::*;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tlr-snapshot-compat");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn rec(pc: u32, v: u64) -> TraceRecord {
    TraceRecord {
        start_pc: pc,
        next_pc: pc + 3,
        len: 3,
        ins: vec![(Loc::IntReg(1), v), (Loc::Mem(64 + v * 8), v)].into_boxed_slice(),
        outs: vec![(Loc::IntReg(2), v * 7)].into_boxed_slice(),
        mix: Default::default(),
    }
}

// ---- a byte-level writer for the v6 layout --------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_loc(out: &mut Vec<u8>, loc: Loc) {
    match loc {
        Loc::IntReg(n) => {
            out.push(0);
            out.push(n);
        }
        Loc::FpReg(n) => {
            out.push(1);
            out.push(n);
        }
        Loc::Mem(addr) => {
            out.push(2);
            put_u64(out, addr);
        }
    }
}

fn encode_record(rec: &TraceRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, rec.start_pc);
    put_u32(&mut out, rec.next_pc);
    put_u32(&mut out, rec.len);
    put_u16(&mut out, rec.ins.len() as u16);
    put_u16(&mut out, rec.outs.len() as u16);
    for (loc, val) in rec.ins.iter().chain(rec.outs.iter()) {
        put_loc(&mut out, *loc);
        put_u64(&mut out, *val);
    }
    out
}

/// Record followed by its 24-byte provenance: a frame missing its mix.
fn encode_record_and_meta(rec: &TraceRecord, meta: &TraceMeta) -> Vec<u8> {
    let mut frame = encode_record(rec);
    put_u64(&mut frame, meta.hits);
    put_u64(&mut frame, meta.last_use);
    put_u64(&mut frame, meta.source_run);
    frame
}

/// A complete v6 frame: record, provenance, lane-count-prefixed mix.
fn encode_frame(rec: &TraceRecord, meta: &TraceMeta) -> Vec<u8> {
    let mut frame = encode_record_and_meta(rec, meta);
    frame.push(tlr_isa::OpClass::COUNT as u8);
    for (_, count) in rec.mix.iter() {
        put_u32(&mut frame, count);
    }
    frame
}

/// Serialize an uncompressed full snapshot file with the given header
/// `version` from raw per-trace frame payloads (v6 prelude; checksum
/// and trailer computed the way the reader expects them).
fn encode_snapshot_file(version: u16, fingerprint: u64, shape: u64, frames: &[Vec<u8>]) -> Vec<u8> {
    let geometry = RtmConfig::RTM_512.geometry;
    let mut out = Vec::new();
    out.extend_from_slice(b"TLRP");
    put_u16(&mut out, version);
    out.push(2); // kind: RTM snapshot
    out.push(0); // flags: uncompressed full snapshot
    put_u64(&mut out, fingerprint);

    let mut prelude = Vec::new();
    put_u32(&mut prelude, geometry.sets);
    put_u32(&mut prelude, geometry.ways);
    put_u32(&mut prelude, geometry.per_pc);
    put_u64(&mut prelude, frames.len() as u64);
    put_u64(&mut prelude, shape);
    out.extend_from_slice(&prelude);

    let mut checksum = FxHasher64::new();
    checksum.write(&prelude);
    for frame in frames {
        put_u32(&mut out, frame.len() as u32);
        out.extend_from_slice(frame);
        checksum.write(frame);
    }
    put_u32(&mut out, 0);
    put_u64(&mut out, frames.len() as u64);
    put_u64(&mut out, checksum.finish());
    out
}

/// Write `frames` as a v6 file and expect the load to fail with a
/// `Corrupt` error mentioning `needle`.
fn expect_corrupt(name: &str, frames: &[Vec<u8>], needle: &str) {
    let path = temp_path(name);
    std::fs::write(&path, encode_snapshot_file(FORMAT_VERSION, 1, 0, frames)).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(msg.contains(needle), "{name}: unhelpful error: {msg}")
        }
        other => panic!("{name}: expected Corrupt({needle}), got {other:?}"),
    }
}

#[test]
fn hand_rolled_layout_matches_the_writer() {
    let mut counts = [0u32; tlr_isa::OpClass::COUNT];
    counts[tlr_isa::OpClass::Load.index()] = 2;
    let mut snapshot = RtmSnapshot::from_traces(
        RtmConfig::RTM_512,
        vec![
            TraceRecord {
                mix: tlr_isa::ClassMix::from_counts(counts),
                ..rec(8, 1)
            },
            rec(16, 2),
        ],
    );
    snapshot.meta[0].hits = 5;
    snapshot.meta[1].source_run = 9001;
    snapshot.shape = 0x5a5e;
    let path = temp_path("layout.tlrsnap");
    save_snapshot(&path, 77, &snapshot).unwrap();
    let frames: Vec<Vec<u8>> = snapshot
        .entries()
        .map(|(t, m)| encode_frame(t, &m))
        .collect();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        encode_snapshot_file(FORMAT_VERSION, 77, 0x5a5e, &frames),
        "the v6 writer drifted from the documented layout"
    );
}

// ---- version compatibility ------------------------------------------------

#[test]
fn v3_roundtrip_preserves_provenance_on_disk() {
    // Provenance born from real hits, through a real file.
    let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
    rtm.set_source_run(9001);
    rtm.insert(rec(8, 1));
    rtm.insert(rec(16, 2));
    for _ in 0..4 {
        assert!(rtm
            .lookup(8, |l| match l {
                Loc::IntReg(1) => 1,
                Loc::Mem(72) => 1,
                _ => 0,
            })
            .is_some());
    }
    let snapshot = rtm.export();
    assert_eq!(snapshot.total_hits(), 4);

    let path = temp_path("v3.tlrsnap");
    save_snapshot(&path, 5, &snapshot).unwrap();
    let (_, loaded) = load_snapshot(&path, Some(5)).unwrap();
    assert_eq!(loaded, snapshot, "provenance lost");
    assert_eq!(loaded.total_hits(), 4);
    assert!(
        loaded.meta.iter().all(|m| m.source_run == 9001),
        "source run lost"
    );
}

#[test]
fn v1_and_future_versions_rejected_with_named_error() {
    // Exactly one version is read: every older one and the next one are
    // refused by name, before any of the body is parsed.
    assert_eq!(FORMAT_VERSION, 6);
    let frames = [encode_frame(&rec(8, 1), &TraceMeta::default())];
    for version in [1u16, 2, 3, 4, 5, 7] {
        let path = temp_path(&format!("v{version}.tlrsnap"));
        std::fs::write(&path, encode_snapshot_file(version, 1, 0, &frames)).unwrap();
        match load_snapshot(&path, None) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, version);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("v{version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
}

// ---- corrupt provenance ---------------------------------------------------

#[test]
fn v3_frame_without_provenance_rejected() {
    // Record only: the reader must name the missing provenance, not
    // misparse the next bytes.
    let frames: Vec<Vec<u8>> = [rec(8, 1), rec(16, 2)].iter().map(encode_record).collect();
    expect_corrupt("no-meta.tlrsnap", &frames, "provenance");
}

#[test]
fn v3_frame_with_truncated_provenance_rejected() {
    let mut frame = encode_record(&rec(8, 1));
    frame.extend_from_slice(&[0u8; 16]); // 16 of the 24 provenance bytes
    expect_corrupt("short-meta.tlrsnap", &[frame], "provenance");
}

#[test]
fn v3_frame_with_stray_bytes_after_provenance_rejected() {
    let mut frame = encode_frame(&rec(8, 1), &TraceMeta::default());
    frame.extend_from_slice(&[0xab; 5]); // trailing garbage
    expect_corrupt("stray.tlrsnap", &[frame], "stray bytes");
}

// ---- class mixes ----------------------------------------------------------

#[test]
fn v4_roundtrip_preserves_mix_on_disk() {
    let mut counts = [0u32; tlr_isa::OpClass::COUNT];
    counts[tlr_isa::OpClass::IntAlu.index()] = 2;
    counts[tlr_isa::OpClass::Load.index()] = 1;
    let mix = tlr_isa::ClassMix::from_counts(counts);
    let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
    rtm.insert(TraceRecord { mix, ..rec(8, 1) });
    rtm.insert(rec(16, 2));
    let snapshot = rtm.export();

    let path = temp_path("v4.tlrsnap");
    save_snapshot(&path, 5, &snapshot).unwrap();
    let (_, loaded) = load_snapshot(&path, Some(5)).unwrap();
    assert_eq!(loaded, snapshot);
    // Trace identity ignores the mix, so check it explicitly.
    let by_pc = |s: &RtmSnapshot, pc| s.traces.iter().find(|t| t.start_pc == pc).unwrap().mix;
    assert_eq!(by_pc(&loaded, 8), mix, "class mix lost");
    assert!(by_pc(&loaded, 16).is_empty());
}

#[test]
fn v4_frame_without_mix_rejected() {
    // Record and provenance, no mix: the reader must name the missing
    // mix rather than misparse the next frame's length prefix.
    let frame = encode_record_and_meta(&rec(8, 1), &TraceMeta::default());
    expect_corrupt("no-mix.tlrsnap", &[frame], "class mix");
}

#[test]
fn v4_frame_with_truncated_mix_rejected() {
    let mut frame = encode_record_and_meta(&rec(8, 1), &TraceMeta::default());
    frame.push(tlr_isa::OpClass::COUNT as u8);
    put_u32(&mut frame, 3); // one lane of eleven
    expect_corrupt("short-mix.tlrsnap", &[frame], "class mix");
}

#[test]
fn v4_frame_with_wrong_class_count_rejected() {
    // A file written by a build with a different ISA class list must be
    // refused, not reinterpreted lane-by-lane.
    let mut frame = encode_record_and_meta(&rec(8, 1), &TraceMeta::default());
    frame.push(7);
    for _ in 0..7 {
        put_u32(&mut frame, 0);
    }
    expect_corrupt("wrong-lanes.tlrsnap", &[frame], "instruction classes");
}
