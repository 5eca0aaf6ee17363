//! Corrupt-snapshot fuzzing through the public load paths: hostile or
//! damaged snapshot files — oversized geometry, zero-length traces,
//! cap-busting I/O lists, random bit flips — must be rejected with a
//! descriptive `PersistError`, never imported (and never allowed to
//! trigger a huge allocation), in both binary frame encodings (plain
//! and run-length compressed).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use tlr_core::{RtmConfig, RtmSnapshot, SetAssocGeometry, TraceRecord};
use tlr_isa::Loc;
use tlr_persist::snapshot::{
    write_snapshot, MAX_GEOMETRY_CAPACITY, MAX_GEOMETRY_PER_PC, MAX_GEOMETRY_SETS,
    MAX_GEOMETRY_WAYS, SNAPSHOT_IO_CAPS,
};
use tlr_persist::{load_snapshot, save_snapshot_with, PersistError, SnapshotWriteOptions};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tlr-snapshot-fuzz");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn well_formed_snapshot() -> RtmSnapshot {
    let mut snapshot = RtmSnapshot::from_traces(
        RtmConfig::RTM_512,
        (0..8)
            .map(|i| TraceRecord {
                start_pc: i * 3,
                next_pc: i * 3 + 4,
                len: 4,
                ins: vec![(Loc::IntReg(1), i as u64)].into_boxed_slice(),
                outs: vec![(Loc::IntReg(2), i as u64 + 1)].into_boxed_slice(),
                mix: Default::default(),
            })
            .collect(),
    );
    // Non-zero provenance so the bit-flip and truncation properties
    // cover the v3 provenance bytes too.
    for (i, m) in snapshot.meta.iter_mut().enumerate() {
        m.hits = i as u64 + 1;
        m.last_use = 100 + i as u64;
        m.source_run = 0x5eed;
    }
    snapshot
}

/// Writer for hostile content: `write_snapshot`/`save_snapshot_with`
/// serialize whatever struct they are given without validation, which
/// is exactly what a hostile producer would do. Returns the plain and
/// the compressed file.
fn save_both_encodings(name: &str, snapshot: &RtmSnapshot) -> [PathBuf; 2] {
    [false, true].map(|compress| {
        let path = temp_path(&format!("{name}-{compress}.tlrsnap"));
        save_snapshot_with(&path, 1, snapshot, SnapshotWriteOptions { compress }).unwrap();
        path
    })
}

fn expect_corrupt(path: &Path, needle: &str) {
    match load_snapshot(path, None) {
        Err(PersistError::Corrupt(msg)) => assert!(
            msg.contains(needle),
            "{}: message {msg:?} does not mention {needle:?}",
            path.display()
        ),
        other => panic!(
            "{}: expected Corrupt({needle}), got {:?}",
            path.display(),
            other.map(|(fp, s)| (fp, s.len()))
        ),
    }
}

#[test]
fn oversized_geometry_rejected_without_allocation() {
    // All power-of-two, all beyond the bounds: each would have passed
    // the old `is_power_of_two` check and provoked a giant allocation.
    for (sets, ways, per_pc, tag) in [
        (1u32 << 30, 8u32, 16u32, "sets"),
        (2048, MAX_GEOMETRY_WAYS * 2, 16, "ways"),
        (2048, 8, MAX_GEOMETRY_PER_PC * 2, "per_pc"),
        (
            MAX_GEOMETRY_SETS,
            MAX_GEOMETRY_WAYS,
            MAX_GEOMETRY_PER_PC,
            "capacity",
        ),
    ] {
        let mut snapshot = well_formed_snapshot();
        snapshot.config.geometry = SetAssocGeometry { sets, ways, per_pc };
        if tag == "capacity" {
            assert!(
                snapshot.config.geometry.capacity() > MAX_GEOMETRY_CAPACITY,
                "test geometry must bust the total capacity bound"
            );
        }
        for path in save_both_encodings(&format!("geom-{tag}"), &snapshot) {
            expect_corrupt(&path, "oversized");
        }
    }
}

#[test]
fn zero_length_trace_rejected() {
    let mut snapshot = well_formed_snapshot();
    snapshot.traces[5].len = 0;
    for path in save_both_encodings("zero-len", &snapshot) {
        expect_corrupt(&path, "zero instructions");
    }
}

#[test]
fn cap_busting_io_lists_rejected() {
    // One past each bound, on each side.
    let reg_busting: Box<[(Loc, u64)]> = (0..=SNAPSHOT_IO_CAPS.reg_in as u64)
        .map(|i| (Loc::IntReg((i % 256) as u8), i))
        .collect();
    let mem_busting: Box<[(Loc, u64)]> = (0..=SNAPSHOT_IO_CAPS.mem_in as u64)
        .map(|i| (Loc::Mem(i * 8), i))
        .collect();
    for (field, list, tag) in [
        ("ins", reg_busting.clone(), "reg-ins"),
        ("ins", mem_busting.clone(), "mem-ins"),
        ("outs", reg_busting, "reg-outs"),
        ("outs", mem_busting, "mem-outs"),
    ] {
        let mut snapshot = well_formed_snapshot();
        if field == "ins" {
            snapshot.traces[0].ins = list;
        } else {
            snapshot.traces[0].outs = list;
        }
        for path in save_both_encodings(&format!("caps-{tag}"), &snapshot) {
            expect_corrupt(&path, "load caps");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random single-byte corruption anywhere in a binary snapshot is
    /// never silently accepted as different content: either the load
    /// fails, or the corruption missed everything the codec reads
    /// (e.g. padding-free formats make this rare) and the snapshot
    /// round-trips identically.
    #[test]
    fn binary_bit_flips_never_alter_loaded_content(offset in any::<u64>(), bit in 0u32..8) {
        let snapshot = well_formed_snapshot();
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, 99, &snapshot).unwrap();
        let offset = (offset % bytes.len() as u64) as usize;
        bytes[offset] ^= 1 << bit;

        let path = temp_path("bitflip.tlrsnap");
        std::fs::write(&path, &bytes).unwrap();
        if let Ok((fingerprint, loaded)) = load_snapshot(&path, None) {
            // Only the header fingerprint may legitimately differ and
            // still load; the payload is checksummed.
            prop_assert_eq!(loaded, snapshot);
            prop_assert_ne!(fingerprint, 99);
        }
    }

    /// Truncating a binary snapshot anywhere is always detected.
    #[test]
    fn binary_truncation_always_detected(cut in 0u64..u64::MAX) {
        let snapshot = well_formed_snapshot();
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, 7, &snapshot).unwrap();
        let cut = (cut % (bytes.len() as u64 - 1) + 1) as usize; // 1..len
        bytes.truncate(bytes.len() - cut);

        let path = temp_path("truncated.tlrsnap");
        std::fs::write(&path, &bytes).unwrap();
        prop_assert!(load_snapshot(&path, None).is_err(), "truncated snapshot accepted");
    }
}
