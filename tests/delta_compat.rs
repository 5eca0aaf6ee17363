//! Delta-segment hardening: a base plus its delta segments must
//! reconstruct the same state as a full snapshot of the final RTM under
//! every replacement policy, an offline-compacted base must be written
//! the way spills are and load to the same state, and corrupt delta
//! segments — truncation, bit flips, cap-busting geometry or tombstone
//! counts — must be rejected with a descriptive `PersistError`.

use proptest::prelude::*;
use std::path::PathBuf;
use tlr_core::{
    ReplacementPolicy, ReuseTraceMemory, RtmConfig, RtmSnapshot, SetAssocGeometry, TraceMeta,
    TraceRecord,
};
use tlr_isa::Loc;
use tlr_persist::snapshot::MAX_GEOMETRY_CAPACITY;
use tlr_persist::wire::{put_u32, put_u64};
use tlr_persist::{
    base_file_name, delta_file_name, diff_snapshots, group_digests, load_merged_snapshots,
    load_merged_snapshots_with, load_snapshot, save_delta_segment, save_snapshot, DeltaSegment,
    Header, PersistError, FLAG_COMPRESSED_FRAMES, FLAG_DELTA_SEGMENT, KIND_RTM_SNAPSHOT,
};

/// Per-test temp directory: each test function uses its own tag so the
/// deterministic `{fingerprint}-base` / `{fingerprint}-delta-NNNNNN`
/// file names never race across parallel test threads.
fn temp_path(tag: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlr-delta-compat-{tag}"));
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

/// A snapshot with one record per `(pc, value)` and distinct, non-zero
/// provenance, so delta diffs and digests cover the meta bytes too.
fn snapshot(pcs: &[(u32, u64)]) -> RtmSnapshot {
    let mut s = RtmSnapshot::from_traces(
        RtmConfig::RTM_512,
        pcs.iter().map(|(pc, v)| rec(*pc, *v)).collect(),
    );
    for (i, m) in s.meta.iter_mut().enumerate() {
        m.hits = i as u64 + 1;
        m.last_use = 100 + i as u64;
        m.source_run = 0x5eed;
    }
    s
}

// ---- header flags ---------------------------------------------------------

#[test]
fn v5_header_with_unknown_flag_rejected() {
    // The flags byte arrived in v5; a bit this build does not define
    // marks a damaged (or foreign) file, not one to misparse.
    let path = temp_path("flags", "unknown-flag.tlrsnap");
    save_snapshot(&path, 9, &snapshot(&[(8, 1)])).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[7] |= 0x80; // a flag bit this build does not define
    std::fs::write(&path, &bytes).unwrap();
    match load_snapshot(&path, None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(
                msg.contains("unknown header flags"),
                "unhelpful error: {msg}"
            )
        }
        other => panic!("expected Corrupt(unknown header flags), got {other:?}"),
    }
}

// ---- base ⊕ deltas == full snapshot, under every policy -------------------

/// A deliberately tiny geometry so capacity eviction — the thing that
/// makes whole-group replacement necessary — happens constantly.
const TINY: RtmConfig = RtmConfig {
    geometry: SetAssocGeometry {
        sets: 2,
        ways: 2,
        per_pc: 2,
    },
};

fn record_strategy() -> impl Strategy<Value = TraceRecord> {
    // Few PCs and few values: group churn, tombstones (groups evicted
    // whole), and unchanged groups all occur under the tiny geometry.
    (0u32..6, 1u32..5, 0u64..4, 0u64..4).prop_map(|(start_pc, len, in_val, out_val)| TraceRecord {
        start_pc,
        next_pc: start_pc + len,
        len,
        ins: vec![(Loc::IntReg(1), in_val)].into_boxed_slice(),
        outs: vec![(Loc::IntReg(2), out_val)].into_boxed_slice(),
        mix: Default::default(),
    })
}

/// One RTM evolving through 2–4 insert/use batches, exported after each
/// batch — the exact state sequence an engine's publish-backs see.
fn evolution_strategy() -> impl Strategy<Value = Vec<RtmSnapshot>> {
    proptest::collection::vec(
        proptest::collection::vec((record_strategy(), 0u8..4), 1..10),
        2..5,
    )
    .prop_map(|batches| {
        let mut rtm = ReuseTraceMemory::new(TINY);
        batches
            .into_iter()
            .map(|batch| {
                for (record, hits) in batch {
                    let (pc, in_val) = (record.start_pc, record.ins[0].1);
                    rtm.insert(record);
                    for _ in 0..hits {
                        rtm.lookup(pc, |l| if l == Loc::IntReg(1) { in_val } else { 0 });
                    }
                }
                rtm.export()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The compaction invariant, end to end through real files: a base
    /// plus the delta chain diffed from consecutive exports loads to
    /// the same trace/provenance/mix state as a full snapshot of the
    /// final export, under every replacement policy. Serialization
    /// order is *not* part of the contract (overlay application loses
    /// the base's interleaving), so equality is judged on the
    /// order-insensitive per-group digests.
    #[test]
    fn base_plus_deltas_match_full_load_under_every_policy(states in evolution_strategy()) {
        let fp = 7u64;
        let base = temp_path("prop", &base_file_name(fp));
        save_snapshot(&base, fp, &states[0]).unwrap();
        let mut split = vec![base];
        for (i, pair) in states.windows(2).enumerate() {
            let seq = i as u64 + 1;
            let delta = diff_snapshots(&group_digests(&pair[0]).unwrap(), &pair[1], seq).unwrap();
            let path = temp_path("prop", &delta_file_name(fp, seq));
            // Alternate the codec so both frame encodings are replayed.
            save_delta_segment(&path, fp, &delta, i % 2 == 0).unwrap();
            split.push(path);
        }
        let full = temp_path("prop", "full.tlrsnap");
        save_snapshot(&full, fp, states.last().unwrap()).unwrap();

        for policy in ReplacementPolicy::ALL {
            let (_, from_split) = load_merged_snapshots_with(&split, Some(fp), policy).unwrap();
            let (_, from_full) =
                load_merged_snapshots_with(std::slice::from_ref(&full), Some(fp), policy).unwrap();
            prop_assert_eq!(
                from_split.len(),
                from_full.len(),
                "{}: split load holds a different trace count",
                policy
            );
            prop_assert_eq!(
                group_digests(&from_split).unwrap(),
                group_digests(&from_full).unwrap(),
                "{}: base + deltas reconstructed different state",
                policy
            );
        }
    }

    /// Random single-bit corruption anywhere in a delta segment is
    /// never silently accepted as different merged content: either the
    /// merged load fails, or the flip missed everything the codec reads
    /// and the reconstruction is unchanged.
    #[test]
    fn delta_bit_flips_never_alter_merged_content(
        offset in any::<u64>(),
        bit in 0u32..8,
        compress in any::<bool>(),
    ) {
        let old = snapshot(&[(0, 1), (4, 2), (8, 3)]);
        let new = snapshot(&[(0, 1), (4, 99), (12, 5)]);
        let delta = diff_snapshots(&group_digests(&old).unwrap(), &new, 42).unwrap();
        let base = temp_path("bitflip", &base_file_name(7));
        let delta_path = temp_path("bitflip", &delta_file_name(7, 42));
        save_snapshot(&base, 7, &old).unwrap();
        save_delta_segment(&delta_path, 7, &delta, compress).unwrap();
        let paths = [base, delta_path.clone()];
        let (_, clean) = load_merged_snapshots(&paths, None).unwrap();
        let clean_digests = group_digests(&clean).unwrap();

        let mut bytes = std::fs::read(&delta_path).unwrap();
        let offset = (offset % bytes.len() as u64) as usize;
        bytes[offset] ^= 1 << bit;
        std::fs::write(&delta_path, &bytes).unwrap();
        if let Ok((_, merged)) = load_merged_snapshots(&paths, None) {
            prop_assert_eq!(
                group_digests(&merged).unwrap(),
                clean_digests,
                "flipped bit {} of byte {} changed the merged state",
                bit,
                offset
            );
        }
    }

    /// Truncating a delta segment anywhere is always detected by the
    /// merged load — a half-written spill can never half-apply.
    #[test]
    fn delta_truncation_always_detected(cut in 0u64..u64::MAX, compress in any::<bool>()) {
        let old = snapshot(&[(0, 1), (4, 2), (8, 3)]);
        let new = snapshot(&[(0, 1), (4, 99), (12, 5)]);
        let delta = diff_snapshots(&group_digests(&old).unwrap(), &new, 1).unwrap();
        let base = temp_path("truncate", &base_file_name(7));
        let delta_path = temp_path("truncate", &delta_file_name(7, 1));
        save_snapshot(&base, 7, &old).unwrap();
        save_delta_segment(&delta_path, 7, &delta, compress).unwrap();

        let mut bytes = std::fs::read(&delta_path).unwrap();
        let cut = (cut % (bytes.len() as u64 - 1) + 1) as usize; // 1..len
        bytes.truncate(bytes.len() - cut);
        std::fs::write(&delta_path, &bytes).unwrap();
        prop_assert!(
            load_merged_snapshots(&[base, delta_path], None).is_err(),
            "truncated delta segment accepted ({cut} bytes cut)"
        );
    }
}

// ---- hostile delta segments -----------------------------------------------

#[test]
fn cap_busting_delta_geometry_rejected() {
    // The writer serializes whatever struct it is given, which is
    // exactly what a hostile producer would do; the reader's geometry
    // bounds must refuse it before any capacity-sized allocation.
    for (mutate, tag) in [
        (
            (|g: &mut SetAssocGeometry| g.sets = 1 << 30) as fn(&mut SetAssocGeometry),
            "sets",
        ),
        (|g: &mut SetAssocGeometry| g.ways = 1 << 30, "ways"),
        (|g: &mut SetAssocGeometry| g.per_pc = 1 << 30, "per_pc"),
    ] {
        let mut delta = DeltaSegment {
            seq: 1,
            config: RtmConfig::RTM_512,
            tombstones: vec![16],
            traces: vec![rec(4, 7)],
            meta: vec![TraceMeta::default()],
        };
        mutate(&mut delta.config.geometry);
        for compress in [false, true] {
            let path = temp_path("hostile", &format!("geom-{tag}-{compress}.tlrsnap"));
            save_delta_segment(&path, 7, &delta, compress).unwrap();
            match load_merged_snapshots(&[path], None) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(
                        msg.contains("oversized"),
                        "{tag}/compress={compress}: unhelpful error: {msg}"
                    )
                }
                other => panic!(
                    "{tag}/compress={compress}: expected Corrupt(oversized), got {:?}",
                    other.map(|(fp, s)| (fp, s.len()))
                ),
            }
        }
    }
}

#[test]
fn cap_busting_tombstone_count_rejected_before_allocation() {
    // Hand-rolled: a valid delta header whose prelude declares more
    // tombstones than any geometry admits, with no tombstone bytes
    // behind it. The reader must refuse on the declared count — if it
    // tried to read (or worse, allocate) first, this file would hang it
    // on EOF instead of producing the named error.
    let mut bytes = Vec::new();
    Header::with_flags(KIND_RTM_SNAPSHOT, 7, FLAG_DELTA_SEGMENT)
        .write_to(&mut bytes)
        .unwrap();
    let geometry = RtmConfig::RTM_512.geometry;
    put_u32(&mut bytes, geometry.sets);
    put_u32(&mut bytes, geometry.ways);
    put_u32(&mut bytes, geometry.per_pc);
    put_u64(&mut bytes, 0); // trace count
    put_u64(&mut bytes, 1); // seq
    put_u64(&mut bytes, MAX_GEOMETRY_CAPACITY + 1);
    let path = temp_path("hostile", "tombstone-cap.tlrsnap");
    std::fs::write(&path, &bytes).unwrap();
    match load_merged_snapshots(&[path], None) {
        Err(PersistError::Corrupt(msg)) => {
            assert!(
                msg.contains("tombstones") && msg.contains("cap"),
                "unhelpful error: {msg}"
            )
        }
        other => panic!(
            "expected Corrupt(tombstones over cap), got {:?}",
            other.map(|(fp, s)| (fp, s.len()))
        ),
    }
}

// ---- offline compaction ----------------------------------------------------

/// `tlrsim compact` writes its fresh base through the same function as
/// the registry's compaction: compressed frames, and the state of the
/// folded base + delta chain, bit for bit per PC group.
#[test]
fn offline_compaction_writes_a_compressed_base_with_the_same_state() {
    let dir = std::env::temp_dir().join(format!("tlr-delta-compat-compact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let states = [
        snapshot(&[(0, 1), (4, 2), (8, 3)]),
        snapshot(&[(0, 1), (4, 99), (12, 5)]),
        snapshot(&[(0, 1), (4, 99), (12, 6), (16, 7)]),
    ];
    let base = dir.join(base_file_name(7));
    save_snapshot(&base, 7, &states[0]).unwrap();
    let mut paths = vec![base.clone()];
    for (i, pair) in states.windows(2).enumerate() {
        let seq = i as u64 + 1;
        let delta = diff_snapshots(&group_digests(&pair[0]).unwrap(), &pair[1], seq).unwrap();
        let path = dir.join(delta_file_name(7, seq));
        save_delta_segment(&path, 7, &delta, true).unwrap();
        paths.push(path);
    }
    let (_, before) = load_merged_snapshots(&paths, Some(7)).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tlrsim"))
        .arg("compact")
        .arg(&dir)
        .output()
        .expect("run tlrsim compact");
    assert!(
        out.status.success(),
        "tlrsim compact failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(
        left,
        vec![base.clone()],
        "compaction left other files behind"
    );

    let header = Header::read_from(&mut std::fs::read(&base).unwrap().as_slice()).unwrap();
    assert_eq!(
        header.flags, FLAG_COMPRESSED_FRAMES,
        "an offline-compacted base must be a compressed full snapshot"
    );
    let (_, after) = load_merged_snapshots(&[&base], Some(7)).unwrap();
    assert_eq!(
        group_digests(&after).unwrap(),
        group_digests(&before).unwrap(),
        "compaction changed the loaded state"
    );
    std::fs::remove_dir_all(&dir).ok();
}
