//! Persistence properties: serialize → deserialize is the identity for
//! `DynInstr` streams and RTM snapshots in the binary format (plain and
//! compressed frames); the JSON debug dumps stay parseable pictures of
//! the same content but are write-only, refused by every loader by
//! name; damaged or incompatible files are rejected.

use proptest::prelude::*;
use std::path::PathBuf;
use tlr_core::{RtmConfig, RtmSnapshot, TraceRecord};
use tlr_isa::{DynInstr, Loc, OpClass};
use tlr_persist::json::{self, Json};
use tlr_persist::snapshot::{read_snapshot, write_snapshot, write_snapshot_with};
use tlr_persist::{
    load_merged_snapshots, load_snapshot, load_snapshot_payload, load_trace,
    peek_snapshot_fingerprint, peek_snapshot_identity, save_snapshot, save_trace, PersistError,
    SnapshotWriteOptions, TraceReader, TraceWriter,
};

fn loc_strategy() -> impl Strategy<Value = Loc> {
    prop_oneof![
        (0u8..31).prop_map(Loc::IntReg),
        (0u8..31).prop_map(Loc::FpReg),
        (0u64..1 << 40).prop_map(Loc::Mem),
    ]
}

fn dyn_instr_strategy() -> impl Strategy<Value = DynInstr> {
    (
        0u32..10_000,
        0u32..10_000,
        0usize..OpClass::ALL.len(),
        proptest::collection::vec((loc_strategy(), any::<u64>()), 0..4),
        proptest::collection::vec((loc_strategy(), any::<u64>()), 0..2),
    )
        .prop_map(|(pc, next_pc, class, reads, writes)| DynInstr {
            pc,
            next_pc,
            class: OpClass::ALL[class],
            reads: reads.into_iter().collect(),
            writes: writes.into_iter().collect(),
        })
}

fn trace_record_strategy() -> impl Strategy<Value = TraceRecord> {
    (
        0u32..10_000,
        0u32..10_000,
        1u32..4096,
        proptest::collection::vec((loc_strategy(), any::<u64>()), 0..12),
        proptest::collection::vec((loc_strategy(), any::<u64>()), 0..12),
    )
        .prop_map(|(start_pc, next_pc, len, ins, outs)| TraceRecord {
            start_pc,
            next_pc,
            len,
            ins: ins.into_boxed_slice(),
            outs: outs.into_boxed_slice(),
            mix: Default::default(),
        })
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("tlr-persist-roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Binary stream round-trip: every record and the halt flag survive.
    #[test]
    fn stream_binary_roundtrip(
        records in proptest::collection::vec(dyn_instr_strategy(), 0..64),
        fingerprint in any::<u64>(),
        halted in any::<u64>(),
    ) {
        let halted = halted & 1 == 1;
        let path = temp_path("stream.tlrtrace");
        save_trace(&path, fingerprint, &records, halted).unwrap();
        let loaded = load_trace(&path, Some(fingerprint)).unwrap();
        prop_assert_eq!(&loaded.records, &records);
        prop_assert_eq!(loaded.halted, halted);
        prop_assert_eq!(loaded.fingerprint, fingerprint);
    }

    /// The JSON stream dump parses and carries its format tag,
    /// fingerprint, halt flag and every record's PCs.
    #[test]
    fn stream_json_roundtrip(
        records in proptest::collection::vec(dyn_instr_strategy(), 0..32),
        fingerprint in any::<u64>(),
    ) {
        let path = temp_path("stream.json");
        save_trace(&path, fingerprint, &records, true).unwrap();
        let doc = parse_dump(&path);
        prop_assert_eq!(str_field(&doc, "format"), "tlr-trace-v1");
        prop_assert_eq!(num_field(&doc, "fingerprint"), fingerprint);
        prop_assert_eq!(doc.field("halted").unwrap(), &Json::Bool(true));
        let dumped = doc.field("records").unwrap().as_arr("records").unwrap();
        let pcs: Vec<(u64, u64)> = dumped
            .iter()
            .map(|r| (num_field(r, "pc"), num_field(r, "next_pc")))
            .collect();
        let expected: Vec<(u64, u64)> = records
            .iter()
            .map(|d| (d.pc.into(), d.next_pc.into()))
            .collect();
        prop_assert_eq!(pcs, expected);
    }

    /// RTM snapshot round-trip through both binary frame encodings
    /// (plain and compressed); the JSON dump of the same snapshot
    /// carries its format tag, fingerprint, shape and trace count.
    #[test]
    fn snapshot_roundtrip_both_formats(
        traces in proptest::collection::vec(trace_record_strategy(), 0..32),
        fingerprint in any::<u64>(),
    ) {
        let mut snapshot = RtmSnapshot::from_traces(RtmConfig::RTM_4K, traces);
        // Non-zero provenance, so the roundtrip proves v3 carries it.
        for (i, m) in snapshot.meta.iter_mut().enumerate() {
            m.hits = fingerprint.wrapping_add(i as u64);
            m.last_use = i as u64 * 17;
            m.source_run = fingerprint ^ 0x5a5a;
        }

        snapshot.shape = fingerprint.rotate_left(7);

        for compress in [false, true] {
            let mut buf = Vec::new();
            let options = SnapshotWriteOptions { compress };
            write_snapshot_with(&mut buf, fingerprint, &snapshot, options).unwrap();
            let (fp, loaded) = read_snapshot(&mut buf.as_slice(), Some(fingerprint)).unwrap();
            prop_assert_eq!(fp, fingerprint);
            prop_assert_eq!(&loaded, &snapshot, "compress={}", compress);
            prop_assert_eq!(loaded.shape, snapshot.shape);
        }

        let path = temp_path("snap.json");
        save_snapshot(&path, fingerprint, &snapshot).unwrap();
        let doc = parse_dump(&path);
        prop_assert_eq!(str_field(&doc, "format"), "tlr-rtm-v1");
        prop_assert_eq!(num_field(&doc, "fingerprint"), fingerprint);
        prop_assert_eq!(num_field(&doc, "shape"), snapshot.shape);
        prop_assert_eq!(
            doc.field("traces").unwrap().as_arr("traces").unwrap().len(),
            snapshot.len()
        );
    }
}

fn parse_dump(path: &std::path::Path) -> Json {
    json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn num_field(doc: &Json, key: &str) -> u64 {
    doc.field(key).unwrap().as_u64(key).unwrap()
}

fn str_field<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.field(key).unwrap().as_str(key).unwrap()
}

fn sample_stream_bytes(fingerprint: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut writer = TraceWriter::new(&mut buf, fingerprint).unwrap();
    use tlr_isa::StreamSink;
    writer.observe(&DynInstr {
        pc: 1,
        next_pc: 2,
        class: OpClass::IntAlu,
        reads: [(Loc::IntReg(1), 5)].into_iter().collect(),
        writes: [(Loc::IntReg(2), 6)].into_iter().collect(),
    });
    writer.close().unwrap();
    buf
}

#[test]
fn corrupt_magic_rejected() {
    let mut buf = sample_stream_bytes(9);
    buf[0] = b'Z';
    match TraceReader::new(buf.as_slice(), None) {
        Err(PersistError::BadMagic { .. }) => {}
        other => panic!(
            "expected BadMagic, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
}

#[test]
fn version_mismatch_rejected() {
    let mut buf = sample_stream_bytes(9);
    buf[4] = 0x7f; // future version
    match TraceReader::new(buf.as_slice(), None) {
        Err(PersistError::UnsupportedVersion { found, .. }) => assert_eq!(found, 0x7f),
        other => panic!(
            "expected UnsupportedVersion, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
}

#[test]
fn fingerprint_mismatch_rejected_across_formats() {
    let buf = sample_stream_bytes(9);
    assert!(matches!(
        TraceReader::new(buf.as_slice(), Some(10)),
        Err(PersistError::FingerprintMismatch {
            found: 9,
            expected: 10
        })
    ));

    let path = temp_path("fp.tlrsnap");
    save_snapshot(
        &path,
        9,
        &RtmSnapshot::from_traces(RtmConfig::RTM_512, Vec::new()),
    )
    .unwrap();
    assert!(matches!(
        load_snapshot(&path, Some(10)),
        Err(PersistError::FingerprintMismatch {
            found: 9,
            expected: 10
        })
    ));
}

/// JSON dumps are write-only: every load entry point refuses a `.json`
/// path with the one named error, whatever the file holds.
#[test]
fn json_load_entry_points_name_the_write_only_dump() {
    let snap = temp_path("write-only.json");
    save_snapshot(
        &snap,
        9,
        &RtmSnapshot::from_traces(RtmConfig::RTM_512, Vec::new()),
    )
    .unwrap();
    let trace = temp_path("write-only-trace.json");
    save_trace(&trace, 9, &[], true).unwrap();
    let results: Vec<(&str, Result<(), PersistError>)> = vec![
        ("load_snapshot", load_snapshot(&snap, None).map(drop)),
        (
            "load_snapshot_payload",
            load_snapshot_payload(&snap, None).map(drop),
        ),
        (
            "load_merged_snapshots",
            load_merged_snapshots(&[&snap], None).map(drop),
        ),
        (
            "peek_snapshot_fingerprint",
            peek_snapshot_fingerprint(&snap).map(drop),
        ),
        (
            "peek_snapshot_identity",
            peek_snapshot_identity(&snap).map(drop),
        ),
        ("load_trace", load_trace(&trace, None).map(drop)),
        (
            "TraceReader::open",
            TraceReader::open(&trace, None).map(drop),
        ),
    ];
    for (entry, result) in results {
        match result {
            Err(e @ PersistError::JsonWriteOnly) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("write-only") && msg.contains("binary"),
                    "{entry}: unhelpful error: {msg}"
                );
            }
            other => panic!("{entry}: expected JsonWriteOnly, got {other:?}"),
        }
    }
}

#[test]
fn kind_mismatch_rejected() {
    // Open a trace stream as a snapshot and vice versa.
    let stream = sample_stream_bytes(0);
    assert!(matches!(
        read_snapshot(&mut stream.as_slice(), None),
        Err(PersistError::KindMismatch { .. })
    ));

    let snapshot = RtmSnapshot::from_traces(RtmConfig::RTM_512, Vec::new());
    let mut buf = Vec::new();
    write_snapshot(&mut buf, 0, &snapshot).unwrap();
    assert!(matches!(
        TraceReader::new(buf.as_slice(), None),
        Err(PersistError::KindMismatch { .. })
    ));
}

#[test]
fn truncated_stream_rejected() {
    let mut buf = sample_stream_bytes(0);
    buf.truncate(buf.len() - 5);
    let mut reader = TraceReader::new(buf.as_slice(), None).unwrap();
    let err = loop {
        match reader.next_record() {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("truncated stream accepted"),
            Err(e) => break e,
        }
    };
    assert!(err.to_string().contains("truncated"), "{err}");
}
