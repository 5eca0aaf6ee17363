//! Saving and loading full [`RtmSnapshot`]s.
//!
//! Binary layout after the 16-byte header (see [`crate::format`]):
//!
//! | field | size |
//! |---|---|
//! | geometry: sets, ways, per-PC | 3 × u32 |
//! | trace count | u64 |
//! | shape fingerprint (0 = value-pinned) | u64 |
//! | traces | count × length-prefixed frames: [`tlr_core::TraceRecord`] + [`tlr_core::TraceMeta`] + [`tlr_isa::ClassMix`] |
//! | trailer | u32 zero marker, u64 count, u64 checksum |
//!
//! Every frame carries the record, its 24-byte provenance (hits,
//! last-use tick, source-run id) and its per-class instruction mix,
//! all covered by the frame checksum. Two header flags change the
//! encoding: [`FLAG_COMPRESSED_FRAMES`] (each frame payload becomes
//! `u32` raw length + the [`crate::compress`] stream) and
//! [`FLAG_DELTA_SEGMENT`] (the file is an incremental *delta segment*,
//! see [`crate::delta`]). Binary loads read the whole file into memory
//! up front and parse from the buffer — one syscall per file on the
//! serving path instead of `BufReader` chatter.
//!
//! A `.json` path saves a write-only debug dump of the same content;
//! every load entry point refuses it with
//! [`PersistError::JsonWriteOnly`].

use crate::compress;
use crate::error::{PersistError, Result};
use crate::format::{
    reject_json, FileFormat, Header, FLAG_COMPRESSED_FRAMES, FLAG_DELTA_SEGMENT, KIND_RTM_SNAPSHOT,
};
use crate::json::{self, Json};
use crate::wire;
use std::collections::BTreeMap;
use std::fs::File;
use std::hash::Hasher;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use tlr_core::{
    IoCaps, ReplacementPolicy, RtmConfig, RtmSnapshot, SetAssocGeometry, TraceMeta, TraceRecord,
};
use tlr_util::fxhash::FxHasher64;

/// JSON format tag of the RTM snapshot debug dump.
pub const JSON_SNAPSHOT_FORMAT: &str = "tlr-rtm-v1";

/// Largest RTM geometry a snapshot may declare, per dimension. A factor
/// above the paper's biggest configuration (`RTM_256K`: 2048 × 8 × 16)
/// to leave headroom for experiments, but small enough that a corrupt or
/// hostile header can never trigger a huge allocation on import.
pub const MAX_GEOMETRY_SETS: u32 = 1 << 12;
/// Cap on the `ways` dimension (see [`MAX_GEOMETRY_SETS`]).
pub const MAX_GEOMETRY_WAYS: u32 = 64;
/// Cap on the `per_pc` dimension (see [`MAX_GEOMETRY_SETS`]).
pub const MAX_GEOMETRY_PER_PC: u32 = 64;
/// Cap on total declared trace capacity (4× `RTM_256K`).
pub const MAX_GEOMETRY_CAPACITY: u64 = 1 << 20;

/// Per-side I/O bounds a loaded trace record must satisfy. Generous
/// relative to collection (the paper caps at 8 registers + 4 memory
/// values a side; the register files only hold 64 locations total) but
/// bounded, so cap-busting records are rejected instead of corrupting
/// RTM accounting downstream.
pub const SNAPSHOT_IO_CAPS: IoCaps = IoCaps {
    reg_in: 64,
    mem_in: 1024,
    reg_out: 64,
    mem_out: 1024,
};

/// Encoding choices for [`save_snapshot_with`]. The default matches
/// [`save_snapshot`]: an uncompressed full snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotWriteOptions {
    /// Run-length compress every trace frame ([`FLAG_COMPRESSED_FRAMES`]).
    /// Ignored by the JSON debug format.
    pub compress: bool,
}

impl SnapshotWriteOptions {
    /// How spilled files are encoded: delta segments and compacted
    /// bases (see [`crate::delta::save_base`]) always compress.
    pub const SPILL: SnapshotWriteOptions = SnapshotWriteOptions { compress: true };
}

/// Save `snapshot` to `path`, choosing binary or the write-only JSON
/// debug dump by extension.
pub fn save_snapshot(path: &Path, fingerprint: u64, snapshot: &RtmSnapshot) -> Result<()> {
    save_snapshot_with(path, fingerprint, snapshot, SnapshotWriteOptions::default())
}

/// [`save_snapshot`] with explicit [`SnapshotWriteOptions`].
pub fn save_snapshot_with(
    path: &Path,
    fingerprint: u64,
    snapshot: &RtmSnapshot,
    options: SnapshotWriteOptions,
) -> Result<()> {
    match FileFormat::detect(path) {
        FileFormat::Binary => {
            let mut out = BufWriter::new(File::create(path)?);
            write_snapshot_with(&mut out, fingerprint, snapshot, options)?;
            out.flush()?;
            Ok(())
        }
        FileFormat::Json => {
            let text = json::to_string_pretty(&snapshot_to_json(fingerprint, snapshot));
            std::fs::write(path, text)?;
            Ok(())
        }
    }
}

/// Load a binary snapshot from `path`, optionally pinning
/// the expected program fingerprint. Returns the file's fingerprint and
/// the snapshot. Delta segments are rejected with a named error — load
/// them through [`load_merged_snapshots`] next to their base.
pub fn load_snapshot(path: &Path, expected_fingerprint: Option<u64>) -> Result<(u64, RtmSnapshot)> {
    match load_snapshot_payload(path, expected_fingerprint)? {
        (fp, SnapshotPayload::Full(snapshot)) => Ok((fp, snapshot)),
        (_, SnapshotPayload::Delta(_)) => Err(PersistError::Corrupt(format!(
            "{} is a delta segment; load it with its base via load_merged_snapshots, \
             or fold it with `tlrsim compact`",
            path.display()
        ))),
    }
}

/// What a snapshot file holds: a full snapshot, or an incremental delta
/// segment that overlays one (see [`crate::delta`]).
#[derive(Clone, Debug)]
pub enum SnapshotPayload {
    /// A complete snapshot (no delta flag).
    Full(RtmSnapshot),
    /// A delta segment ([`FLAG_DELTA_SEGMENT`]).
    Delta(crate::delta::DeltaSegment),
}

/// Load either payload kind from a binary snapshot file. The file is
/// read whole into memory and parsed from the buffer.
pub fn load_snapshot_payload(
    path: &Path,
    expected_fingerprint: Option<u64>,
) -> Result<(u64, SnapshotPayload)> {
    reject_json(path)?;
    let bytes = std::fs::read(path)?;
    let mut r = bytes.as_slice();
    let header = Header::read_from(&mut r)?;
    header.expect(KIND_RTM_SNAPSHOT, expected_fingerprint)?;
    if header.flags & FLAG_DELTA_SEGMENT != 0 {
        let delta = crate::delta::read_delta_body(&mut r, &header)?;
        Ok((header.fingerprint, SnapshotPayload::Delta(delta)))
    } else {
        let snapshot = read_snapshot_body(&mut r, &header)?;
        Ok((header.fingerprint, SnapshotPayload::Full(snapshot)))
    }
}

/// Load several snapshot files of the **same program** and merge them
/// into one pooled snapshot ([`RtmSnapshot::merge`] semantics: shared
/// geometry required, MRU priority follows file order, so list the
/// freshest run last).
///
/// Every file's fingerprint must agree — with `expected_fingerprint`
/// when given, otherwise with the first file's. Returns that fingerprint
/// and the merged snapshot.
pub fn load_merged_snapshots(
    paths: &[impl AsRef<Path>],
    expected_fingerprint: Option<u64>,
) -> Result<(u64, RtmSnapshot)> {
    load_merged_snapshots_with(paths, expected_fingerprint, ReplacementPolicy::Lru)
}

/// [`load_merged_snapshots`] merging under an explicit replacement
/// policy ([`RtmSnapshot::merge_with`] semantics): the non-recency
/// policies rank the pooled traces by their persisted provenance.
pub fn load_merged_snapshots_with(
    paths: &[impl AsRef<Path>],
    expected_fingerprint: Option<u64>,
    policy: ReplacementPolicy,
) -> Result<(u64, RtmSnapshot)> {
    if paths.is_empty() {
        return Err(PersistError::Merge(tlr_core::MergeError::Empty));
    }
    let mut pinned = expected_fingerprint;
    let mut snapshots = Vec::with_capacity(paths.len());
    let mut deltas: Vec<(usize, crate::delta::DeltaSegment)> = Vec::new();
    for (order, path) in paths.iter().enumerate() {
        let (fp, payload) = load_snapshot_payload(path.as_ref(), pinned)?;
        pinned = Some(fp);
        match payload {
            SnapshotPayload::Full(snapshot) => snapshots.push(snapshot),
            SnapshotPayload::Delta(delta) => deltas.push((order, delta)),
        }
    }
    let fingerprint = pinned.expect("at least one file loaded");
    let mut merged = if snapshots.is_empty() {
        // Delta-only directory (the base was compacted away elsewhere,
        // or never written): overlay onto an empty snapshot of the
        // deltas' geometry.
        let config = deltas[0].1.config;
        RtmSnapshot {
            config,
            traces: Vec::new(),
            meta: Vec::new(),
            shape: 0,
        }
    } else {
        RtmSnapshot::merge_with(&snapshots, policy)?
    };
    if !deltas.is_empty() {
        // Replay deltas in sequence order (file order breaks ties), then
        // re-import through a single-input merge so recency seeding and
        // capacity enforcement match a full-snapshot load exactly.
        deltas.sort_by_key(|(order, delta)| (delta.seq, *order));
        for (_, delta) in &deltas {
            crate::delta::apply_delta(&mut merged, delta)?;
        }
        crate::delta::canonicalize(&mut merged);
        merged = RtmSnapshot::merge_with(&[merged], policy)?;
    }
    Ok((fingerprint, merged))
}

/// Read only a snapshot file's program fingerprint, without
/// deserializing any traces. A registry indexing a directory of
/// snapshots uses this to map fingerprint → path cheaply: one 16-byte
/// header read.
pub fn peek_snapshot_fingerprint(path: &Path) -> Result<u64> {
    reject_json(path)?;
    let mut r = BufReader::new(File::open(path)?);
    let header = Header::read_from(&mut r)?;
    header.expect(KIND_RTM_SNAPSHOT, None)?;
    Ok(header.fingerprint)
}

/// Read a snapshot file's program fingerprint *and* shape fingerprint
/// without deserializing any traces: one header + prelude read. The
/// shape is 0 (value-pinned) for delta segments, which carry none.
pub fn peek_snapshot_identity(path: &Path) -> Result<(u64, u64)> {
    reject_json(path)?;
    let mut r = BufReader::new(File::open(path)?);
    let header = Header::read_from(&mut r)?;
    header.expect(KIND_RTM_SNAPSHOT, None)?;
    if header.flags & FLAG_DELTA_SEGMENT != 0 {
        return Ok((header.fingerprint, 0));
    }
    // Full prelude: geometry (12 B) + count (8 B) + shape.
    let prelude: [u8; 28] = wire::read_exact(&mut r)?;
    let shape = wire::get_u64(&mut &prelude[20..])?;
    Ok((header.fingerprint, shape))
}

/// Serialize a snapshot to any writer (binary format, uncompressed).
pub fn write_snapshot(w: &mut impl Write, fingerprint: u64, snapshot: &RtmSnapshot) -> Result<()> {
    write_snapshot_with(w, fingerprint, snapshot, SnapshotWriteOptions::default())
}

/// [`write_snapshot`] with explicit [`SnapshotWriteOptions`].
pub fn write_snapshot_with(
    w: &mut impl Write,
    fingerprint: u64,
    snapshot: &RtmSnapshot,
    options: SnapshotWriteOptions,
) -> Result<()> {
    let flags = if options.compress {
        FLAG_COMPRESSED_FRAMES
    } else {
        0
    };
    Header::with_flags(KIND_RTM_SNAPSHOT, fingerprint, flags).write_to(w)?;
    let geometry = snapshot.config.geometry;
    let mut prelude = Vec::with_capacity(28);
    wire::put_u32(&mut prelude, geometry.sets);
    wire::put_u32(&mut prelude, geometry.ways);
    wire::put_u32(&mut prelude, geometry.per_pc);
    wire::put_u64(&mut prelude, snapshot.traces.len() as u64);
    // The producing program's shape fingerprint (0 = value-pinned),
    // covered by the checksum like the rest of the prelude.
    wire::put_u64(&mut prelude, snapshot.shape);
    w.write_all(&prelude)?;

    // The checksum covers the geometry prelude too: a bit flip in
    // `ways` would otherwise still parse as a (different) valid
    // geometry and silently re-shape the import.
    let mut checksum = FxHasher64::new();
    checksum.write(&prelude);
    let mut scratch = Vec::with_capacity(256);
    for (trace, meta) in snapshot.entries() {
        scratch.clear();
        wire::put_trace_record(&mut scratch, trace)?;
        wire::put_trace_meta(&mut scratch, &meta);
        wire::put_class_mix(&mut scratch, trace.mix);
        emit_frame(w, &scratch, options.compress, &mut checksum)?;
    }
    let mut trailer = Vec::with_capacity(20);
    wire::put_u32(&mut trailer, 0);
    wire::put_u64(&mut trailer, snapshot.traces.len() as u64);
    wire::put_u64(&mut trailer, checksum.finish());
    w.write_all(&trailer)?;
    Ok(())
}

/// Write one entry frame, compressing the payload when asked. The frame
/// checksum always covers the on-disk bytes, so damage to a compressed
/// stream is caught before decompression output reaches the parser.
pub(crate) fn emit_frame(
    w: &mut impl Write,
    raw: &[u8],
    compress_payload: bool,
    checksum: &mut FxHasher64,
) -> Result<()> {
    if compress_payload {
        let mut payload = Vec::with_capacity(raw.len() / 2 + 8);
        wire::put_u32(&mut payload, raw.len() as u32);
        payload.extend_from_slice(&compress::compress(raw));
        wire::write_frame(w, &payload, checksum)
    } else {
        wire::write_frame(w, raw, checksum)
    }
}

/// Read one entry frame, inverting [`emit_frame`]. Returns `None` at
/// the trailer marker.
pub(crate) fn next_frame(
    r: &mut impl Read,
    compressed: bool,
    checksum: &mut FxHasher64,
) -> Result<Option<Vec<u8>>> {
    let Some(frame) = wire::read_frame(r, checksum)? else {
        return Ok(None);
    };
    if !compressed {
        return Ok(Some(frame));
    }
    let mut slice = frame.as_slice();
    let raw_len = wire::get_u32(&mut slice)?;
    if raw_len > wire::MAX_FRAME {
        return Err(PersistError::Corrupt(format!(
            "compressed frame declares {raw_len} raw bytes, over the {} cap",
            wire::MAX_FRAME
        )));
    }
    Ok(Some(compress::decompress(slice, raw_len as usize)?))
}

/// Decode one entry frame's payload — record, provenance, class mix —
/// with the loader's named corruption errors.
pub(crate) fn decode_entry(frame: &[u8], index: usize) -> Result<(TraceRecord, TraceMeta)> {
    let mut slice = frame;
    let mut trace = wire::get_trace_record(&mut slice)?;
    let trace_meta = wire::get_trace_meta(&mut slice).map_err(|_| {
        PersistError::Corrupt(format!(
            "trace {index} (pc={:#x}) is missing its provenance record",
            trace.start_pc
        ))
    })?;
    trace.mix = wire::get_class_mix(&mut slice).map_err(|e| match e {
        corrupt @ PersistError::Corrupt(_) => corrupt,
        _ => PersistError::Corrupt(format!(
            "trace {index} (pc={:#x}) is missing its class mix",
            trace.start_pc
        )),
    })?;
    if !slice.is_empty() {
        return Err(PersistError::Corrupt(format!(
            "{} stray bytes after trace {index}",
            slice.len()
        )));
    }
    validate_record(index, &trace)?;
    Ok((trace, trace_meta))
}

/// Deserialize a snapshot from any reader (binary format). Rejects
/// delta segments with a named error; see [`load_snapshot_payload`].
pub fn read_snapshot(
    r: &mut impl Read,
    expected_fingerprint: Option<u64>,
) -> Result<(u64, RtmSnapshot)> {
    let header = Header::read_from(r)?;
    header.expect(KIND_RTM_SNAPSHOT, expected_fingerprint)?;
    if header.flags & FLAG_DELTA_SEGMENT != 0 {
        return Err(PersistError::Corrupt(
            "stream holds a delta segment, not a full snapshot; \
             load it with its base via load_merged_snapshots"
                .into(),
        ));
    }
    let snapshot = read_snapshot_body(r, &header)?;
    Ok((header.fingerprint, snapshot))
}

/// Parse a full snapshot's body, the header already consumed.
pub(crate) fn read_snapshot_body(r: &mut impl Read, header: &Header) -> Result<RtmSnapshot> {
    let compressed = header.flags & FLAG_COMPRESSED_FRAMES != 0;
    let prelude: [u8; 28] = wire::read_exact(r)?;
    let mut cursor = prelude.as_slice();
    let geometry = SetAssocGeometry {
        sets: wire::get_u32(&mut cursor)?,
        ways: wire::get_u32(&mut cursor)?,
        per_pc: wire::get_u32(&mut cursor)?,
    };
    validate_geometry(&geometry)?;
    let declared = wire::get_u64(&mut cursor)?;
    let shape = wire::get_u64(&mut cursor)?;
    let mut checksum = FxHasher64::new();
    checksum.write(&prelude);
    let mut traces = Vec::with_capacity(declared.min(1 << 20) as usize);
    let mut meta = Vec::with_capacity(declared.min(1 << 20) as usize);
    while let Some(frame) = next_frame(r, compressed, &mut checksum)? {
        let (trace, trace_meta) = decode_entry(&frame, traces.len())?;
        traces.push(trace);
        meta.push(trace_meta);
    }
    let count = wire::get_u64(r)?;
    let stored_checksum = wire::get_u64(r)?;
    if count != traces.len() as u64 || declared != count {
        return Err(PersistError::Corrupt(format!(
            "snapshot declared {declared} traces, trailer says {count}, file held {}",
            traces.len()
        )));
    }
    if stored_checksum != checksum.finish() {
        return Err(PersistError::Corrupt(
            "snapshot checksum mismatch (file is damaged)".into(),
        ));
    }
    Ok(RtmSnapshot {
        config: RtmConfig { geometry },
        traces,
        meta,
        shape,
    })
}

pub(crate) fn validate_geometry(g: &SetAssocGeometry) -> Result<()> {
    if !g.sets.is_power_of_two() || g.ways == 0 || g.per_pc == 0 {
        return Err(PersistError::Corrupt(format!(
            "invalid RTM geometry: {} sets x {} ways x {} per PC",
            g.sets, g.ways, g.per_pc
        )));
    }
    // Bound every dimension: a corrupt or hostile snapshot declaring e.g.
    // sets = 2^30 would otherwise pass the power-of-two check and trigger
    // a multi-GiB allocation in the RTM constructor on import.
    if g.sets > MAX_GEOMETRY_SETS
        || g.ways > MAX_GEOMETRY_WAYS
        || g.per_pc > MAX_GEOMETRY_PER_PC
        || g.capacity() > MAX_GEOMETRY_CAPACITY
    {
        return Err(PersistError::Corrupt(format!(
            "oversized RTM geometry: {} sets x {} ways x {} per PC \
             (limits: {MAX_GEOMETRY_SETS} x {MAX_GEOMETRY_WAYS} x {MAX_GEOMETRY_PER_PC}, \
             {MAX_GEOMETRY_CAPACITY} traces total)",
            g.sets, g.ways, g.per_pc
        )));
    }
    Ok(())
}

/// Re-check the invariants collection guarantees: at least one covered
/// instruction and live-in/live-out sets within [`SNAPSHOT_IO_CAPS`].
/// Without this a `len = 0` or cap-busting record from a damaged file
/// would enter the RTM and corrupt `pct_reused()` /
/// `avg_reused_trace_size()` accounting.
pub(crate) fn validate_record(index: usize, rec: &TraceRecord) -> Result<()> {
    if rec.len == 0 {
        return Err(PersistError::Corrupt(format!(
            "trace {index} (pc={:#x}) covers zero instructions",
            rec.start_pc
        )));
    }
    if !rec.within_caps(&SNAPSHOT_IO_CAPS) {
        return Err(PersistError::Corrupt(format!(
            "trace {index} (pc={:#x}) declares {} reg / {} mem live-ins and \
             {} reg / {} mem live-outs, over the load caps \
             ({} reg / {} mem per side)",
            rec.start_pc,
            rec.reg_ins(),
            rec.mem_ins(),
            rec.reg_outs(),
            rec.mem_outs(),
            SNAPSHOT_IO_CAPS.reg_in,
            SNAPSHOT_IO_CAPS.mem_in,
        )));
    }
    if rec.mix.total() > u64::from(rec.len) {
        return Err(PersistError::Corrupt(format!(
            "trace {index} (pc={:#x}) attributes {} instructions by class \
             but covers only {}",
            rec.start_pc,
            rec.mix.total(),
            rec.len
        )));
    }
    Ok(())
}

fn snapshot_to_json(fingerprint: u64, snapshot: &RtmSnapshot) -> Json {
    let geometry = snapshot.config.geometry;
    let mut geom = BTreeMap::new();
    geom.insert("sets".into(), Json::Num(geometry.sets as u64));
    geom.insert("ways".into(), Json::Num(geometry.ways as u64));
    geom.insert("per_pc".into(), Json::Num(geometry.per_pc as u64));

    let pairs = |items: &[(tlr_isa::Loc, u64)]| {
        Json::Arr(
            items
                .iter()
                .map(|(loc, val)| {
                    let (tag, n) = wire::loc_tag(*loc);
                    Json::Arr(vec![Json::Num(tag), Json::Num(n), Json::Num(*val)])
                })
                .collect(),
        )
    };
    let traces = snapshot
        .entries()
        .map(|(t, m)| {
            let mut obj = BTreeMap::new();
            obj.insert("start_pc".into(), Json::Num(t.start_pc as u64));
            obj.insert("next_pc".into(), Json::Num(t.next_pc as u64));
            obj.insert("len".into(), Json::Num(t.len as u64));
            obj.insert("ins".into(), pairs(&t.ins));
            obj.insert("outs".into(), pairs(&t.outs));
            let mut meta = BTreeMap::new();
            meta.insert("hits".into(), Json::Num(m.hits));
            meta.insert("last_use".into(), Json::Num(m.last_use));
            meta.insert("source_run".into(), Json::Num(m.source_run));
            obj.insert("meta".into(), Json::Obj(meta));
            obj.insert(
                "mix".into(),
                Json::Arr(
                    t.mix
                        .iter()
                        .map(|(_, count)| Json::Num(u64::from(count)))
                        .collect(),
                ),
            );
            Json::Obj(obj)
        })
        .collect();

    let mut doc = BTreeMap::new();
    doc.insert("format".into(), Json::Str(JSON_SNAPSHOT_FORMAT.into()));
    doc.insert("fingerprint".into(), Json::Num(fingerprint));
    doc.insert("geometry".into(), Json::Obj(geom));
    doc.insert("shape".into(), Json::Num(snapshot.shape));
    doc.insert("traces".into(), Json::Arr(traces));
    Json::Obj(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_isa::Loc;

    fn sample_snapshot() -> RtmSnapshot {
        let mut snapshot = RtmSnapshot::from_traces(
            RtmConfig::RTM_512,
            (0..20)
                .map(|i| {
                    // Non-trivial, per-trace-distinct mix summing to `len`.
                    let mut counts = [0u32; tlr_isa::OpClass::COUNT];
                    counts[tlr_isa::OpClass::IntAlu.index()] = 3;
                    counts[tlr_isa::OpClass::ALL[(i % 11) as usize].index()] += 1;
                    TraceRecord {
                        start_pc: i,
                        next_pc: i + 4,
                        len: 4,
                        ins: vec![(Loc::IntReg(1), i as u64), (Loc::Mem(64 + i as u64), 7)]
                            .into_boxed_slice(),
                        outs: vec![(Loc::IntReg(2), i as u64 * 2)].into_boxed_slice(),
                        mix: tlr_isa::ClassMix::from_counts(counts),
                    }
                })
                .collect(),
        );
        // Non-trivial provenance, so roundtrips prove it is carried.
        for (i, m) in snapshot.meta.iter_mut().enumerate() {
            m.hits = i as u64 * 3;
            m.last_use = 1000 + i as u64;
            m.source_run = 0xabcd;
        }
        snapshot
    }

    /// `RtmSnapshot` equality ignores class mixes (trace identity
    /// excludes them), so roundtrip tests must compare them explicitly.
    fn assert_mixes_match(again: &RtmSnapshot, snapshot: &RtmSnapshot, tag: &str) {
        for (a, b) in again.traces.iter().zip(&snapshot.traces) {
            assert_eq!(a.mix, b.mix, "{tag}: class mix lost at pc={}", a.start_pc);
        }
        assert!(
            snapshot.traces.iter().any(|t| !t.mix.is_empty()),
            "{tag}: fixture must carry non-empty mixes"
        );
    }

    #[test]
    fn binary_roundtrip() {
        let snapshot = sample_snapshot();
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 77, &snapshot).unwrap();
        let (fp, again) = read_snapshot(&mut buf.as_slice(), Some(77)).unwrap();
        assert_eq!(fp, 77);
        assert_eq!(again, snapshot);
        assert_mixes_match(&again, &snapshot, "binary");
    }

    /// The JSON debug dump is write-only, but it must stay a faithful,
    /// parseable picture of the snapshot.
    #[test]
    fn json_roundtrip() {
        let mut snapshot = sample_snapshot();
        snapshot.shape = 0x5a5e;
        let text = json::to_string_pretty(&snapshot_to_json(5, &snapshot));
        let doc = json::parse(&text).unwrap();
        let field = |key| doc.field(key).unwrap();
        assert_eq!(
            field("format").as_str("format").unwrap(),
            JSON_SNAPSHOT_FORMAT
        );
        assert_eq!(field("fingerprint").as_u64("fingerprint").unwrap(), 5);
        assert_eq!(field("shape").as_u64("shape").unwrap(), 0x5a5e);
        let traces = field("traces").as_arr("traces").unwrap();
        assert_eq!(traces.len(), snapshot.len());
        let pcs: Vec<u64> = traces
            .iter()
            .map(|t| t.field("start_pc").unwrap().as_u64("start_pc").unwrap())
            .collect();
        let expected: Vec<u64> = snapshot.traces.iter().map(|t| t.start_pc.into()).collect();
        assert_eq!(pcs, expected);
    }

    /// Both binary frame encodings (plain and run-length compressed)
    /// of `snapshot` must fail to load with a `Corrupt` error naming
    /// `needle`.
    fn expect_corrupt_both_formats(snapshot: &RtmSnapshot, needle: &str) {
        for compress in [false, true] {
            let mut buf = Vec::new();
            write_snapshot_with(&mut buf, 0, snapshot, SnapshotWriteOptions { compress }).unwrap();
            match read_snapshot(&mut buf.as_slice(), None) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(msg.contains(needle), "compress={compress}: {msg}")
                }
                other => panic!("compress={compress}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn overclaiming_mix_rejected_both_formats() {
        let mut snapshot = sample_snapshot();
        let mut counts = [0u32; tlr_isa::OpClass::COUNT];
        counts[tlr_isa::OpClass::IntAlu.index()] = snapshot.traces[2].len + 1;
        snapshot.traces[2].mix = tlr_isa::ClassMix::from_counts(counts);
        expect_corrupt_both_formats(&snapshot, "attributes");
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 0, &sample_snapshot()).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 1;
        assert!(read_snapshot(&mut buf.as_slice(), None).is_err());
    }

    #[test]
    fn invalid_geometry_rejected() {
        let mut snapshot = sample_snapshot();
        snapshot.config.geometry.sets = 33; // not a power of two
        let mut buf = Vec::new();
        write_snapshot(&mut buf, 0, &snapshot).unwrap();
        match read_snapshot(&mut buf.as_slice(), None) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("geometry"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_geometry_rejected_both_formats() {
        // 2^30 sets is a power of two, so it passes the power-of-two
        // check and would allocate gigabytes in the RTM constructor.
        let mut snapshot = sample_snapshot();
        snapshot.config.geometry.sets = 1 << 30;
        expect_corrupt_both_formats(&snapshot, "oversized");
    }

    #[test]
    fn zero_length_trace_rejected_both_formats() {
        let mut snapshot = sample_snapshot();
        snapshot.traces[3].len = 0;
        expect_corrupt_both_formats(&snapshot, "zero instructions");
    }

    #[test]
    fn cap_busting_io_lists_rejected_both_formats() {
        let mut snapshot = sample_snapshot();
        snapshot.traces[0].ins = (0..SNAPSHOT_IO_CAPS.mem_in as u64 + 1)
            .map(|i| (Loc::Mem(i * 8), i))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        expect_corrupt_both_formats(&snapshot, "load caps");
    }

    #[test]
    fn peek_reads_fingerprint_without_loading() {
        let dir = std::env::temp_dir().join("tlr-snapshot-peek-test");
        std::fs::create_dir_all(&dir).unwrap();
        let bin = dir.join("peek.tlrsnap");
        let mut snapshot = sample_snapshot();
        snapshot.shape = 0x5a5e;
        save_snapshot(&bin, 0xfeed, &snapshot).unwrap();
        assert_eq!(peek_snapshot_fingerprint(&bin).unwrap(), 0xfeed);
        assert_eq!(peek_snapshot_identity(&bin).unwrap(), (0xfeed, 0x5a5e));
        // JSON dumps are write-only: no peek reads one.
        let jsn = dir.join("peek.json");
        save_snapshot(&jsn, 0xbeef, &snapshot).unwrap();
        assert!(matches!(
            peek_snapshot_fingerprint(&jsn),
            Err(PersistError::JsonWriteOnly)
        ));
    }

    #[test]
    fn merged_load_pools_files_and_pins_fingerprint() {
        let dir = std::env::temp_dir().join("tlr-snapshot-merge-load-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.tlrsnap");
        let b = dir.join("b.tlrsnap");
        let mut snap_b = sample_snapshot();
        for t in snap_b.traces.iter_mut() {
            t.start_pc += 1000; // disjoint PCs: clean union
            t.next_pc += 1000;
        }
        save_snapshot(&a, 7, &sample_snapshot()).unwrap();
        save_snapshot(&b, 7, &snap_b).unwrap();

        let (fp, merged) = load_merged_snapshots(&[&a, &b], Some(7)).unwrap();
        assert_eq!(fp, 7);
        assert_eq!(merged.len(), 40);

        // A file from a different program is rejected even when the
        // caller did not pin a fingerprint: the first file pins it.
        save_snapshot(&b, 8, &snap_b).unwrap();
        assert!(matches!(
            load_merged_snapshots(&[&a, &b], None),
            Err(PersistError::FingerprintMismatch {
                found: 8,
                expected: 7
            })
        ));
        let empty: &[&Path] = &[];
        assert!(matches!(
            load_merged_snapshots(empty, None),
            Err(PersistError::Merge(tlr_core::MergeError::Empty))
        ));
    }

    #[test]
    fn kind_mismatch_rejected() {
        // A trace-stream header is not a snapshot.
        let mut buf = Vec::new();
        let w = crate::stream::TraceWriter::new(&mut buf, 3).unwrap();
        w.close().unwrap();
        assert!(matches!(
            read_snapshot(&mut buf.as_slice(), None),
            Err(PersistError::KindMismatch { .. })
        ));
    }
}
