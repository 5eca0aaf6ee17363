//! Little-endian binary codecs for the on-disk types.
//!
//! Every multi-byte integer is little-endian. Variable-length payloads
//! (dynamic instructions, trace records) are length-prefixed by their
//! frame (see [`crate::stream`] and [`crate::snapshot`]), so codecs here
//! only need to read exactly what they wrote.

use crate::error::{PersistError, Result};
use std::hash::Hasher;
use std::io::{Read, Write};
use tlr_asm::Program;
use tlr_core::TraceRecord;
use tlr_isa::dynrec::{MAX_READS, MAX_WRITES};
use tlr_isa::{ClassMix, DynInstr, Loc, OpClass};
use tlr_util::fxhash::FxHasher64;

/// Bumped when the meaning of the instruction stream changes (ISA
/// semantics, record layout): folds into every file's fingerprint so
/// stale recordings are rejected loudly rather than replayed wrongly.
pub const ISA_REVISION: u64 = 1;

// ---- primitive readers/writers ------------------------------------------
//
// Public: the `tlrd` socket protocol (`tlr-serve::proto`) encodes its
// frames with the same little-endian primitives the file formats use.

/// Append one little-endian `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append one little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append one little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append one little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn read_exact<const N: usize>(r: &mut impl Read) -> Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Read one little-endian `u8`.
pub fn get_u8(r: &mut impl Read) -> Result<u8> {
    Ok(read_exact::<1>(r)?[0])
}

/// Read one little-endian `u16`.
pub fn get_u16(r: &mut impl Read) -> Result<u16> {
    Ok(u16::from_le_bytes(read_exact::<2>(r)?))
}

/// Read one little-endian `u32`.
pub fn get_u32(r: &mut impl Read) -> Result<u32> {
    Ok(u32::from_le_bytes(read_exact::<4>(r)?))
}

/// Read one little-endian `u64`.
pub fn get_u64(r: &mut impl Read) -> Result<u64> {
    Ok(u64::from_le_bytes(read_exact::<8>(r)?))
}

/// Cap on one file frame's payload size, enforced symmetrically: the
/// writer refuses to produce what the reader would refuse to load.
pub const MAX_FRAME: u32 = 1 << 20;

/// Write one length-prefixed frame and fold it into `checksum`.
pub(crate) fn write_frame(
    w: &mut impl Write,
    payload: &[u8],
    checksum: &mut FxHasher64,
) -> Result<()> {
    debug_assert!(!payload.is_empty(), "zero-length frames mark the trailer");
    if payload.len() > MAX_FRAME as usize {
        return Err(PersistError::Corrupt(format!(
            "record serializes to {} bytes, over the {MAX_FRAME}-byte frame cap",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    checksum.write(payload);
    Ok(())
}

/// Read one length-prefixed frame; `Ok(None)` on the zero-length trailer
/// marker. Frames are capped so corrupt lengths fail fast instead of
/// attempting huge allocations.
pub(crate) fn read_frame(r: &mut impl Read, checksum: &mut FxHasher64) -> Result<Option<Vec<u8>>> {
    let len = get_u32(r)?;
    if len == 0 {
        return Ok(None);
    }
    if len > MAX_FRAME {
        return Err(PersistError::Corrupt(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    checksum.write(&buf);
    Ok(Some(buf))
}

// ---- Loc ------------------------------------------------------------------

const LOC_INT: u8 = 0;
const LOC_FP: u8 = 1;
const LOC_MEM: u8 = 2;

pub(crate) fn put_loc(out: &mut Vec<u8>, loc: Loc) {
    match loc {
        Loc::IntReg(n) => {
            put_u8(out, LOC_INT);
            put_u8(out, n);
        }
        Loc::FpReg(n) => {
            put_u8(out, LOC_FP);
            put_u8(out, n);
        }
        Loc::Mem(addr) => {
            put_u8(out, LOC_MEM);
            put_u64(out, addr);
        }
    }
}

pub(crate) fn get_loc(r: &mut impl Read) -> Result<Loc> {
    match get_u8(r)? {
        LOC_INT => Ok(Loc::IntReg(get_u8(r)?)),
        LOC_FP => Ok(Loc::FpReg(get_u8(r)?)),
        LOC_MEM => Ok(Loc::Mem(get_u64(r)?)),
        tag => Err(PersistError::Corrupt(format!("unknown Loc tag {tag}"))),
    }
}

/// Numeric tags used for [`Loc`] in both the binary and JSON formats.
pub fn loc_tag(loc: Loc) -> (u64, u64) {
    match loc {
        Loc::IntReg(n) => (LOC_INT as u64, n as u64),
        Loc::FpReg(n) => (LOC_FP as u64, n as u64),
        Loc::Mem(addr) => (LOC_MEM as u64, addr),
    }
}

/// Inverse of [`loc_tag`].
pub fn loc_from_tag(tag: u64, value: u64) -> Result<Loc> {
    match tag {
        t if t == LOC_INT as u64 => Ok(Loc::IntReg(value as u8)),
        t if t == LOC_FP as u64 => Ok(Loc::FpReg(value as u8)),
        t if t == LOC_MEM as u64 => Ok(Loc::Mem(value)),
        _ => Err(PersistError::Corrupt(format!("unknown Loc tag {tag}"))),
    }
}

// ---- OpClass --------------------------------------------------------------

pub(crate) fn opclass_code(class: OpClass) -> u8 {
    OpClass::ALL
        .iter()
        .position(|c| *c == class)
        .expect("OpClass::ALL is exhaustive") as u8
}

pub(crate) fn opclass_from_code(code: u8) -> Result<OpClass> {
    OpClass::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| PersistError::Corrupt(format!("unknown OpClass code {code}")))
}

// ---- DynInstr -------------------------------------------------------------

/// Encode one dynamic instruction record.
pub(crate) fn put_dyn_instr(out: &mut Vec<u8>, d: &DynInstr) {
    put_u32(out, d.pc);
    put_u32(out, d.next_pc);
    put_u8(out, opclass_code(d.class));
    put_u8(out, d.reads.len() as u8);
    put_u8(out, d.writes.len() as u8);
    for (loc, val) in d.reads.iter() {
        put_loc(out, *loc);
        put_u64(out, *val);
    }
    for (loc, val) in d.writes.iter() {
        put_loc(out, *loc);
        put_u64(out, *val);
    }
}

/// Decode one dynamic instruction record.
pub(crate) fn get_dyn_instr(r: &mut impl Read) -> Result<DynInstr> {
    let pc = get_u32(r)?;
    let next_pc = get_u32(r)?;
    let class = opclass_from_code(get_u8(r)?)?;
    let n_reads = get_u8(r)? as usize;
    let n_writes = get_u8(r)? as usize;
    if n_reads > MAX_READS || n_writes > MAX_WRITES {
        return Err(PersistError::Corrupt(format!(
            "record at pc={pc} claims {n_reads} reads / {n_writes} writes \
             (caps are {MAX_READS}/{MAX_WRITES})"
        )));
    }
    let mut d = DynInstr {
        pc,
        next_pc,
        class,
        reads: Default::default(),
        writes: Default::default(),
    };
    for _ in 0..n_reads {
        let loc = get_loc(r)?;
        d.reads.push((loc, get_u64(r)?));
    }
    for _ in 0..n_writes {
        let loc = get_loc(r)?;
        d.writes.push((loc, get_u64(r)?));
    }
    Ok(d)
}

// ---- TraceRecord ----------------------------------------------------------

/// Encode one finished trace record. Rejects records whose live-in or
/// live-out counts do not fit the format's `u16` fields (possible under
/// `IoCaps::UNLIMITED`) rather than silently truncating them.
pub(crate) fn put_trace_record(out: &mut Vec<u8>, rec: &TraceRecord) -> Result<()> {
    if rec.ins.len() > u16::MAX as usize || rec.outs.len() > u16::MAX as usize {
        return Err(PersistError::Corrupt(format!(
            "trace at pc={} has {} live-ins / {} live-outs; the format caps both at {}",
            rec.start_pc,
            rec.ins.len(),
            rec.outs.len(),
            u16::MAX
        )));
    }
    put_u32(out, rec.start_pc);
    put_u32(out, rec.next_pc);
    put_u32(out, rec.len);
    put_u16(out, rec.ins.len() as u16);
    put_u16(out, rec.outs.len() as u16);
    for (loc, val) in rec.ins.iter() {
        put_loc(out, *loc);
        put_u64(out, *val);
    }
    for (loc, val) in rec.outs.iter() {
        put_loc(out, *loc);
        put_u64(out, *val);
    }
    Ok(())
}

/// Decode one finished trace record.
pub(crate) fn get_trace_record(r: &mut impl Read) -> Result<TraceRecord> {
    let start_pc = get_u32(r)?;
    let next_pc = get_u32(r)?;
    let len = get_u32(r)?;
    let n_ins = get_u16(r)? as usize;
    let n_outs = get_u16(r)? as usize;
    let mut read_pairs = |n: usize| -> Result<Box<[(Loc, u64)]>> {
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let loc = get_loc(r)?;
            v.push((loc, get_u64(r)?));
        }
        Ok(v.into_boxed_slice())
    };
    let ins = read_pairs(n_ins)?;
    let outs = read_pairs(n_outs)?;
    Ok(TraceRecord {
        start_pc,
        next_pc,
        len,
        ins,
        outs,
        // The mix follows the provenance record in a snapshot frame;
        // the snapshot reader fills it in.
        mix: ClassMix::EMPTY,
    })
}

// ---- ClassMix -------------------------------------------------------------

/// Encode a trace's per-class instruction mix (appended after the
/// provenance record inside the frame). Self-describing: a
/// lane-count prefix lets a reader reject a mix written by an ISA with a
/// different class set instead of misparsing it.
pub(crate) fn put_class_mix(out: &mut Vec<u8>, mix: ClassMix) {
    put_u8(out, OpClass::COUNT as u8);
    for (_, count) in mix.iter() {
        put_u32(out, count);
    }
}

/// Decode a trace's per-class instruction mix.
pub(crate) fn get_class_mix(r: &mut impl Read) -> Result<ClassMix> {
    let lanes = get_u8(r)? as usize;
    if lanes != OpClass::COUNT {
        return Err(PersistError::Corrupt(format!(
            "class mix claims {lanes} instruction classes; this ISA has {}",
            OpClass::COUNT
        )));
    }
    let mut counts = [0u32; OpClass::COUNT];
    for lane in counts.iter_mut() {
        *lane = get_u32(r)?;
    }
    Ok(ClassMix::from_counts(counts))
}

// ---- TraceMeta ------------------------------------------------------------

/// Encode one trace's provenance (appended to the trace record inside
/// its frame, so the frame checksum covers it).
pub(crate) fn put_trace_meta(out: &mut Vec<u8>, meta: &tlr_core::TraceMeta) {
    put_u64(out, meta.hits);
    put_u64(out, meta.last_use);
    put_u64(out, meta.source_run);
}

/// Decode one trace's provenance.
pub(crate) fn get_trace_meta(r: &mut impl Read) -> Result<tlr_core::TraceMeta> {
    Ok(tlr_core::TraceMeta {
        hits: get_u64(r)?,
        last_use: get_u64(r)?,
        source_run: get_u64(r)?,
    })
}

// ---- fingerprint ----------------------------------------------------------

/// Fingerprint of everything a recording's validity depends on: the
/// program text (instructions + entry + initial data image) and the ISA
/// revision. Streams and snapshots stamp this in their header; loading
/// against a different program fails with
/// [`PersistError::FingerprintMismatch`].
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = FxHasher64::new();
    h.write_u64(ISA_REVISION);
    h.write_u64(program.entry as u64);
    h.write_u64(program.instrs.len() as u64);
    for instr in &program.instrs {
        h.write(instr.to_string().as_bytes());
    }
    h.write_u64(program.data.len() as u64);
    for (addr, value) in &program.data {
        h.write_u64(*addr);
        h.write_u64(*value);
    }
    h.finish()
}

/// Value-independent identity of a program: everything
/// [`program_fingerprint`] hashes *except* the initial data image. Runs
/// of the same code over different data agree on it, which is what lets
/// a data-varied client warm-start from another run's published
/// snapshot — the RTM's live-in value comparison at reuse time is the
/// safety net that makes the weaker identity sound. A domain-separation
/// constant keeps a program's shape fingerprint distinct from its value
/// fingerprint even when the program carries no data image at all.
pub fn program_shape_fingerprint(program: &Program) -> u64 {
    let mut h = FxHasher64::new();
    h.write_u64(0x5452_4143_4553_4850); // "TRACESHP": shape domain
    h.write_u64(ISA_REVISION);
    h.write_u64(program.entry as u64);
    h.write_u64(program.instrs.len() as u64);
    for instr in &program.instrs {
        h.write(instr.to_string().as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_asm::assemble;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xab);
        put_u16(&mut buf, 0xcdef);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, 0x0123_4567_89ab_cdef);
        let mut r = buf.as_slice();
        assert_eq!(get_u8(&mut r).unwrap(), 0xab);
        assert_eq!(get_u16(&mut r).unwrap(), 0xcdef);
        assert_eq!(get_u32(&mut r).unwrap(), 0xdead_beef);
        assert_eq!(get_u64(&mut r).unwrap(), 0x0123_4567_89ab_cdef);
        assert!(get_u8(&mut r).is_err());
    }

    #[test]
    fn loc_roundtrips_all_kinds() {
        for loc in [
            Loc::IntReg(0),
            Loc::IntReg(31),
            Loc::FpReg(7),
            Loc::Mem(0),
            Loc::Mem(u64::MAX),
        ] {
            let mut buf = Vec::new();
            put_loc(&mut buf, loc);
            assert_eq!(get_loc(&mut buf.as_slice()).unwrap(), loc);
            let (tag, value) = loc_tag(loc);
            assert_eq!(loc_from_tag(tag, value).unwrap(), loc);
        }
        assert!(get_loc(&mut [9u8].as_slice()).is_err());
        assert!(loc_from_tag(9, 0).is_err());
    }

    #[test]
    fn opclass_codes_roundtrip() {
        for class in OpClass::ALL {
            assert_eq!(opclass_from_code(opclass_code(class)).unwrap(), class);
        }
        assert!(opclass_from_code(OpClass::ALL.len() as u8).is_err());
    }

    #[test]
    fn fingerprint_distinguishes_programs() {
        let a = assemble("li r1, 1\nhalt\n").unwrap();
        let b = assemble("li r1, 2\nhalt\n").unwrap();
        let a2 = assemble("li r1, 1\nhalt\n").unwrap();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a2));
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }
}
