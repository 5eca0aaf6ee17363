//! Recording and reading `DynInstr` streams.
//!
//! **Record mode**: [`TraceWriter`] implements [`StreamSink`], so it taps
//! directly into `tlr_vm::Vm::run` — every committed instruction is
//! appended to the file as a length-prefixed frame. The stream ends with
//! a trailer (record count, checksum, halt flag) written by
//! [`TraceWriter::close`] — always close a recording; a file without its
//! trailer is reported as truncated instead of being silently accepted.
//!
//! **Read mode**: [`TraceReader`] yields records one at a time without
//! materializing the stream, verifying the trailer when it is reached.

use crate::error::{PersistError, Result};
use crate::format::{reject_json, FileFormat, Header, KIND_TRACE_STREAM};
use crate::json::{self, Json};
use crate::wire;
use std::collections::BTreeMap;
use std::fs::File;
use std::hash::Hasher;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use tlr_isa::{DynInstr, StreamSink};
use tlr_util::fxhash::FxHasher64;

/// Streaming binary writer for an executed-instruction trace.
///
/// Use it as the sink of a VM run:
///
/// ```
/// use tlr_asm::assemble;
/// use tlr_isa::StreamSink;
/// use tlr_persist::{program_fingerprint, TraceWriter};
/// use tlr_vm::Vm;
///
/// let program = assemble("li r1, 3\nhalt\n").unwrap();
/// let mut buf = Vec::new();
/// let mut sink = TraceWriter::new(&mut buf, program_fingerprint(&program)).unwrap();
/// let outcome = Vm::new(&program).run(100, &mut sink).unwrap();
/// sink.set_halted(matches!(outcome, tlr_vm::RunOutcome::Halted { .. }));
/// assert_eq!(sink.close().unwrap(), 1);
/// ```
pub struct TraceWriter<W: Write> {
    out: W,
    checksum: FxHasher64,
    count: u64,
    halted: bool,
    trailer_written: bool,
    scratch: Vec<u8>,
    /// First I/O error, reported at [`TraceWriter::close`] (the
    /// [`StreamSink`] interface cannot propagate errors per record).
    deferred: Option<PersistError>,
}

impl TraceWriter<BufWriter<File>> {
    /// Create (truncate) `path` and write the stream header. The path's
    /// extension must select the binary format — JSON is a one-shot
    /// format (see [`save_trace`]), not a streaming one.
    pub fn create(path: &Path, fingerprint: u64) -> Result<Self> {
        if FileFormat::detect(path) == FileFormat::Json {
            return Err(PersistError::Corrupt(
                "streaming trace files are binary; write JSON via save_trace".into(),
            ));
        }
        Self::new(BufWriter::new(File::create(path)?), fingerprint)
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wrap `out` and write the stream header.
    pub fn new(mut out: W, fingerprint: u64) -> Result<Self> {
        Header::new(KIND_TRACE_STREAM, fingerprint).write_to(&mut out)?;
        Ok(Self {
            out,
            checksum: FxHasher64::new(),
            count: 0,
            halted: false,
            trailer_written: false,
            scratch: Vec::with_capacity(128),
            deferred: None,
        })
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mark whether the recorded run ended on `halt` (as opposed to
    /// budget exhaustion). Stored in the trailer so replay can verify
    /// termination too. Call after the run, before
    /// [`TraceWriter::close`].
    pub fn set_halted(&mut self, halted: bool) {
        self.halted = halted;
    }

    fn append(&mut self, d: &DynInstr) -> Result<()> {
        self.scratch.clear();
        wire::put_dyn_instr(&mut self.scratch, d);
        wire::write_frame(&mut self.out, &self.scratch, &mut self.checksum)?;
        self.count += 1;
        Ok(())
    }

    fn write_trailer(&mut self) -> Result<()> {
        if self.trailer_written {
            return Ok(());
        }
        self.trailer_written = true;
        let mut buf = Vec::with_capacity(21);
        wire::put_u32(&mut buf, 0);
        wire::put_u64(&mut buf, self.count);
        wire::put_u64(&mut buf, self.checksum.finish());
        wire::put_u8(&mut buf, self.halted as u8);
        self.out.write_all(&buf)?;
        self.out.flush()?;
        Ok(())
    }

    /// Write the trailer, flush, and surface any deferred I/O error.
    /// Returns the number of records written. A recording that is never
    /// closed has no trailer and loads as "truncated".
    pub fn close(mut self) -> Result<u64> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        self.write_trailer()?;
        Ok(self.count)
    }
}

impl<W: Write> StreamSink for TraceWriter<W> {
    fn observe(&mut self, d: &DynInstr) {
        if self.deferred.is_none() {
            if let Err(e) = self.append(d) {
                self.deferred = Some(e);
            }
        }
    }

    fn finish(&mut self) {
        // The trailer is NOT written here: `Vm::run` calls `finish`
        // before the recorder knows the run outcome (`set_halted`).
        // Flush so even an unclosed recording is readable up to its
        // last record.
        if self.deferred.is_none() {
            if let Err(e) = self.out.flush() {
                self.deferred = Some(e.into());
            }
        }
    }
}

/// Pull-based reader over a recorded stream.
pub struct TraceReader<R: Read> {
    input: R,
    checksum: FxHasher64,
    count: u64,
    header: Header,
    /// Set once the trailer has been read and verified.
    halted: Option<bool>,
}

impl TraceReader<BufReader<File>> {
    /// Open a binary trace stream, checking magic, version, kind, and —
    /// when `expected_fingerprint` is given — the program fingerprint.
    /// A `.json` path is refused: JSON dumps are write-only.
    pub fn open(path: &Path, expected_fingerprint: Option<u64>) -> Result<Self> {
        reject_json(path)?;
        Self::new(BufReader::new(File::open(path)?), expected_fingerprint)
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap `input`, validating the header.
    pub fn new(mut input: R, expected_fingerprint: Option<u64>) -> Result<Self> {
        let header = Header::read_from(&mut input)?;
        header.expect(KIND_TRACE_STREAM, expected_fingerprint)?;
        Ok(Self {
            input,
            checksum: FxHasher64::new(),
            count: 0,
            header,
            halted: None,
        })
    }

    /// The validated header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// Whether the recorded run halted — known only after the trailer
    /// has been reached (i.e. [`TraceReader::next_record`] returned
    /// `Ok(None)`).
    pub fn halted(&self) -> Option<bool> {
        self.halted
    }

    /// Records read so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Next record, or `Ok(None)` at the (verified) end of the stream.
    pub fn next_record(&mut self) -> Result<Option<DynInstr>> {
        if self.halted.is_some() {
            return Ok(None);
        }
        match wire::read_frame(&mut self.input, &mut self.checksum) {
            Ok(Some(frame)) => {
                let mut slice = frame.as_slice();
                let d = wire::get_dyn_instr(&mut slice)?;
                if !slice.is_empty() {
                    return Err(PersistError::Corrupt(format!(
                        "{} stray bytes after record {}",
                        slice.len(),
                        self.count
                    )));
                }
                self.count += 1;
                Ok(Some(d))
            }
            Ok(None) => {
                let truncated = |e: PersistError| match e {
                    PersistError::Io(io) if io.kind() == std::io::ErrorKind::UnexpectedEof => {
                        PersistError::Corrupt("stream truncated inside the trailer".into())
                    }
                    other => other,
                };
                let count = wire::get_u64(&mut self.input).map_err(truncated)?;
                let checksum = wire::get_u64(&mut self.input).map_err(truncated)?;
                let halted = wire::get_u8(&mut self.input).map_err(truncated)?;
                if count != self.count {
                    return Err(PersistError::Corrupt(format!(
                        "trailer claims {count} records, stream held {}",
                        self.count
                    )));
                }
                if checksum != self.checksum.finish() {
                    return Err(PersistError::Corrupt(
                        "stream checksum mismatch (file is damaged)".into(),
                    ));
                }
                self.halted = Some(halted != 0);
                Ok(None)
            }
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                Err(PersistError::Corrupt(format!(
                    "stream truncated after {} records (no trailer; the recording \
                     process likely died before finish)",
                    self.count
                )))
            }
            Err(e) => Err(e),
        }
    }

    /// Read all remaining records into memory.
    pub fn read_to_end(&mut self) -> Result<Vec<DynInstr>> {
        let mut records = Vec::new();
        while let Some(d) = self.next_record()? {
            records.push(d);
        }
        Ok(records)
    }
}

/// An in-memory trace, as loaded by [`load_trace`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceFile {
    /// Program/ISA fingerprint the trace was recorded under.
    pub fingerprint: u64,
    /// The executed instructions, in order.
    pub records: Vec<DynInstr>,
    /// Whether the recorded run ended on `halt`.
    pub halted: bool,
}

/// JSON format tag of the trace stream debug dump.
pub const JSON_TRACE_FORMAT: &str = "tlr-trace-v1";

fn dyn_instr_to_json(d: &DynInstr) -> Json {
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
    let mut obj = BTreeMap::new();
    obj.insert("pc".into(), Json::Num(d.pc as u64));
    obj.insert("next_pc".into(), Json::Num(d.next_pc as u64));
    obj.insert(
        "class".into(),
        Json::Num(wire::opclass_code(d.class) as u64),
    );
    obj.insert("reads".into(), pairs(d.reads.as_slice()));
    obj.insert("writes".into(), pairs(d.writes.as_slice()));
    Json::Obj(obj)
}

/// Save a trace to `path`, choosing binary or the write-only JSON debug
/// dump by extension.
pub fn save_trace(path: &Path, fingerprint: u64, records: &[DynInstr], halted: bool) -> Result<()> {
    match FileFormat::detect(path) {
        FileFormat::Binary => {
            let mut writer = TraceWriter::create(path, fingerprint)?;
            for d in records {
                writer.append(d)?;
            }
            writer.set_halted(halted);
            writer.close()?;
            Ok(())
        }
        FileFormat::Json => {
            let mut obj = BTreeMap::new();
            obj.insert("format".into(), Json::Str(JSON_TRACE_FORMAT.into()));
            obj.insert("fingerprint".into(), Json::Num(fingerprint));
            obj.insert("halted".into(), Json::Bool(halted));
            obj.insert(
                "records".into(),
                Json::Arr(records.iter().map(dyn_instr_to_json).collect()),
            );
            std::fs::write(path, json::to_string_pretty(&Json::Obj(obj)))?;
            Ok(())
        }
    }
}

/// Load a binary trace from `path`, optionally pinning the expected
/// program fingerprint. A `.json` path is refused: JSON dumps are
/// write-only.
pub fn load_trace(path: &Path, expected_fingerprint: Option<u64>) -> Result<TraceFile> {
    let mut reader = TraceReader::open(path, expected_fingerprint)?;
    let records = reader.read_to_end()?;
    Ok(TraceFile {
        fingerprint: reader.header().fingerprint,
        records,
        halted: reader.halted().unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_isa::{Loc, OpClass};

    fn sample(pc: u32) -> DynInstr {
        DynInstr {
            pc,
            next_pc: pc + 1,
            class: OpClass::IntAlu,
            reads: [(Loc::IntReg(1), pc as u64), (Loc::Mem(100 + pc as u64), 7)]
                .into_iter()
                .collect(),
            writes: [(Loc::IntReg(2), pc as u64 * 3)].into_iter().collect(),
        }
    }

    #[test]
    fn in_memory_roundtrip_with_trailer() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, 42).unwrap();
        for pc in 0..50 {
            w.observe(&sample(pc));
        }
        w.set_halted(true);
        w.finish();
        assert_eq!(w.close().unwrap(), 50);

        let mut r = TraceReader::new(buf.as_slice(), Some(42)).unwrap();
        let records = r.read_to_end().unwrap();
        assert_eq!(records.len(), 50);
        assert_eq!(records[13], sample(13));
        assert_eq!(r.halted(), Some(true));
        // Reading past the end stays at the end.
        assert!(r.next_record().unwrap().is_none());
    }

    #[test]
    fn wrong_fingerprint_rejected() {
        let mut buf = Vec::new();
        let w = TraceWriter::new(&mut buf, 1).unwrap();
        w.close().unwrap();
        assert!(matches!(
            TraceReader::new(buf.as_slice(), Some(2)),
            Err(PersistError::FingerprintMismatch {
                found: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, 0).unwrap();
        for pc in 0..10 {
            w.observe(&sample(pc));
        }
        w.close().unwrap();
        // Chop the trailer (and a bit of the last record).
        buf.truncate(buf.len() - 30);
        let mut r = TraceReader::new(buf.as_slice(), None).unwrap();
        let err = loop {
            match r.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncated stream accepted"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, 0).unwrap();
        for pc in 0..10 {
            w.observe(&sample(pc));
        }
        w.close().unwrap();
        // Flip a value byte inside a record, keeping lengths intact.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let mut r = TraceReader::new(buf.as_slice(), None).unwrap();
        let mut saw_error = false;
        loop {
            match r.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        assert!(saw_error, "bit flip not detected");
    }

    /// The JSON debug dump is write-only, but it must stay a faithful,
    /// parseable picture of the trace; loading it is refused by name.
    #[test]
    fn json_file_roundtrip() {
        let dir = std::env::temp_dir().join("tlr-persist-test-json");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let records: Vec<DynInstr> = (0..5).map(sample).collect();
        save_trace(&path, 99, &records, false).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let field = |key| doc.field(key).unwrap();
        assert_eq!(field("format").as_str("format").unwrap(), JSON_TRACE_FORMAT);
        assert_eq!(field("fingerprint").as_u64("fingerprint").unwrap(), 99);
        assert_eq!(field("halted"), &Json::Bool(false));
        let dumped = field("records").as_arr("records").unwrap();
        assert_eq!(dumped.len(), records.len());
        assert_eq!(dumped[3].field("pc").unwrap().as_u64("pc").unwrap(), 3);
        assert!(matches!(
            load_trace(&path, Some(99)),
            Err(PersistError::JsonWriteOnly)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streaming_writer_refuses_json_path() {
        assert!(TraceWriter::create(Path::new("/tmp/x.json"), 0).is_err());
    }
}
