//! File header and format detection.
//!
//! Binary layout (all integers little-endian):
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 4 | magic `"TLRP"` |
//! | 4 | 2 | format version (exactly 6) |
//! | 6 | 1 | payload kind (1 = trace stream, 2 = RTM snapshot) |
//! | 7 | 1 | flags ([`KNOWN_FLAGS`]) |
//! | 8 | 8 | program/ISA fingerprint |
//!
//! The write-only JSON debug dumps carry the same information in a
//! `"format"` tag (`"tlr-trace-v1"` / `"tlr-rtm-v1"`) and a
//! `"fingerprint"` field; no loader reads them back.

use crate::error::{PersistError, Result};
use crate::wire;
use std::io::{Read, Write};
use std::path::Path;

/// File magic for the binary formats.
pub const MAGIC: [u8; 4] = *b"TLRP";

/// The format version this build writes, and the only one it reads.
///
/// History: v1 checksummed trace frames only; v2 extended the snapshot
/// checksum to cover the geometry prelude; v3 appended per-trace
/// provenance ([`tlr_core::TraceMeta`]) to every snapshot frame; v4
/// appended each trace's per-class instruction mix
/// ([`tlr_isa::ClassMix`]); v5 turned the reserved header byte into a
/// flags field ([`FLAG_COMPRESSED_FRAMES`], [`FLAG_DELTA_SEGMENT`]); v6
/// appended the producing program's *shape fingerprint*
/// ([`wire::program_shape_fingerprint`]) to the full snapshot prelude.
/// Files of any other version are rejected by name
/// ([`PersistError::UnsupportedVersion`]).
pub const FORMAT_VERSION: u16 = 6;

/// Header flag: trace frames are run-length compressed. Each
/// frame payload is `u32` raw length followed by the codec stream of
/// [`crate::compress`]; the frame checksum covers the on-disk bytes.
pub const FLAG_COMPRESSED_FRAMES: u8 = 0x01;

/// Header flag: the file is an append-only *delta segment*, not
/// a full snapshot. Its prelude carries a sequence number and a
/// tombstone list, and its frames replace whole PC groups of a base
/// snapshot (see `docs/ARCHITECTURE.md`, "Snapshot file format").
pub const FLAG_DELTA_SEGMENT: u8 = 0x02;

/// Every flag bit this build understands. Headers with unknown bits
/// set are rejected as corrupt rather than misparsed.
pub const KNOWN_FLAGS: u8 = FLAG_COMPRESSED_FRAMES | FLAG_DELTA_SEGMENT;

/// Payload kind: a stream of executed [`tlr_isa::DynInstr`] records.
pub const KIND_TRACE_STREAM: u8 = 1;

/// Payload kind: a full [`tlr_core::RtmSnapshot`].
pub const KIND_RTM_SNAPSHOT: u8 = 2;

/// Human-readable name of a payload kind tag.
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_TRACE_STREAM => "trace stream",
        KIND_RTM_SNAPSHOT => "RTM snapshot",
        _ => "unknown",
    }
}

/// Conventional extension for binary trace streams.
pub const TRACE_EXT: &str = "tlrtrace";

/// Conventional extension for binary RTM snapshots.
pub const SNAPSHOT_EXT: &str = "tlrsnap";

/// On-disk encoding, chosen by file extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileFormat {
    /// Length-prefixed binary with the `TLRP` header (the default).
    Binary,
    /// Pretty-printed JSON for debugging and diffing (write-only).
    Json,
}

impl FileFormat {
    /// `.json` selects [`FileFormat::Json`]; everything else (including
    /// the conventional `.tlrtrace` / `.tlrsnap`) is binary.
    pub fn detect(path: &Path) -> FileFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some(ext) if ext.eq_ignore_ascii_case("json") => FileFormat::Json,
            _ => FileFormat::Binary,
        }
    }
}

/// Refuse a `.json` path at a load entry point: JSON dumps are
/// write-only ([`PersistError::JsonWriteOnly`]).
pub(crate) fn reject_json(path: &Path) -> Result<()> {
    match FileFormat::detect(path) {
        FileFormat::Binary => Ok(()),
        FileFormat::Json => Err(PersistError::JsonWriteOnly),
    }
}

/// The checked binary header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Format version (see [`FORMAT_VERSION`]).
    pub version: u16,
    /// Payload kind tag.
    pub kind: u8,
    /// Encoding flags (see [`KNOWN_FLAGS`]).
    pub flags: u8,
    /// Program/ISA fingerprint (see [`wire::program_fingerprint`]).
    pub fingerprint: u64,
}

impl Header {
    /// Header for a fresh file of `kind` bound to `fingerprint`.
    pub fn new(kind: u8, fingerprint: u64) -> Self {
        Self::with_flags(kind, fingerprint, 0)
    }

    /// Header for a fresh file with explicit encoding `flags`.
    pub fn with_flags(kind: u8, fingerprint: u64, flags: u8) -> Self {
        debug_assert_eq!(flags & !KNOWN_FLAGS, 0, "unknown header flags");
        Self {
            version: FORMAT_VERSION,
            kind,
            flags,
            fingerprint,
        }
    }

    /// Serialize (16 bytes).
    pub fn write_to(&self, w: &mut impl Write) -> Result<()> {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&MAGIC);
        wire::put_u16(&mut buf, self.version);
        wire::put_u8(&mut buf, self.kind);
        wire::put_u8(&mut buf, self.flags);
        wire::put_u64(&mut buf, self.fingerprint);
        w.write_all(&buf)?;
        Ok(())
    }

    /// Parse and validate a header: magic, version (exactly
    /// [`FORMAT_VERSION`]) and flags are checked here;
    /// kind and fingerprint are checked against the caller's expectation
    /// with [`Header::expect`].
    pub fn read_from(r: &mut impl Read) -> Result<Header> {
        let magic: [u8; 4] = wire::read_exact(r)?;
        if magic != MAGIC {
            return Err(PersistError::BadMagic { found: magic });
        }
        let version = wire::get_u16(r)?;
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let kind = wire::get_u8(r)?;
        let flags = wire::get_u8(r)?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(PersistError::Corrupt(format!(
                "unknown header flags {:#04x} (known mask {:#04x})",
                flags, KNOWN_FLAGS
            )));
        }
        let fingerprint = wire::get_u64(r)?;
        Ok(Header {
            version,
            kind,
            flags,
            fingerprint,
        })
    }

    /// Reject a header whose kind or fingerprint does not match what the
    /// caller is about to do with the payload. Pass `expected_fingerprint
    /// = None` to skip the fingerprint check (inspection tools).
    pub fn expect(&self, kind: u8, expected_fingerprint: Option<u64>) -> Result<()> {
        if self.kind != kind {
            return Err(PersistError::KindMismatch {
                found: self.kind,
                expected: kind,
            });
        }
        if let Some(expected) = expected_fingerprint {
            if self.fingerprint != expected {
                return Err(PersistError::FingerprintMismatch {
                    found: self.fingerprint,
                    expected,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let h = Header::new(KIND_TRACE_STREAM, 0xfeed_f00d);
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 16);
        assert_eq!(Header::read_from(&mut buf.as_slice()).unwrap(), h);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        Header::new(KIND_TRACE_STREAM, 1)
            .write_to(&mut buf)
            .unwrap();
        buf[0] = b'X';
        match Header::read_from(&mut buf.as_slice()) {
            Err(PersistError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn future_version_rejected() {
        let mut buf = Vec::new();
        Header::new(KIND_RTM_SNAPSHOT, 1)
            .write_to(&mut buf)
            .unwrap();
        buf[4] = 0xff; // version LE low byte
        match Header::read_from(&mut buf.as_slice()) {
            Err(PersistError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, 0xff);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn flags_roundtrip_on_v5() {
        let h = Header::with_flags(
            KIND_RTM_SNAPSHOT,
            9,
            FLAG_COMPRESSED_FRAMES | FLAG_DELTA_SEGMENT,
        );
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        assert_eq!(Header::read_from(&mut buf.as_slice()).unwrap(), h);
    }

    #[test]
    fn unknown_flags_rejected() {
        let mut buf = Vec::new();
        Header::new(KIND_RTM_SNAPSHOT, 9)
            .write_to(&mut buf)
            .unwrap();
        buf[7] = 0x80; // a flag bit this build does not know
        match Header::read_from(&mut buf.as_slice()) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("unknown header flags")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn kind_and_fingerprint_checked() {
        let h = Header::new(KIND_TRACE_STREAM, 7);
        assert!(h.expect(KIND_TRACE_STREAM, Some(7)).is_ok());
        assert!(matches!(
            h.expect(KIND_RTM_SNAPSHOT, Some(7)),
            Err(PersistError::KindMismatch { .. })
        ));
        assert!(matches!(
            h.expect(KIND_TRACE_STREAM, Some(8)),
            Err(PersistError::FingerprintMismatch { .. })
        ));
        assert!(h.expect(KIND_TRACE_STREAM, None).is_ok());
    }

    /// The normative format section of `docs/ARCHITECTURE.md` must
    /// stay in sync with the code: the one version read, every flag bit,
    /// the known mask, and the base/delta file-naming scheme are
    /// checked against the document verbatim.
    #[test]
    fn format_doc_matches_wire_constants() {
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/ARCHITECTURE.md");
        let doc = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let expect = [
            format!("current format version is **{FORMAT_VERSION}**"),
            format!("reads exactly version **{FORMAT_VERSION}**"),
            format!("| `{FLAG_COMPRESSED_FRAMES:#04x}` | `FLAG_COMPRESSED_FRAMES`"),
            format!("| `{FLAG_DELTA_SEGMENT:#04x}` | `FLAG_DELTA_SEGMENT`"),
            format!("known mask is `{KNOWN_FLAGS:#04x}`"),
            format!("-base.{SNAPSHOT_EXT}"),
            format!("-delta-NNNNNN.{SNAPSHOT_EXT}"),
        ];
        for needle in expect {
            assert!(
                doc.contains(&needle),
                "docs/ARCHITECTURE.md is out of sync with the format constants: \
                 missing {needle:?}"
            );
        }
    }

    #[test]
    fn format_detection_by_extension() {
        assert_eq!(
            FileFormat::detect(Path::new("a.tlrtrace")),
            FileFormat::Binary
        );
        assert_eq!(
            FileFormat::detect(Path::new("a.tlrsnap")),
            FileFormat::Binary
        );
        assert_eq!(FileFormat::detect(Path::new("a.json")), FileFormat::Json);
        assert_eq!(FileFormat::detect(Path::new("a.JSON")), FileFormat::Json);
        assert_eq!(FileFormat::detect(Path::new("noext")), FileFormat::Binary);
    }
}
