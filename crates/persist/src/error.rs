//! Error type for persistence and replay.

use std::fmt;
use std::io;

/// Everything that can go wrong while persisting, loading, or replaying
/// trace state.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `TLRP` magic.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is not the one this build reads: it
    /// reads exactly [`crate::format::FORMAT_VERSION`], older and newer
    /// files alike are refused.
    UnsupportedVersion {
        /// Version stamped in the file header.
        found: u16,
        /// The one version this build writes and reads.
        supported: u16,
    },
    /// A loader was handed a `.json` path. JSON dumps are write-only
    /// debug output; load the binary file instead.
    JsonWriteOnly,
    /// The file holds a different payload kind than the caller asked for
    /// (e.g. opening an RTM snapshot as a trace stream).
    KindMismatch {
        /// Kind tag found in the header.
        found: u8,
        /// Kind tag the caller expected.
        expected: u8,
    },
    /// The file was produced from a different program / ISA / build
    /// configuration than the one it is being applied to.
    FingerprintMismatch {
        /// Fingerprint stamped in the file header.
        found: u64,
        /// Fingerprint of the present configuration.
        expected: u64,
    },
    /// Structurally invalid or truncated content.
    Corrupt(String),
    /// Several snapshots could not be merged (empty input set or
    /// disagreeing RTM geometries).
    Merge(tlr_core::MergeError),
    /// Replay diverged from the recorded execution.
    Divergence {
        /// Zero-based index of the diverging record.
        index: u64,
        /// What the recording says should have happened.
        expected: String,
        /// What the replayed execution actually did.
        actual: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic { found } => write!(
                f,
                "not a tlr-persist file: expected magic {:?}, found {:?}",
                super::format::MAGIC,
                found
            ),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads exactly version \
                 {supported}); re-record with a matching build"
            ),
            PersistError::JsonWriteOnly => write!(
                f,
                "JSON debug dumps are write-only; load the binary .{} / .{} file instead",
                super::format::SNAPSHOT_EXT,
                super::format::TRACE_EXT
            ),
            PersistError::KindMismatch { found, expected } => write!(
                f,
                "wrong payload kind: found {} but expected {}",
                super::format::kind_name(*found),
                super::format::kind_name(*expected)
            ),
            PersistError::FingerprintMismatch { found, expected } => write!(
                f,
                "configuration fingerprint mismatch: file was produced under {found:#018x} \
                 but the current program/ISA fingerprints as {expected:#018x}; the recorded \
                 state is not valid for this program"
            ),
            PersistError::Corrupt(what) => write!(f, "corrupt file: {what}"),
            PersistError::Merge(e) => write!(f, "cannot merge snapshots: {e}"),
            PersistError::Divergence {
                index,
                expected,
                actual,
            } => write!(
                f,
                "replay diverged at record {index}: recorded {expected}, executed {actual}"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Merge(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<tlr_core::MergeError> for PersistError {
    fn from(e: tlr_core::MergeError) -> Self {
        PersistError::Merge(e)
    }
}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, PersistError>;
