//! Zero-run frame compression for snapshot files
//! ([`crate::format::FLAG_COMPRESSED_FRAMES`]; every spill sets it).
//!
//! Snapshot frames are dominated by little-endian integers whose high
//! bytes are zero (PCs, counts, 64-bit values far below 2^64), so a
//! byte-level run-length codec already halves typical frames without
//! pulling in an external compressor. The stream is a sequence of
//! control bytes:
//!
//! | control | meaning |
//! |---|---|
//! | `0x00..=0x7f` | literal run: the next `control + 1` bytes verbatim |
//! | `0x80..=0xff` | zero run: `(control & 0x7f) + 1` zero bytes |
//!
//! Decoding is bounded by the declared raw length, so a hostile stream
//! cannot expand past the frame cap. The codec is self-contained and
//! lossless; [`decompress`] inverts [`compress`] for every input.

use crate::error::{PersistError, Result};

/// Longest run a single control byte can encode.
const MAX_RUN: usize = 0x80;

/// Control-byte tag bit marking a zero run.
const ZERO_TAG: u8 = 0x80;

/// Compress `raw` into the zero-run stream. Never fails; worst case
/// (no zero runs) the output is `raw.len() + ceil(raw.len()/128)`.
pub fn compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 2 + 8);
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == 0 {
            let mut run = 1;
            while i + run < raw.len() && raw[i + run] == 0 && run < MAX_RUN {
                run += 1;
            }
            // Lone zeros sandwiched between literals cost the same
            // either way; emitting them as zero runs keeps the encoder
            // a two-case loop.
            out.push(ZERO_TAG | (run - 1) as u8);
            i += run;
        } else {
            let mut run = 1;
            while i + run < raw.len() && raw[i + run] != 0 && run < MAX_RUN {
                run += 1;
            }
            out.push((run - 1) as u8);
            out.extend_from_slice(&raw[i..i + run]);
            i += run;
        }
    }
    out
}

/// Decompress a zero-run stream that must decode to exactly `raw_len`
/// bytes. Truncated streams, streams that overshoot `raw_len`, and
/// trailing garbage are all rejected as corrupt.
pub fn decompress(stream: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0;
    while i < stream.len() {
        let control = stream[i];
        i += 1;
        let run = (control & 0x7f) as usize + 1;
        if out.len() + run > raw_len {
            return Err(PersistError::Corrupt(format!(
                "compressed frame decodes past its declared length ({} > {raw_len})",
                out.len() + run
            )));
        }
        if control & ZERO_TAG != 0 {
            out.resize(out.len() + run, 0);
        } else {
            let end = i + run;
            if end > stream.len() {
                return Err(PersistError::Corrupt(format!(
                    "compressed frame truncated inside a literal run \
                     (need {run} bytes, {} left)",
                    stream.len() - i
                )));
            }
            out.extend_from_slice(&stream[i..end]);
            i = end;
        }
    }
    if out.len() != raw_len {
        return Err(PersistError::Corrupt(format!(
            "compressed frame decodes to {} bytes, declared {raw_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(raw: &[u8]) {
        let packed = compress(raw);
        assert_eq!(decompress(&packed, raw.len()).unwrap(), raw);
    }

    #[test]
    fn roundtrips_edge_shapes() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[1]);
        roundtrip(&[0; 1000]);
        roundtrip(&[7; 1000]);
        roundtrip(&[1, 0, 2, 0, 0, 3, 0, 0, 0, 4]);
        let mut mixed = Vec::new();
        for i in 0..4096u32 {
            mixed.extend_from_slice(&i.to_le_bytes()); // zero-heavy LE ints
        }
        roundtrip(&mixed);
    }

    #[test]
    fn zero_heavy_input_shrinks() {
        let mut raw = Vec::new();
        for i in 0..512u64 {
            raw.extend_from_slice(&i.to_le_bytes());
        }
        let packed = compress(&raw);
        assert!(
            packed.len() * 2 < raw.len(),
            "expected >=2x on LE integers: {} vs {}",
            packed.len(),
            raw.len()
        );
    }

    #[test]
    fn truncated_stream_rejected() {
        let packed = compress(&[1, 2, 3, 4, 5, 6, 7, 8]);
        for cut in 0..packed.len() {
            assert!(
                decompress(&packed[..cut], 8).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn overshoot_and_undershoot_rejected() {
        let packed = compress(&[0; 64]);
        assert!(decompress(&packed, 63).is_err());
        assert!(decompress(&packed, 65).is_err());
    }

    #[test]
    fn random_bytes_roundtrip() {
        // Deterministic xorshift so the test needs no RNG dependency.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut raw = Vec::with_capacity(4096);
        for _ in 0..4096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Bias towards zero bytes to exercise both run kinds.
            let b = (x & 0xff) as u8;
            raw.push(if b < 0x60 { 0 } else { b });
        }
        roundtrip(&raw);
    }
}
