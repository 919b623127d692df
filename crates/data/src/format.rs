//! Shared binary-format primitives for the workspace's persistence formats.
//!
//! Every on-disk artifact this workspace writes — model blobs
//! (`slimfast-core::model`), dataset snapshots ([`crate::snapshot`]), and the serving
//! bundle built on top of them — is hand-rolled and dependency-free, and they all
//! speak the same low-level vocabulary defined here:
//!
//! * **FNV-1a 64 checksums** ([`fnv1a`], [`append_checksum`], [`split_checksum`]):
//!   every top-level artifact ends in a little-endian FNV-1a 64 hash of all preceding
//!   bytes, verified before any payload is parsed.
//! * **LEB128 varints** ([`write_varint`], [`Cursor::read_varint`]): counts and
//!   lengths are written as unsigned LEB128, so small values (the common case for
//!   entity counts and string lengths) cost one byte.
//! * **Planar little-endian columns** ([`write_u32_column`], [`write_f64_column`]):
//!   fixed-width values are written as one contiguous stream per column and decoded
//!   with chunked `from_le_bytes` — one read per column, no per-element framing.
//! * **Delta-encoded offset arrays** ([`write_offsets`], [`Cursor::read_offsets`]):
//!   monotone CSR offset arrays are stored as varint-encoded deltas of consecutive
//!   entries, which collapses uniform row sizes to one byte per row.
//! * **Optional per-block compression** ([`write_block`], [`Cursor::read_block`]):
//!   each column is wrapped in a tagged block that is either the raw payload or a
//!   byte-level run-length encoding — whichever is smaller. Sparse columns (zero
//!   weights, small deltas) shrink substantially; incompressible columns pay two
//!   bytes of framing.
//!
//! The [`Cursor`] reader is fully bounds-checked: every parse failure — truncation,
//! overlong varints, length mismatches, unknown block tags — surfaces as a typed
//! [`DataError::CorruptModel`], never a panic, so untrusted bytes can be fed to any
//! reader built on these primitives.

use crate::error::DataError;

/// FNV-1a 64-bit hash, the integrity checksum of every serialized artifact.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Builds the [`DataError::CorruptModel`] every reader in this module fails with.
pub fn corrupt(message: impl Into<String>) -> DataError {
    DataError::CorruptModel {
        message: message.into(),
    }
}

/// Appends the FNV-1a 64 checksum of everything currently in `bytes` (little-endian).
pub fn append_checksum(bytes: &mut Vec<u8>) {
    let hash = fnv1a(bytes);
    bytes.extend_from_slice(&hash.to_le_bytes());
}

/// Verifies the trailing [`append_checksum`] of a blob and returns the payload in
/// front of it. Fails with [`DataError::CorruptModel`] on truncation or mismatch.
pub fn split_checksum(bytes: &[u8]) -> Result<&[u8], DataError> {
    if bytes.len() < 8 {
        return Err(corrupt("blob shorter than its checksum"));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte slice"));
    if fnv1a(payload) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// Appends `value` as an unsigned LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Longest run one RLE pair may encode; longer runs are split at encode time so a
/// decoded pair can never demand an unbounded allocation from a few input bytes.
const RLE_MAX_RUN: usize = 1 << 16;

/// Byte-level run-length encoding: `(run_length varint, byte)` pairs.
fn rle_encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < payload.len() {
        let byte = payload[i];
        let mut run = 1;
        while run < RLE_MAX_RUN && i + run < payload.len() && payload[i + run] == byte {
            run += 1;
        }
        write_varint(&mut out, run as u64);
        out.push(byte);
        i += run;
    }
    out
}

/// Block tag: the payload follows raw.
const BLOCK_RAW: u8 = 0;
/// Block tag: the payload follows run-length encoded (see [`rle_encode`]).
const BLOCK_RLE: u8 = 1;

/// Appends `payload` as a tagged block: `tag (1) | raw_len varint | body`, where the
/// body is the raw payload or its byte-level run-length encoding — whichever is
/// smaller. [`Cursor::read_block`] reverses either choice transparently.
pub fn write_block(out: &mut Vec<u8>, payload: &[u8]) {
    let rle = rle_encode(payload);
    if rle.len() < payload.len() {
        out.push(BLOCK_RLE);
        write_varint(out, payload.len() as u64);
        out.extend_from_slice(&rle);
    } else {
        out.push(BLOCK_RAW);
        write_varint(out, payload.len() as u64);
        out.extend_from_slice(payload);
    }
}

/// Appends a `u32` column as a block of little-endian 4-byte values.
pub fn write_u32_column(out: &mut Vec<u8>, values: &[u32]) {
    let mut payload = Vec::with_capacity(values.len() * 4);
    for v in values {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    write_block(out, &payload);
}

/// Appends an `f64` column as a block of little-endian 8-byte values (bit-exact).
pub fn write_f64_column(out: &mut Vec<u8>, values: &[f64]) {
    let mut payload = Vec::with_capacity(values.len() * 8);
    for v in values {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    write_block(out, &payload);
}

/// Appends a monotone CSR offset array (first entry must be `0`) as a block of
/// varint-encoded deltas of consecutive entries.
pub fn write_offsets(out: &mut Vec<u8>, offsets: &[u32]) {
    assert!(
        offsets.first().map_or(true, |&o| o == 0),
        "offset arrays start at 0"
    );
    let mut payload = Vec::with_capacity(offsets.len().saturating_sub(1));
    for pair in offsets.windows(2) {
        debug_assert!(pair[0] <= pair[1], "offsets must be monotone");
        write_varint(&mut payload, u64::from(pair[1] - pair[0]));
    }
    write_block(out, &payload);
}

/// Appends a string as `len varint | UTF-8 bytes`.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over a byte slice. Every method fails with a typed
/// [`DataError::CorruptModel`] instead of panicking, whatever the input.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a byte slice, positioned at its start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads exactly `n` bytes.
    pub fn read_exact(&mut self, n: usize) -> Result<&'a [u8], DataError> {
        if n > self.remaining() {
            return Err(corrupt("truncated: fewer bytes than declared"));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, DataError> {
        Ok(self.read_exact(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, DataError> {
        Ok(u32::from_le_bytes(
            self.read_exact(4)?.try_into().expect("4-byte slice"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, DataError> {
        Ok(u64::from_le_bytes(
            self.read_exact(8)?.try_into().expect("8-byte slice"),
        ))
    }

    /// Reads an unsigned LEB128 varint (see [`write_varint`]).
    pub fn read_varint(&mut self) -> Result<u64, DataError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.read_u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(corrupt("varint overflows u64"));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(corrupt("varint longer than 10 bytes"))
    }

    /// Reads a varint-encoded length and validates it fits `usize` and `max`.
    pub fn read_len(&mut self, max: usize) -> Result<usize, DataError> {
        let raw = self.read_varint()?;
        let len = usize::try_from(raw).map_err(|_| corrupt("declared length overflows"))?;
        if len > max {
            return Err(corrupt("declared length exceeds its bound"));
        }
        Ok(len)
    }

    /// Reads one [`write_block`] block and returns the decoded payload.
    pub fn read_block(&mut self) -> Result<Vec<u8>, DataError> {
        let tag = self.read_u8()?;
        let raw_len = self.read_len(usize::MAX)?;
        match tag {
            BLOCK_RAW => Ok(self.read_exact(raw_len)?.to_vec()),
            BLOCK_RLE => {
                let mut out = Vec::new();
                while out.len() < raw_len {
                    let run = self.read_len(raw_len - out.len())?;
                    if run == 0 || run > RLE_MAX_RUN {
                        return Err(corrupt("invalid RLE run length"));
                    }
                    let byte = self.read_u8()?;
                    out.resize(out.len() + run, byte);
                }
                Ok(out)
            }
            _ => Err(corrupt("unknown block tag")),
        }
    }

    /// Reads a [`write_u32_column`] block of exactly `len` values.
    pub fn read_u32_column(&mut self, len: usize) -> Result<Vec<u32>, DataError> {
        let payload = self.read_block()?;
        if payload.len()
            != len
                .checked_mul(4)
                .ok_or_else(|| corrupt("column overflows"))?
        {
            return Err(corrupt("u32 column length mismatch"));
        }
        Ok(payload
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Reads a [`write_f64_column`] block of exactly `len` values (bit-exact).
    pub fn read_f64_column(&mut self, len: usize) -> Result<Vec<f64>, DataError> {
        let payload = self.read_block()?;
        if payload.len()
            != len
                .checked_mul(8)
                .ok_or_else(|| corrupt("column overflows"))?
        {
            return Err(corrupt("f64 column length mismatch"));
        }
        Ok(payload
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Reads a [`write_offsets`] block back into a `rows + 1`-entry offset array
    /// starting at `0` and ending at exactly `total`.
    pub fn read_offsets(&mut self, rows: usize, total: u32) -> Result<Vec<u32>, DataError> {
        let payload = self.read_block()?;
        let mut deltas = Cursor::new(&payload);
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0u32);
        let mut acc: u32 = 0;
        for _ in 0..rows {
            let delta = deltas.read_varint()?;
            let delta = u32::try_from(delta)
                .ok()
                .and_then(|d| acc.checked_add(d))
                .ok_or_else(|| corrupt("offset array overflows u32"))?;
            acc = delta;
            offsets.push(acc);
        }
        if !deltas.is_empty() {
            return Err(corrupt("offset array has trailing bytes"));
        }
        if acc != total {
            return Err(corrupt("offset array does not cover its column"));
        }
        Ok(offsets)
    }

    /// Reads one [`write_str`] string, validating UTF-8. The string borrows the input.
    pub fn read_str(&mut self) -> Result<&'a str, DataError> {
        let len = self.read_len(self.remaining())?;
        std::str::from_utf8(self.read_exact(len)?).map_err(|_| corrupt("string is not valid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &cases {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut cursor = Cursor::new(&out);
            assert_eq!(cursor.read_varint().unwrap(), v);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn overlong_and_truncated_varints_error() {
        // 11 continuation bytes never terminate within a u64.
        let overlong = vec![0xffu8; 11];
        assert!(Cursor::new(&overlong).read_varint().is_err());
        // A 10th byte carrying more than one bit overflows u64.
        let mut too_big = vec![0xffu8; 9];
        too_big.push(0x02);
        assert!(Cursor::new(&too_big).read_varint().is_err());
        assert!(Cursor::new(&[0x80]).read_varint().is_err());
    }

    #[test]
    fn blocks_pick_the_smaller_encoding_and_round_trip() {
        // Highly repetitive payload: RLE wins.
        let zeros = vec![0u8; 4096];
        let mut out = Vec::new();
        write_block(&mut out, &zeros);
        assert!(out.len() < 32, "repetitive payload should RLE-compress");
        assert_eq!(Cursor::new(&out).read_block().unwrap(), zeros);

        // Incompressible payload: raw with 2–4 bytes of framing.
        let noise: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut out = Vec::new();
        write_block(&mut out, &noise);
        assert!(out.len() <= noise.len() + 4);
        assert_eq!(Cursor::new(&out).read_block().unwrap(), noise);

        // Empty payload.
        let mut out = Vec::new();
        write_block(&mut out, &[]);
        assert_eq!(Cursor::new(&out).read_block().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn long_runs_split_and_round_trip() {
        let long = vec![7u8; RLE_MAX_RUN * 2 + 17];
        let mut out = Vec::new();
        write_block(&mut out, &long);
        assert_eq!(Cursor::new(&out).read_block().unwrap(), long);
    }

    #[test]
    fn columns_round_trip_bit_exact() {
        let u32s: Vec<u32> = (0..1000).map(|i| i * 31 % 97).collect();
        let mut out = Vec::new();
        write_u32_column(&mut out, &u32s);
        assert_eq!(Cursor::new(&out).read_u32_column(u32s.len()).unwrap(), u32s);

        let f64s = vec![0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::MAX, -1e-300];
        let mut out = Vec::new();
        write_f64_column(&mut out, &f64s);
        let back = Cursor::new(&out).read_f64_column(f64s.len()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&f64s));
    }

    #[test]
    fn offsets_round_trip_and_validate_totals() {
        let offsets = vec![0u32, 3, 3, 10, 10, 10, 42];
        let mut out = Vec::new();
        write_offsets(&mut out, &offsets);
        assert_eq!(
            Cursor::new(&out)
                .read_offsets(offsets.len() - 1, 42)
                .unwrap(),
            offsets
        );
        // Wrong declared total is rejected.
        assert!(Cursor::new(&out)
            .read_offsets(offsets.len() - 1, 41)
            .is_err());
        // Wrong row count is rejected.
        assert!(Cursor::new(&out).read_offsets(offsets.len(), 42).is_err());
    }

    #[test]
    fn strings_round_trip_and_reject_bad_utf8() {
        let mut out = Vec::new();
        write_str(&mut out, "pubmed-18358451");
        write_str(&mut out, "");
        write_str(&mut out, "naïve-søurce");
        let mut cursor = Cursor::new(&out);
        assert_eq!(cursor.read_str().unwrap(), "pubmed-18358451");
        assert_eq!(cursor.read_str().unwrap(), "");
        assert_eq!(cursor.read_str().unwrap(), "naïve-søurce");
        assert!(cursor.is_empty());

        let mut bad = Vec::new();
        write_varint(&mut bad, 2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(Cursor::new(&bad).read_str().is_err());
    }

    #[test]
    fn checksums_detect_any_single_bit_flip() {
        let mut blob = b"some payload worth protecting".to_vec();
        append_checksum(&mut blob);
        assert_eq!(
            split_checksum(&blob).unwrap(),
            b"some payload worth protecting"
        );
        for byte in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[byte] ^= 1 << bit;
                assert!(split_checksum(&bad).is_err(), "flip at {byte}:{bit}");
            }
        }
        assert!(split_checksum(&blob[..7]).is_err());
    }

    #[test]
    fn truncated_blocks_error_at_every_length() {
        let mut out = Vec::new();
        write_u32_column(&mut out, &(0..257u32).collect::<Vec<_>>());
        for len in 0..out.len() {
            assert!(Cursor::new(&out[..len]).read_block().is_err(), "len {len}");
        }
    }
}
