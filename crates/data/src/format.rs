//! Shared binary-format primitives for the workspace's persistence formats.
//!
//! Every on-disk artifact this workspace writes — model blobs
//! (`slimfast-core::model`), dataset snapshots ([`crate::snapshot`]), and the serving
//! bundle built on top of them — is hand-rolled and dependency-free, and they all
//! speak the same low-level vocabulary defined here:
//!
//! * **FNV-1a 64 checksums** ([`fnv1a`], [`append_checksum`], [`split_checksum`]):
//!   every top-level artifact ends in a little-endian FNV-1a 64 hash of all preceding
//!   bytes, and the checksum decides a read before any parsed value is returned. The
//!   standalone readers verify it before they parse. A blob that nests another
//!   checksummed container ([`seal_nested`], [`split_nested_checksums`]) keeps both
//!   trailers but hashes each byte once: FNV-1a is one multiply per byte, bound by
//!   the multiply's latency, so a second independent chain in the same loop costs
//!   next to nothing. Its reader may run that check on a second lane beside the
//!   parse, and then drops whatever the parse produced when either trailer disagrees.
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
//!   byte-level run-length encoding, whichever is strictly smaller (raw on a tie).
//!   The writer settles the choice by counting runs, never by building a trial
//!   encoding, and writes the chosen form straight into the output. Sparse columns
//!   (zero weights, small deltas) shrink substantially; incompressible columns pay
//!   two bytes of framing.
//!
//! The [`Cursor`] reader is fully bounds-checked: every parse failure — truncation,
//! overlong varints, length mismatches, unknown block tags — surfaces as a typed
//! [`DataError::CorruptModel`], never a panic, so untrusted bytes can be fed to any
//! reader built on these primitives. No reader reserves memory for a length it read
//! from the input before checking that length against the bytes that back it.

use std::borrow::Cow;
use std::ops::Range;

use crate::error::DataError;

/// A running FNV-1a 64 hash: one xor and one multiply per byte.
#[derive(Debug, Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Advances `self` and `other` over the same bytes in one loop. Each chain waits on
    /// its own multiply, so the two run side by side for about the price of one.
    fn update_pair(&mut self, other: &mut Self, bytes: &[u8]) {
        let (mut a, mut b) = (self.0, other.0);
        for &byte in bytes {
            a = (a ^ u64::from(byte)).wrapping_mul(Self::PRIME);
            b = (b ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
        (self.0, other.0) = (a, b);
    }
}

/// FNV-1a 64-bit hash, the integrity checksum of every serialized artifact.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(bytes);
    hash.0
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

/// Splits a blob into the payload in front of its 8-byte trailer and the stored
/// trailer value, without verifying anything.
fn split_trailer(bytes: &[u8]) -> Result<(&[u8], u64), DataError> {
    if bytes.len() < 8 {
        return Err(corrupt("blob shorter than its checksum"));
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 8);
    Ok((
        payload,
        u64::from_le_bytes(trailer.try_into().expect("8-byte slice")),
    ))
}

/// Verifies the trailing [`append_checksum`] of a blob and returns the payload in
/// front of it. Fails with [`DataError::CorruptModel`] on truncation or mismatch.
pub fn split_checksum(bytes: &[u8]) -> Result<&[u8], DataError> {
    let (payload, stored) = split_trailer(bytes)?;
    if fnv1a(payload) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(payload)
}

/// Hashes `payload` up to the trailer of the container nested at `nested` (which must
/// fit, trailer included) in one pass: returns the nested container's payload hash
/// and the outer chain, which has yet to cover that trailer and everything after it.
fn hash_to_nested_trailer(payload: &[u8], nested: &Range<usize>) -> (u64, Fnv1a) {
    let trailer = nested.end - 8;
    let mut outer = Fnv1a::new();
    outer.update(&payload[..nested.start]);
    let mut inner = Fnv1a::new();
    inner.update_pair(&mut outer, &payload[nested.start..trailer]);
    (inner.0, outer)
}

/// Seals a blob that nests another checksummed container: `bytes[nested]` is that
/// container, its last 8 bytes a placeholder for its own trailer. Writes the nested
/// trailer, then appends the blob's checksum over everything in front of it.
///
/// The bytes equal sealing the nested container with [`append_checksum`] and then the
/// blob, but each byte is hashed in one pass: over the nested payload, the nested and
/// the outer chains advance together.
///
/// # Panics
///
/// If `nested` is not a range of at least 8 bytes inside `bytes` (a bug in the caller).
pub fn seal_nested(bytes: &mut Vec<u8>, nested: Range<usize>) {
    assert!(
        nested.start + 8 <= nested.end && nested.end <= bytes.len(),
        "nested container out of bounds"
    );
    let (inner, mut outer) = hash_to_nested_trailer(bytes, &nested);
    let trailer = nested.end - 8;
    bytes[trailer..nested.end].copy_from_slice(&inner.to_le_bytes());
    outer.update(&bytes[trailer..]);
    bytes.extend_from_slice(&outer.0.to_le_bytes());
}

/// Reader side of [`seal_nested`]: verifies a blob's trailing checksum and the trailer
/// of the container nested at `nested` (a range of the payload, trailer included),
/// hashing each payload byte once. Returns the payload in front of the blob's trailer.
///
/// Fails with a "checksum mismatch" [`DataError::CorruptModel`] when either trailer
/// disagrees, and with a [`DataError::CorruptModel`] when `nested` does not fit.
pub fn split_nested_checksums(bytes: &[u8], nested: Range<usize>) -> Result<&[u8], DataError> {
    let (payload, stored) = split_trailer(bytes)?;
    if nested.start.saturating_add(8) > nested.end || nested.end > payload.len() {
        return Err(corrupt(
            "nested container does not fit its enclosing payload",
        ));
    }
    let (inner, mut outer) = hash_to_nested_trailer(payload, &nested);
    outer.update(&payload[nested.end - 8..]);
    if outer.0 != stored {
        return Err(corrupt("checksum mismatch"));
    }
    let (_, nested_stored) = split_trailer(&payload[nested])?;
    if inner != nested_stored {
        return Err(corrupt("nested container checksum mismatch"));
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

/// Block tag: the payload follows raw.
const BLOCK_RAW: u8 = 0;
/// Block tag: the payload follows as byte-level run-length encoding: `(run_length
/// varint, byte)` pairs, each run at most [`RLE_MAX_RUN`] long.
const BLOCK_RLE: u8 = 1;

/// Hands a block payload to the visitor it is given, in consecutive chunks, so a
/// column can be counted and written without first being copied into one buffer.
type Chunks<'p> = dyn Fn(&mut dyn FnMut(&[u8])) + 'p;

/// Appends `payload` as a tagged block: `tag (1) | raw_len varint | body`, where the
/// body is the raw payload or its byte-level run-length encoding, whichever is
/// strictly smaller; a tie stays raw. [`Cursor::read_block`] reverses either choice.
///
/// The choice is made by counting, with no trial encoding. One branch-free pass
/// counts the payload's runs of equal bytes: an RLE pair takes two bytes or more, so
/// a payload with at least half as many runs as bytes stays raw on that count alone.
/// Only a payload with fewer runs has its runs walked, and the walk writes the RLE
/// body straight into `out`. The body stays if it ends strictly shorter than the
/// payload; otherwise the walk stops writing once it reaches the raw length, and the
/// raw payload replaces it.
pub fn write_block(out: &mut Vec<u8>, payload: &[u8]) {
    write_chunked_block(out, payload.len(), &|visit| visit(payload));
}

/// Appends a `u32` column as a block of little-endian 4-byte values, streamed
/// through a stack buffer (no payload copy of the column).
pub fn write_u32_column(out: &mut Vec<u8>, values: &[u32]) {
    write_u32_values(out, || values.iter().copied());
}

/// [`write_u32_column`] over a column that `values` yields afresh on each call, such
/// as one field of a slice of pairs; the writer reads it two or three times.
pub(crate) fn write_u32_values<I: ExactSizeIterator<Item = u32>>(
    out: &mut Vec<u8>,
    values: impl Fn() -> I,
) {
    write_chunked_block(out, values().len() * 4, &|visit| {
        le_chunks(values(), u32::to_le_bytes, visit)
    });
}

/// Appends an `f64` column as a block of little-endian 8-byte values (bit-exact),
/// streamed like [`write_u32_column`].
pub fn write_f64_column(out: &mut Vec<u8>, values: &[f64]) {
    write_chunked_block(out, values.len() * 8, &|visit| {
        le_chunks(values.iter().copied(), f64::to_le_bytes, visit)
    });
}

/// Hands the little-endian bytes of `values` to `visit`, a stack buffer at a time.
fn le_chunks<T, const W: usize>(
    mut values: impl Iterator<Item = T>,
    le_bytes: impl Fn(T) -> [u8; W],
    visit: &mut dyn FnMut(&[u8]),
) {
    let mut buf = [0u8; 4096];
    loop {
        let mut filled = 0;
        for (dst, value) in buf.chunks_exact_mut(W).zip(&mut values) {
            dst.copy_from_slice(&le_bytes(value));
            filled += W;
        }
        if filled == 0 {
            return;
        }
        visit(&buf[..filled]);
    }
}

/// [`write_block`] over a `len`-byte payload that `chunks` hands out.
fn write_chunked_block(out: &mut Vec<u8>, len: usize, chunks: &Chunks<'_>) {
    let start = out.len();
    if 2 * count_runs(chunks) < len {
        out.push(BLOCK_RLE);
        write_varint(out, len as u64);
        let body = out.len();
        for_each_run(chunks, |byte, mut run| {
            // Once the encoding is as long as the raw payload it has lost: stop writing.
            while run > 0 && out.len() - body < len {
                let pair = run.min(RLE_MAX_RUN);
                write_varint(out, pair as u64);
                out.push(byte);
                run -= pair;
            }
        });
        if out.len() - body < len {
            return;
        }
        out.truncate(start);
    }
    out.push(BLOCK_RAW);
    write_varint(out, len as u64);
    out.reserve(len);
    chunks(&mut |chunk| out.extend_from_slice(chunk));
}

/// Number of maximal runs of equal bytes in the payload, counted without branching
/// on the data.
fn count_runs(chunks: &Chunks<'_>) -> usize {
    let mut runs = 0;
    let mut last: Option<u8> = None;
    chunks(&mut |chunk| {
        let Some(&first) = chunk.first() else { return };
        runs += usize::from(last != Some(first));
        runs += chunk
            .iter()
            .zip(&chunk[1..])
            .map(|(a, b)| usize::from(a != b))
            .sum::<usize>();
        last = chunk.last().copied();
    });
    runs
}

/// Calls `f(byte, len)` for each maximal run of equal bytes in the payload, in order;
/// a run may span chunks.
fn for_each_run(chunks: &Chunks<'_>, mut f: impl FnMut(u8, usize)) {
    let mut open: Option<(u8, usize)> = None;
    chunks(&mut |chunk| {
        let mut rest = chunk;
        while let Some(&byte) = rest.first() {
            let run = rest.iter().position(|&b| b != byte).unwrap_or(rest.len());
            open = match open {
                Some((b, len)) if b == byte => Some((b, len + run)),
                Some((b, len)) => {
                    f(b, len);
                    Some((byte, run))
                }
                None => Some((byte, run)),
            };
            rest = &rest[run..];
        }
    });
    if let Some((byte, len)) = open {
        f(byte, len);
    }
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

/// The little-endian `u32` values of a [`write_u32_column`] payload.
pub(crate) fn le_u32s(payload: &[u8]) -> impl Iterator<Item = u32> + '_ {
    payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
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

    /// Reads one [`write_block`] block and returns the decoded payload: borrowed from
    /// the input when the block is raw, decoded when it is run-length encoded.
    pub fn read_block(&mut self) -> Result<Cow<'a, [u8]>, DataError> {
        let tag = self.read_u8()?;
        let raw_len = self.read_len(usize::MAX)?;
        if tag == BLOCK_RAW {
            return Ok(Cow::Borrowed(self.read_exact(raw_len)?));
        }
        let mut out = Vec::new();
        self.read_block_body(tag, raw_len, &mut out)?;
        Ok(Cow::Owned(out))
    }

    /// Reads the body of a block whose tag and declared length were just read: a raw
    /// body is borrowed from the input, a run-length encoded one is decoded into
    /// `scratch` (its old contents are overwritten).
    fn read_block_body<'s>(
        &mut self,
        tag: u8,
        raw_len: usize,
        scratch: &'s mut Vec<u8>,
    ) -> Result<&'s [u8], DataError>
    where
        'a: 's,
    {
        match tag {
            BLOCK_RAW => self.read_exact(raw_len),
            BLOCK_RLE => {
                self.read_rle(raw_len, scratch)?;
                Ok(scratch)
            }
            _ => Err(corrupt("unknown block tag")),
        }
    }

    /// Decodes a run-length encoded body of `raw_len` bytes into `out`, which ends
    /// holding exactly those bytes. `out` grows with the runs decoded so far, never to
    /// the declared length up front (two input bytes can declare 64 KiB), so its size
    /// is backed by input actually read, and never past the declared length and one
    /// store. A buffer reused from an earlier body is overwritten without being
    /// cleared.
    fn read_rle(&mut self, raw_len: usize, out: &mut Vec<u8>) -> Result<(), DataError> {
        // Runs are written in fixed-width stores of their byte, the last of which may
        // spill past the run (the next run or the final truncation overwrites it), so
        // `out` keeps this much room past the current run.
        const STORE: usize = 16;
        let mut filled = 0;
        while filled < raw_len {
            let left = raw_len - filled;
            let (run, byte) = match self.bytes.get(self.pos..self.pos + 2) {
                // A run below 128 is a one-byte varint: no `read_len` needed.
                Some(&[run, byte]) if run != 0 && run < 0x80 && usize::from(run) <= left => {
                    self.pos += 2;
                    (usize::from(run), byte)
                }
                _ => {
                    let run = self.read_len(left)?;
                    if run == 0 || run > RLE_MAX_RUN {
                        return Err(corrupt("invalid RLE run length"));
                    }
                    (run, self.read_u8()?)
                }
            };
            let end = filled + run;
            if out.len() < end + STORE {
                let grown = (2 * out.len())
                    .max(end + STORE)
                    .min(raw_len.saturating_add(STORE));
                out.resize(grown, 0);
            }
            let splat = [byte; STORE];
            while filled < end {
                out[filled..filled + STORE].copy_from_slice(&splat);
                filled += STORE;
            }
            filled = end;
        }
        out.truncate(raw_len);
        Ok(())
    }

    /// Reads a column block of `len` values of `width` bytes each, checking the
    /// declared length before any of the body is decoded. A raw body is borrowed from
    /// the input; a run-length encoded one is decoded into `scratch`, which a reader of
    /// several columns reuses from one column to the next.
    pub(crate) fn read_column<'s>(
        &mut self,
        len: usize,
        width: usize,
        what: &str,
        scratch: &'s mut Vec<u8>,
    ) -> Result<&'s [u8], DataError>
    where
        'a: 's,
    {
        let tag = self.read_u8()?;
        let raw_len = self.read_len(usize::MAX)?;
        if len.checked_mul(width) != Some(raw_len) {
            return Err(corrupt(format!("{what} column length mismatch")));
        }
        self.read_block_body(tag, raw_len, scratch)
    }

    /// Reads a [`write_u32_column`] block of exactly `len` values.
    pub fn read_u32_column(&mut self, len: usize) -> Result<Vec<u32>, DataError> {
        let mut scratch = Vec::new();
        Ok(le_u32s(self.read_column(len, 4, "u32", &mut scratch)?).collect())
    }

    /// Reads a [`write_f64_column`] block of exactly `len` values (bit-exact).
    pub fn read_f64_column(&mut self, len: usize) -> Result<Vec<f64>, DataError> {
        let mut scratch = Vec::new();
        let payload = self.read_column(len, 8, "f64", &mut scratch)?;
        Ok(payload
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// Reads a [`write_offsets`] block back into a `rows + 1`-entry offset array
    /// starting at `0` and ending at exactly `total`.
    pub fn read_offsets(&mut self, rows: usize, total: u32) -> Result<Vec<u32>, DataError> {
        let payload = self.read_block()?;
        // Every row's delta takes at least one byte, which bounds the reservation.
        if rows > payload.len() {
            return Err(corrupt("offset array is shorter than its rows"));
        }
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
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

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

    /// The writers as they were before blocks were chosen by counting: a trial RLE
    /// encoding of the whole payload, kept when strictly shorter. The writers must emit
    /// exactly these bytes. Beside them, the block readers as they were before the
    /// one-byte run path, which the readers must match byte for byte and error for
    /// error.
    mod reference {
        use super::super::{corrupt, write_varint, Cursor, BLOCK_RAW, BLOCK_RLE, RLE_MAX_RUN};
        use crate::error::DataError;

        pub fn rle_encode(payload: &[u8]) -> Vec<u8> {
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

        pub fn write_u32_column(out: &mut Vec<u8>, values: &[u32]) {
            let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            write_block(out, &payload);
        }

        pub fn write_f64_column(out: &mut Vec<u8>, values: &[f64]) {
            let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            write_block(out, &payload);
        }

        pub fn write_offsets(out: &mut Vec<u8>, offsets: &[u32]) {
            let mut payload = Vec::new();
            for pair in offsets.windows(2) {
                write_varint(&mut payload, u64::from(pair[1] - pair[0]));
            }
            write_block(out, &payload);
        }

        /// The block body reader before the one-byte run path and the reused buffer:
        /// one `read_len` and one `resize` per run, into a fresh buffer.
        fn read_body(
            cursor: &mut Cursor<'_>,
            tag: u8,
            raw_len: usize,
        ) -> Result<Vec<u8>, DataError> {
            match tag {
                BLOCK_RAW => Ok(cursor.read_exact(raw_len)?.to_vec()),
                BLOCK_RLE => {
                    let mut out = Vec::new();
                    while out.len() < raw_len {
                        let run = cursor.read_len(raw_len - out.len())?;
                        if run == 0 || run > RLE_MAX_RUN {
                            return Err(corrupt("invalid RLE run length"));
                        }
                        let byte = cursor.read_u8()?;
                        out.resize(out.len() + run, byte);
                    }
                    Ok(out)
                }
                _ => Err(corrupt("unknown block tag")),
            }
        }

        pub fn read_block(cursor: &mut Cursor<'_>) -> Result<Vec<u8>, DataError> {
            let tag = cursor.read_u8()?;
            let raw_len = cursor.read_len(usize::MAX)?;
            read_body(cursor, tag, raw_len)
        }

        pub fn read_u32_column(cursor: &mut Cursor<'_>, len: usize) -> Result<Vec<u32>, DataError> {
            let tag = cursor.read_u8()?;
            let raw_len = cursor.read_len(usize::MAX)?;
            if len.checked_mul(4) != Some(raw_len) {
                return Err(corrupt("u32 column length mismatch"));
            }
            let payload = read_body(cursor, tag, raw_len)?;
            Ok(payload
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect())
        }
    }

    /// Bytes of one writer call, for comparing a writer with its reference.
    fn written<T: ?Sized>(write: fn(&mut Vec<u8>, &T), input: &T) -> Vec<u8> {
        let mut out = vec![0xAB]; // the writers append: start from a non-empty buffer
        write(&mut out, input);
        out
    }

    /// Concatenated runs of random bytes: `runs` runs whose lengths `run_len` draws.
    fn runs_payload(
        rng: &mut StdRng,
        runs: usize,
        alphabet: u8,
        mut run_len: impl FnMut(&mut StdRng) -> usize,
    ) -> Vec<u8> {
        let mut payload = Vec::new();
        for _ in 0..runs {
            let len = run_len(rng);
            let byte = rng.gen_range(0..alphabet);
            payload.extend(std::iter::repeat(byte).take(len));
        }
        payload
    }

    /// A payload whose run-length encoding is exactly as long as the payload. Runs of
    /// two, and a single byte (one byte longer encoded) beside a run of three (one
    /// shorter), break even; a long run saves all but its pair bytes, which as many
    /// single bytes pay back. With long runs the payload has fewer runs than half its
    /// bytes, so the tie is settled by the encoded length, not by the run count.
    fn tie_payload(rng: &mut StdRng) -> Vec<u8> {
        let mut lens: Vec<usize> = Vec::new();
        for _ in 0..rng.gen_range(0..3usize) {
            let long = [128, 129, 300, 16_383, 16_384, RLE_MAX_RUN + 1][rng.gen_range(0..6usize)];
            let encoded = reference::rle_encode(&vec![0; long]).len();
            lens.push(long);
            lens.extend(std::iter::repeat(1).take(long - encoded));
        }
        let pairs = rng.gen_range(0..40usize);
        lens.extend(std::iter::repeat([1, 3]).take(pairs).flatten());
        lens.extend(std::iter::repeat(2).take(rng.gen_range(0..20usize)));
        lens.shuffle(rng);
        let mut payload = Vec::new();
        for (i, len) in lens.into_iter().enumerate() {
            payload.extend(std::iter::repeat((i % 2) as u8 + 1).take(len));
        }
        assert_eq!(reference::rle_encode(&payload).len(), payload.len());
        payload
    }

    /// `u32` values whose little-endian bytes run across value boundaries, in columns
    /// long enough to cross the writer's stack-buffer chunks.
    fn u32_column(rng: &mut StdRng, case: usize) -> Vec<u32> {
        let pool = [
            0u32,
            1,
            256,
            0x0101_0101,
            0x0100_0000,
            u32::MAX,
            0x00FF_FF00,
        ];
        let len = [0, 1, 3, 1023, 1024, 1025, 2500][rng.gen_range(0..7usize)];
        let mut values = Vec::with_capacity(len);
        while values.len() < len {
            let value = if rng.gen_bool(0.1) {
                rng.gen_range(0..u32::MAX)
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            let repeat = rng.gen_range(1..=[1usize, 4, 700][case % 3]);
            values.extend(std::iter::repeat(value).take(repeat.min(len - values.len())));
        }
        values
    }

    #[test]
    fn writers_emit_the_trial_encoders_bytes() {
        let mut rng = StdRng::seed_from_u64(0x5EED_B10C);
        let long_runs = [
            RLE_MAX_RUN - 1,
            RLE_MAX_RUN,
            RLE_MAX_RUN + 1,
            2 * RLE_MAX_RUN + 3,
        ];
        for case in 0..3_000usize {
            let payload = match case % 6 {
                0 => Vec::new(),
                1 => tie_payload(&mut rng),
                2 if case % 60 == 2 => {
                    runs_payload(&mut rng, 3, 3, |r| long_runs[r.gen_range(0..4usize)])
                }
                2 | 3 => {
                    let runs = rng.gen_range(0..300usize);
                    let max = rng.gen_range(1..12usize);
                    runs_payload(&mut rng, runs, 4, |r| r.gen_range(1..=max))
                }
                _ => {
                    let len = rng.gen_range(0..600usize);
                    let alphabet = [2u8, 16, 255][rng.gen_range(0..3usize)];
                    runs_payload(&mut rng, len, alphabet, |_| 1)
                }
            };
            let out = written(write_block, &payload[..]);
            assert_eq!(
                out,
                written(reference::write_block, &payload[..]),
                "case {case}"
            );
            assert_eq!(Cursor::new(&out[1..]).read_block().unwrap(), payload);

            let values = u32_column(&mut rng, case);
            let len = values.len();
            let out = written(write_u32_column, &values[..]);
            assert_eq!(
                out,
                written(reference::write_u32_column, &values[..]),
                "u32 case {case}"
            );
            assert_eq!(Cursor::new(&out[1..]).read_u32_column(len).unwrap(), values);

            let floats: Vec<f64> = values
                .iter()
                .map(|&v| match v % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::from_bits(0x0101_0101_0101_0101),
                    _ => f64::from(v) * 0.5,
                })
                .collect();
            let out = written(write_f64_column, &floats[..]);
            assert_eq!(
                out,
                written(reference::write_f64_column, &floats[..]),
                "f64 case {case}"
            );

            let mut offsets = vec![0u32];
            for &v in &values {
                let step = if v % 3 == 0 { v % 5 } else { v % 70_000 };
                offsets.push(offsets[offsets.len() - 1].saturating_add(step));
            }
            let out = written(write_offsets, &offsets[..]);
            assert_eq!(
                out,
                written(reference::write_offsets, &offsets[..]),
                "offsets case {case}"
            );
        }
    }

    /// A hand-built run-length encoded block: short runs that cross `u32` value
    /// boundaries, multi-byte run varints (runs of 128 up to [`RLE_MAX_RUN`]), a
    /// one-byte run written as a two-byte varint, zero runs, runs over the longest
    /// run, runs past the declared length, bodies that run out (declaring up to
    /// `usize::MAX` bytes), and truncated pairs.
    fn crafted_rle_block(rng: &mut StdRng) -> Vec<u8> {
        let mut body = Vec::new();
        let mut total = 0usize;
        for _ in 0..rng.gen_range(0..30usize) {
            let run = match rng.gen_range(0..16u8) {
                0 => 0,
                1 | 2 => rng.gen_range(128..=RLE_MAX_RUN),
                3 => RLE_MAX_RUN + rng.gen_range(1..=3usize),
                _ => rng.gen_range(1..=9usize),
            };
            if run < 0x80 && rng.gen_bool(0.05) {
                body.extend_from_slice(&[0x80 | run as u8, 0]);
            } else {
                write_varint(&mut body, run as u64);
            }
            body.push(rng.gen_range(0..3u8));
            total += run;
        }
        let declared = match rng.gen_range(0..5u8) {
            0 | 1 => total,
            2 => total.saturating_sub(rng.gen_range(1..6usize)),
            3 => total + rng.gen_range(1..6usize),
            _ => usize::MAX - rng.gen_range(0..20usize),
        };
        if rng.gen_bool(0.1) {
            body.pop();
        }
        let mut block = vec![BLOCK_RLE];
        write_varint(&mut block, declared as u64);
        block.extend_from_slice(&body);
        block
    }

    #[test]
    fn decoder_matches_the_run_by_run_reference() {
        // The decoded bytes and the input consumed, or the error message.
        type Outcome<T> = Result<(T, usize), String>;
        fn outcome<T>(result: Result<T, DataError>, cursor: &Cursor<'_>) -> Outcome<T> {
            result
                .map(|value| (value, cursor.pos))
                .map_err(|err| err.to_string())
        }

        let mut rng = StdRng::seed_from_u64(0xDEC0_DE12);
        // One buffer for the whole run, as a dataset reader reuses it across columns:
        // bytes left from an earlier case must never leak into a later one.
        let mut scratch = Vec::new();
        let mut rle_blocks = 0;
        for case in 0..3_000usize {
            let mut block = Vec::new();
            match case % 3 {
                0 => {
                    let runs = rng.gen_range(0..200usize);
                    let max = [1usize, 4, 200][rng.gen_range(0..3usize)];
                    let payload = runs_payload(&mut rng, runs, 4, |r| r.gen_range(1..=max));
                    write_block(&mut block, &payload);
                }
                1 => write_u32_column(&mut block, &u32_column(&mut rng, case)),
                _ => block = crafted_rle_block(&mut rng),
            }
            if case % 3 != 2 && rng.gen_bool(0.2) {
                block.truncate(rng.gen_range(0..=block.len()));
            }
            rle_blocks += usize::from(block.first() == Some(&BLOCK_RLE));

            let mut fast = Cursor::new(&block);
            let got = fast.read_block().map(|body| body.into_owned());
            let mut slow = Cursor::new(&block);
            let want = reference::read_block(&mut slow);
            assert_eq!(
                outcome(got, &fast),
                outcome(want, &slow),
                "block case {case}"
            );

            // As a u32 column: exact lengths, and lengths the block does not declare.
            let declared = Cursor::new(&block)
                .read_block()
                .map_or(block.len(), |body| body.len());
            let len = declared / 4 + usize::from(case % 7 == 0);
            let mut fast = Cursor::new(&block);
            let got = fast
                .read_column(len, 4, "u32", &mut scratch)
                .map(|body| le_u32s(body).collect::<Vec<_>>());
            let mut slow = Cursor::new(&block);
            let want = reference::read_u32_column(&mut slow, len);
            assert_eq!(
                outcome(got, &fast),
                outcome(want, &slow),
                "column case {case}"
            );
            assert_eq!(
                Cursor::new(&block)
                    .read_u32_column(len)
                    .map_err(|e| e.to_string()),
                reference::read_u32_column(&mut Cursor::new(&block), len)
                    .map_err(|e| e.to_string()),
                "owned column case {case}"
            );
        }
        assert!(rle_blocks > 1_000, "{rle_blocks} run-length encoded blocks");
    }

    #[test]
    fn ties_stay_raw_and_one_byte_less_goes_rle() {
        let tag = |payload: &[u8]| written(write_block, payload)[1];
        // Runs of two encode to two bytes each: a tie.
        assert_eq!(tag(&[7, 7]), BLOCK_RAW);
        assert_eq!(tag(&[7, 7, 9, 9, 7, 7]), BLOCK_RAW);
        // A single byte (+1) balanced by a run of three (-1).
        assert_eq!(tag(&[1, 2, 2, 2]), BLOCK_RAW);
        assert_eq!(tag(&[5, 5, 5]), BLOCK_RLE);
        assert_eq!(tag(&[1, 2, 2, 2, 2]), BLOCK_RLE);
        // A run of 128 encodes in three bytes; 125 single bytes repay the 125 saved.
        let singles = |n: usize| (0..n).map(|i| (i % 2) as u8 + 1);
        let tie: Vec<u8> = singles(125).chain([3; 128]).collect();
        assert_eq!(tag(&tie), BLOCK_RAW);
        let shorter: Vec<u8> = singles(124).chain([3; 128]).collect();
        assert_eq!(tag(&shorter), BLOCK_RLE);
        // The empty payload is raw.
        assert_eq!(written(write_block, &[][..]), vec![0xAB, BLOCK_RAW, 0]);
    }

    #[test]
    fn columns_reject_a_declared_length_before_decoding() {
        let mut out = Vec::new();
        write_u32_column(&mut out, &[1, 2, 3]);
        let err = Cursor::new(&out).read_u32_column(4).unwrap_err();
        assert!(err.to_string().contains("length mismatch"), "{err}");
        // A run-length encoded column that claims more values than its input backs
        // fails when its runs run out, having grown only as far as they reached.
        let mut huge = vec![BLOCK_RLE];
        write_varint(&mut huge, (u32::MAX as u64) * 8);
        huge.extend_from_slice(&[2, 0]);
        assert!(Cursor::new(&huge)
            .read_f64_column(u32::MAX as usize)
            .is_err());
        // 2^40 declared bytes over a 4-byte body: reserving the declared length up front
        // would abort the process; growing with the runs fails when they run out.
        let mut huge = vec![BLOCK_RLE];
        write_varint(&mut huge, 1 << 40);
        huge.extend_from_slice(&[2, 0, 2, 1]);
        let values = 1usize << 38;
        assert!(Cursor::new(&huge).read_u32_column(values).is_err());
        let mut scratch = Vec::new();
        let err = Cursor::new(&huge)
            .read_column(values, 4, "u32", &mut scratch)
            .unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        assert!(scratch.len() <= 64, "grew to {} bytes", scratch.len());
        let mut offsets = vec![BLOCK_RAW];
        write_varint(&mut offsets, 2);
        offsets.extend_from_slice(&[1, 1]);
        let err = Cursor::new(&offsets)
            .read_offsets(u32::MAX as usize, 2)
            .unwrap_err();
        assert!(err.to_string().contains("shorter than its rows"), "{err}");
    }

    #[test]
    fn nested_seals_match_sealing_twice_and_both_checks_bite() {
        // outer header | nested payload + trailer | outer tail
        let mut nested_container = b"nested payload bytes".to_vec();
        let mut sealed = b"head".to_vec();
        let start = sealed.len();
        sealed.extend_from_slice(&nested_container);
        sealed.extend_from_slice(&[0; 8]);
        let nested = start..sealed.len();
        sealed.extend_from_slice(b"tail");
        seal_nested(&mut sealed, nested.clone());

        append_checksum(&mut nested_container);
        let mut twice = b"head".to_vec();
        twice.extend_from_slice(&nested_container);
        twice.extend_from_slice(b"tail");
        append_checksum(&mut twice);
        assert_eq!(sealed, twice);

        let payload = split_nested_checksums(&sealed, nested.clone()).unwrap();
        assert_eq!(payload, &sealed[..sealed.len() - 8]);
        for byte in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[byte] ^= 0x20;
            let err = split_nested_checksums(&bad, nested.clone()).unwrap_err();
            assert!(
                err.to_string().contains("checksum mismatch"),
                "{byte}: {err}"
            );
        }
        // An edit inside the nested container that re-stamps only the outer checksum
        // still fails, on the nested trailer.
        let mut restamped = sealed.clone();
        restamped[start] ^= 0x01;
        restamped.truncate(restamped.len() - 8);
        append_checksum(&mut restamped);
        let err = split_nested_checksums(&restamped, nested.clone()).unwrap_err();
        assert!(
            err.to_string().contains("nested container checksum"),
            "{err}"
        );
        // A range that does not fit is an error, never a panic.
        let reversed = Range { start: 3, end: 2 };
        for range in [
            0..4,
            reversed,
            0..sealed.len(),
            sealed.len()..sealed.len() + 9,
        ] {
            assert!(split_nested_checksums(&sealed, range).is_err());
        }
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
