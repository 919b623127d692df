//! Columnar binary snapshots of datasets and feature matrices.
//!
//! CSV round trips re-parse every claim; a snapshot instead writes the CSR arrays a
//! [`Dataset`] already holds as contiguous columnar streams and loads them back with
//! one contiguous read per column — no per-claim parsing, no re-indexing, no
//! re-interning. Cold-starting a serving process from a snapshot is therefore bounded
//! by I/O and a handful of `memcpy`-shaped column decodes, not by parse or fit time.
//!
//! # Dataset container layout (`SLFD`, version 1)
//!
//! All integers are little-endian; `varint` is unsigned LEB128 and `block`, `offsets`,
//! `u32 column`, and `f64 column` are the primitives of [`crate::format`] (every block
//! is independently raw or run-length encoded, whichever is smaller).
//!
//! | section | encoding |
//! |---|---|
//! | magic | `"SLFD"` (4 bytes) |
//! | version | `u32` |
//! | counts | varints: `num_sources`, `num_objects`, `num_values`, `num_observations`, `compactions`, `domains_len` |
//! | source names | varint count, then per name: varint length + UTF-8 bytes; no name repeats |
//! | object names | same |
//! | value names | same |
//! | `by_object` offsets | delta+varint offsets, `num_objects` rows |
//! | `by_object` source column | u32 column, `num_observations` entries |
//! | `by_object` value column | u32 column, `num_observations` entries |
//! | `by_object` seq column | u32 column, `num_observations` entries |
//! | `by_source` offsets | delta+varint offsets, `num_sources` rows |
//! | `by_source` object column | u32 column, `num_observations` entries |
//! | `by_source` value column | u32 column, `num_observations` entries |
//! | domain offsets | delta+varint offsets, `num_objects` rows |
//! | domain value column | u32 column, `domains_len` entries |
//! | checksum | FNV-1a 64 of all preceding bytes |
//!
//! The insertion-order observation log is **not** stored: each `by_object` entry
//! carries its log sequence number, so the loader scatters the object rows back into
//! log order (`log[seq] = (source, row_object, value)`) — an exact, validated
//! reconstruction that keeps on-disk bytes/claim strictly below the in-memory figure
//! reported by [`Dataset::storage_stats`].
//!
//! Feature matrices use the sibling `SLFF` container: feature vocabulary, delta+varint
//! row offsets, a u32 feature-handle column, and an f64 value column (bit-exact).
//!
//! # Compatibility promise
//!
//! Readers accept every container version up to the current one; the version constants
//! only move when the layout changes, and old versions stay readable (the same promise
//! `SlimFastModel::from_bytes` makes for model blobs). Every reader validates the
//! trailing checksum and every structural invariant before constructing a value
//! ([`dataset_from_unverified_bytes`] leaves the checksum to a caller that compares
//! it on another lane): corrupt or truncated input fails with typed
//! [`DataError::CorruptModel`] / [`DataError::UnsupportedModelVersion`] errors, never
//! a panic.
//!
//! # Write atomicity
//!
//! The file helpers ([`write_dataset_file`]) go through [`crate::io::atomic_write`]
//! (write temp + fsync + rename), so a crash mid-write never leaves a torn snapshot
//! at the target path.

use std::path::{Path, PathBuf};

use crate::dataset::{CsrIndex, Dataset, DatasetParts};
use crate::error::DataError;
use crate::faults;
use crate::features::{FeatureMatrix, FeatureValue};
use crate::format::{self, corrupt, Cursor};
use crate::ids::{FeatureId, Interner, ObjectId, SourceId, ValueId};
use crate::io::atomic_write;
use crate::observation::Observation;

/// Magic prefix of a serialized dataset container.
const DATASET_MAGIC: [u8; 4] = *b"SLFD";
/// Current dataset container version. Bumped only on layout changes; older versions
/// stay readable.
pub const DATASET_FORMAT_VERSION: u32 = 1;

/// Magic prefix of a serialized feature-matrix container.
const FEATURES_MAGIC: [u8; 4] = *b"SLFF";
/// Current feature-matrix container version.
pub const FEATURES_FORMAT_VERSION: u32 = 1;

/// Writes `len` names, in handle order.
fn write_dict<'a>(out: &mut Vec<u8>, len: usize, names: impl Iterator<Item = &'a str>) {
    format::write_varint(out, len as u64);
    for name in names {
        format::write_str(out, name);
    }
}

/// Decodes a [`write_dict`] dictionary of at most `max_len` names straight into an
/// interner. A name's position is its handle, so a repeated name, which `write_dict`
/// never emits, is corruption: it would leave a handle that no name reaches.
fn read_dict<Id: Copy + From<usize> + crate::ids::IdLike>(
    cursor: &mut Cursor<'_>,
    max_len: usize,
) -> Result<Interner<Id>, DataError> {
    let len = cursor.read_len(max_len)?;
    // Each name takes at least its length byte, so the input left bounds the reservation.
    let mut interner: Interner<Id> = Interner::with_capacity(len.min(cursor.remaining()));
    for handle in 0..len {
        let id = interner
            .try_intern(cursor.read_str()?)
            .ok_or_else(|| corrupt("dictionary overflows the name arena"))?;
        if id.raw_index() != handle {
            return Err(corrupt("dictionary repeats a name"));
        }
    }
    Ok(interner)
}

/// Checks the magic/version header shared by both containers and, when `verify` is
/// set, the trailing checksum. Returns a cursor over the payload in front of the
/// trailer, positioned after the header.
fn open_container<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    supported: u32,
    verify: bool,
) -> Result<Cursor<'a>, DataError> {
    if bytes.len() < 8 || &bytes[..4] != magic {
        return Err(corrupt("bad magic: not a snapshot container"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    if version == 0 || version > supported {
        return Err(DataError::UnsupportedModelVersion {
            found: version,
            supported,
        });
    }
    let payload = if verify {
        format::split_checksum(bytes)?
    } else {
        &bytes[..bytes.len() - 8]
    };
    let mut cursor = Cursor::new(payload);
    cursor.read_exact(8)?; // the header, when the trailer leaves room for it
    Ok(cursor)
}

/// Serializes a compacted dataset into the columnar `SLFD` container.
///
/// Fails with [`DataError::Invalid`] when the dataset carries pending appends or
/// tombstones — serialize [`Dataset::compacted`] instead, or append it with
/// [`append_compacted_dataset`], which writes those bytes without building it (the
/// serving-bundle writer does).
pub fn dataset_to_bytes(dataset: &Dataset) -> Result<Vec<u8>, DataError> {
    let mut out = dataset_to_unsealed_bytes(dataset)?;
    format::append_checksum(&mut out);
    Ok(out)
}

/// [`dataset_to_bytes`] without the trailing checksum: for a container that nests the
/// dataset and computes that checksum together with its own in one pass (see
/// [`format::seal_nested`]). Appending [`format::append_checksum`] gives the
/// [`dataset_to_bytes`] bytes.
pub fn dataset_to_unsealed_bytes(dataset: &Dataset) -> Result<Vec<u8>, DataError> {
    if !dataset.is_compacted() {
        return Err(DataError::Invalid(
            "snapshots require a compacted dataset; serialize Dataset::compacted()".to_string(),
        ));
    }
    let mut out = Vec::new();
    append_compacted_dataset(&mut out, dataset);
    Ok(out)
}

/// Appends to `out` the [`dataset_to_unsealed_bytes`] of `dataset.compacted()`, without
/// building the compacted dataset: a dataset with a delta has only its CSR arrays
/// merged, and its claim log and vocabularies are not copied.
pub fn append_compacted_dataset(out: &mut Vec<u8>, dataset: &Dataset) {
    dataset.with_compacted_columns(|cols| {
        let csr = cols.csr;
        let n = csr.by_object.len();
        // A raw column takes 4 bytes a claim; reserving past the end touches no page.
        out.reserve(32 + n * 24);
        out.extend_from_slice(&DATASET_MAGIC);
        out.extend_from_slice(&DATASET_FORMAT_VERSION.to_le_bytes());
        for count in [
            cols.num_sources,
            cols.num_objects,
            cols.num_values,
            n,
            cols.compactions,
            csr.domains.len(),
        ] {
            format::write_varint(out, count as u64);
        }
        write_dict(out, cols.sources.len(), cols.sources.iter());
        write_dict(out, cols.objects.len(), cols.objects.iter());
        write_dict(out, cols.values.len(), cols.values.iter());

        format::write_offsets(out, &csr.by_object_offsets);
        format::write_u32_values(out, || csr.by_object.iter().map(|&(s, _)| s.0));
        format::write_u32_values(out, || csr.by_object.iter().map(|&(_, v)| v.0));
        format::write_u32_column(out, &csr.by_object_seq);

        format::write_offsets(out, &csr.by_source_offsets);
        format::write_u32_values(out, || csr.by_source.iter().map(|&(o, _)| o.0));
        format::write_u32_values(out, || csr.by_source.iter().map(|&(_, v)| v.0));

        format::write_offsets(out, &csr.domain_offsets);
        format::write_u32_values(out, || csr.domains.iter().map(|&v| v.0));
    });
}

/// Validates that every entry of `col` is below `bound`.
fn check_ids(col: &[u32], bound: usize, what: &str) -> Result<(), DataError> {
    check_range(col.iter().all(|&id| (id as usize) < bound), what)
}

/// The error of a handle column with an entry at or past its bound.
fn check_range(in_range: bool, what: &str) -> Result<(), DataError> {
    if in_range {
        Ok(())
    } else {
        Err(corrupt(format!("{what} handle out of range")))
    }
}

/// Deserializes a `SLFD` container back into a compacted [`Dataset`].
///
/// The checksum is verified before any parsing; every handle is bounds-checked and the
/// sequence column is validated to be a permutation of the log positions before the
/// observation log is scattered back together, so corrupt input can produce an error
/// but never a panic or an inconsistent dataset.
pub fn dataset_from_bytes(bytes: &[u8]) -> Result<Dataset, DataError> {
    dataset_from_container(bytes, true)
}

/// [`dataset_from_bytes`] without the trailer comparison, for a container nested in a
/// blob whose reader compares that trailer itself, possibly on another lane while this
/// parse runs (see [`format::split_nested_checksums`]). Every structural check and
/// typed error stays, so any input gives a value or an error and never a panic, but
/// only the checksum tells corrupt bytes from good ones: the caller must drop the
/// result, value or error, unless its comparison of both trailers passed.
pub fn dataset_from_unverified_bytes(bytes: &[u8]) -> Result<Dataset, DataError> {
    dataset_from_container(bytes, false)
}

/// A CSR pair array and whether each of its two columns' handles are in range.
type CheckedPairs<A, B> = (Vec<(A, B)>, [bool; 2]);

/// Reads the two `u32` column blocks of a CSR pair array and fills the pairs in one
/// pass over both. A raw block is read in place; a run-length encoded one is decoded
/// into its own buffer of `scratch`, reused from one pair array to the next. Returns the
/// pairs and whether each column's handles stay below its bound, which the caller
/// reports once its columns are read, so a column error still comes first.
fn read_pairs<A, B>(
    cursor: &mut Cursor<'_>,
    n: usize,
    [first_scratch, second_scratch]: &mut [Vec<u8>; 2],
    (first, first_bound): (fn(u32) -> A, usize),
    (second, second_bound): (fn(u32) -> B, usize),
) -> Result<CheckedPairs<A, B>, DataError> {
    let firsts = cursor.read_column(n, 4, "u32", first_scratch)?;
    let seconds = cursor.read_column(n, 4, "u32", second_scratch)?;
    let mut in_range = [true; 2];
    let pairs = format::le_u32s(firsts)
        .zip(format::le_u32s(seconds))
        .map(|(a, b)| {
            in_range[0] &= (a as usize) < first_bound;
            in_range[1] &= (b as usize) < second_bound;
            (first(a), second(b))
        })
        .collect();
    Ok((pairs, in_range))
}

fn dataset_from_container(bytes: &[u8], verify: bool) -> Result<Dataset, DataError> {
    let mut cursor = open_container(bytes, &DATASET_MAGIC, DATASET_FORMAT_VERSION, verify)?;
    let max = u32::MAX as usize;
    let num_sources = cursor.read_len(max)?;
    let num_objects = cursor.read_len(max)?;
    let num_values = cursor.read_len(max)?;
    let n = cursor.read_len(max)?;
    let compactions = cursor.read_len(usize::MAX)?;
    // Every domain entry is backed by at least one claim, so domains_len <= n.
    let domains_len = cursor.read_len(n)?;

    let sources: Interner<SourceId> = read_dict(&mut cursor, num_sources)?;
    let objects: Interner<ObjectId> = read_dict(&mut cursor, num_objects)?;
    let values: Interner<ValueId> = read_dict(&mut cursor, num_values)?;

    // The offset arrays must sum to the claim count before any column of that length
    // is decoded. Raw columns are read in place, and run-length encoded ones decode
    // into these two buffers, reused from column to column.
    let n_u32 = u32::try_from(n).map_err(|_| corrupt("claim count overflows u32"))?;
    let mut scratch = [Vec::new(), Vec::new()];
    let by_object_offsets = cursor.read_offsets(num_objects, n_u32)?;
    let (by_object, [sources_ok, values_ok]) = read_pairs(
        &mut cursor,
        n,
        &mut scratch,
        (SourceId, num_sources),
        (ValueId, num_values),
    )?;
    let by_object_seq: Vec<u32> =
        format::le_u32s(cursor.read_column(n, 4, "u32", &mut scratch[0])?).collect();
    check_range(sources_ok, "source")?;
    check_range(values_ok, "value")?;

    let by_source_offsets = cursor.read_offsets(num_sources, n_u32)?;
    let (by_source, [objects_ok, values_ok]) = read_pairs(
        &mut cursor,
        n,
        &mut scratch,
        (ObjectId, num_objects),
        (ValueId, num_values),
    )?;
    check_range(objects_ok, "object")?;
    check_range(values_ok, "value")?;

    let domains_u32 =
        u32::try_from(domains_len).map_err(|_| corrupt("domain count overflows u32"))?;
    let domain_offsets = cursor.read_offsets(num_objects, domains_u32)?;
    let mut domains_ok = true;
    let domains: Vec<ValueId> =
        format::le_u32s(cursor.read_column(domains_len, 4, "u32", &mut scratch[0])?)
            .map(|v| {
                domains_ok &= (v as usize) < num_values;
                ValueId(v)
            })
            .collect();
    check_range(domains_ok, "value")?;
    if !cursor.is_empty() {
        return Err(corrupt("trailing bytes after dataset payload"));
    }

    // Scatter the object rows back into the insertion-order log. The seq column must
    // be a permutation of 0..n or the log cannot be reconstructed; a slot not yet
    // filled holds an object handle no row can have (handles stay below u32::MAX).
    let unset = Observation::new(SourceId(0), ObjectId(u32::MAX), ValueId(0));
    let mut observations = vec![unset; n];
    for object in 0..num_objects {
        let row = by_object_offsets[object] as usize..by_object_offsets[object + 1] as usize;
        for (&(source, value), &seq) in by_object[row.clone()].iter().zip(&by_object_seq[row]) {
            match observations.get_mut(seq as usize) {
                Some(slot) if slot.object == unset.object => {
                    *slot = Observation::new(source, ObjectId::new(object), value);
                }
                _ => return Err(corrupt("sequence column is not a permutation of the log")),
            }
        }
    }

    Ok(Dataset::from_parts(DatasetParts {
        observations,
        csr: CsrIndex {
            by_object,
            by_object_offsets,
            by_object_seq,
            by_source,
            by_source_offsets,
            domains,
            domain_offsets,
        },
        sources,
        objects,
        values,
        num_sources,
        num_objects,
        num_values,
        compactions,
    }))
}

/// Serializes a [`FeatureMatrix`] into the columnar `SLFF` container.
pub fn features_to_bytes(features: &FeatureMatrix) -> Vec<u8> {
    let rows = features.rows();
    let nnz = rows.iter().map(Vec::len).sum::<usize>();
    let mut out = Vec::with_capacity(32 + nnz * 12);
    out.extend_from_slice(&FEATURES_MAGIC);
    out.extend_from_slice(&FEATURES_FORMAT_VERSION.to_le_bytes());
    format::write_varint(&mut out, rows.len() as u64);
    format::write_varint(&mut out, nnz as u64);
    let interner = features.interner();
    write_dict(
        &mut out,
        interner.len(),
        interner.iter().map(|(_, name)| name),
    );
    let mut offsets = Vec::with_capacity(rows.len() + 1);
    offsets.push(0u32);
    let mut acc = 0u32;
    for row in rows {
        acc += row.len() as u32;
        offsets.push(acc);
    }
    format::write_offsets(&mut out, &offsets);
    let ids: Vec<u32> = rows.iter().flatten().map(|&(k, _)| k.0).collect();
    format::write_u32_column(&mut out, &ids);
    let vals: Vec<f64> = rows.iter().flatten().map(|&(_, v)| v).collect();
    format::write_f64_column(&mut out, &vals);
    format::append_checksum(&mut out);
    out
}

/// Deserializes a `SLFF` container back into a [`FeatureMatrix`] (bit-exact values).
pub fn features_from_bytes(bytes: &[u8]) -> Result<FeatureMatrix, DataError> {
    let mut cursor = open_container(bytes, &FEATURES_MAGIC, FEATURES_FORMAT_VERSION, true)?;
    let num_sources = cursor.read_len(u32::MAX as usize)?;
    let nnz = cursor.read_len(u32::MAX as usize)?;
    let interner: Interner<FeatureId> = read_dict(&mut cursor, u32::MAX as usize)?;
    let nnz_u32 = u32::try_from(nnz).map_err(|_| corrupt("feature count overflows u32"))?;
    let offsets = cursor.read_offsets(num_sources, nnz_u32)?;
    let ids = cursor.read_u32_column(nnz)?;
    check_ids(&ids, interner.len(), "feature")?;
    let vals = cursor.read_f64_column(nnz)?;
    if !cursor.is_empty() {
        return Err(corrupt("trailing bytes after feature payload"));
    }
    let mut rows: Vec<Vec<(FeatureId, FeatureValue)>> = Vec::with_capacity(num_sources);
    for s in 0..num_sources {
        let range = offsets[s] as usize..offsets[s + 1] as usize;
        rows.push(range.map(|i| (FeatureId(ids[i]), vals[i])).collect());
    }
    Ok(FeatureMatrix::from_parts(rows, interner))
}

/// Writes a compacted dataset to `path` atomically (temp file + fsync + rename).
pub fn write_dataset_file(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), DataError> {
    atomic_write(path, &dataset_to_bytes(dataset)?)
}

/// The value recovered by [`SnapshotDir::recover`], with the generation it came from
/// and every newer generation that had to be skipped to reach it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered<T> {
    /// Generation number the value was parsed from.
    pub generation: u64,
    /// The parsed value.
    pub value: T,
    /// Newer generations skipped on the way down, newest first, with the error that
    /// disqualified each (truncated file, checksum mismatch, unreadable, ...).
    pub skipped: Vec<(u64, String)>,
}

/// A directory of rotated snapshot generations: `gen-NNNN.slfs` files plus an
/// advisory `MANIFEST`.
///
/// Each [`SnapshotDir::write_generation`] lands a new numbered file through
/// [`atomic_write`] and prunes generations beyond the retention count, so the
/// directory always holds the most recent `retain` complete snapshots.
/// [`SnapshotDir::recover`] scans **newest→oldest** and returns the first generation
/// that reads *and parses* cleanly — a torn write, a truncated file, or bit rot in
/// the newest generation falls back to the one before it instead of stranding cold
/// start. The `MANIFEST` is advisory only (human-auditable pointer to the latest
/// generation); recovery never trusts it — the directory listing and each file's own
/// checksums are the source of truth.
///
/// The directory is single-writer (like the serving tier it checkpoints): concurrent
/// `write_generation` calls from multiple processes are not coordinated.
///
/// ```no_run
/// use slimfast_data::SnapshotDir;
///
/// let dir = SnapshotDir::open("/var/lib/slimfast/snapshots")?.with_retention(4);
/// let generation = dir.write_generation(b"...serialized snapshot bundle...")?;
/// let recovered = dir.recover(|bytes| Ok(bytes.to_vec()))?;
/// assert_eq!(recovered.generation, generation);
/// # Ok::<(), slimfast_data::DataError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotDir {
    dir: PathBuf,
    retain: usize,
}

impl SnapshotDir {
    /// Default number of generations kept on disk.
    pub const DEFAULT_RETENTION: usize = 3;

    /// Opens (creating if needed) a generation directory at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DataError> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            retain: Self::DEFAULT_RETENTION,
        })
    }

    /// Sets how many generations [`SnapshotDir::write_generation`] keeps (clamped to
    /// at least 1). Older generations are deleted after each successful write.
    pub fn with_retention(mut self, keep: usize) -> Self {
        self.retain = keep.max(1);
        self
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Path of generation `generation` (whether or not it exists on disk).
    pub fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:04}.slfs"))
    }

    /// Parses a directory entry's file name back into a generation number.
    fn parse_generation(name: &str) -> Option<u64> {
        name.strip_prefix("gen-")?
            .strip_suffix(".slfs")?
            .parse()
            .ok()
    }

    /// Generation numbers present on disk, ascending. Files that do not match the
    /// `gen-NNNN.slfs` pattern (the manifest, temp files) are ignored.
    pub fn generations(&self) -> Result<Vec<u64>, DataError> {
        let mut generations = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(generation) = Self::parse_generation(&entry.file_name().to_string_lossy()) {
                generations.push(generation);
            }
        }
        generations.sort_unstable();
        Ok(generations)
    }

    /// The newest generation on disk, if any.
    pub fn latest(&self) -> Result<Option<u64>, DataError> {
        Ok(self.generations()?.last().copied())
    }

    /// Writes `bytes` as the next generation (atomically: temp + fsync + rename),
    /// refreshes the advisory `MANIFEST`, prunes generations beyond the retention
    /// count, and returns the new generation number.
    ///
    /// A failure before the rename (crash, full disk, injected fault) leaves the
    /// previous generations untouched — the next write simply claims the same number.
    pub fn write_generation(&self, bytes: &[u8]) -> Result<u64, DataError> {
        let next = self.latest()?.map_or(1, |g| g + 1);
        atomic_write(self.generation_path(next), bytes)?;
        // Manifest failures are not fatal: the generation itself is already durable
        // and recovery never reads the manifest.
        let manifest = format!("latest-generation: {next}\nretain: {}\n", self.retain);
        let _ = atomic_write(self.dir.join("MANIFEST"), manifest.as_bytes());
        self.prune()?;
        Ok(next)
    }

    /// Deletes the oldest generations beyond the retention count (best effort: a
    /// file that refuses to delete is left for the next prune).
    fn prune(&self) -> Result<(), DataError> {
        let generations = self.generations()?;
        if generations.len() > self.retain {
            for &generation in &generations[..generations.len() - self.retain] {
                let _ = std::fs::remove_file(self.generation_path(generation));
            }
        }
        Ok(())
    }

    /// Reads the raw bytes of one generation. Carries the `snapshot.read`
    /// fault-injection site (see [`crate::faults`]).
    pub fn read_generation(&self, generation: u64) -> Result<Vec<u8>, DataError> {
        faults::fire_data("snapshot.read")?;
        Ok(std::fs::read(self.generation_path(generation))?)
    }

    /// Recovers the newest generation that reads **and** parses cleanly, scanning
    /// newest→oldest. `parse` validates the bytes (e.g. `ModelSnapshot::from_bytes` or
    /// [`dataset_from_bytes`]); generations it rejects — truncated, checksum-corrupt,
    /// wrong format — are recorded in [`Recovered::skipped`] and the scan continues,
    /// so a torn newest write never strands cold start. Fails with
    /// [`DataError::Invalid`] only when no generation on disk is valid.
    pub fn recover<T>(
        &self,
        mut parse: impl FnMut(&[u8]) -> Result<T, DataError>,
    ) -> Result<Recovered<T>, DataError> {
        let mut skipped = Vec::new();
        for generation in self.generations()?.into_iter().rev() {
            match self.read_generation(generation).and_then(|b| parse(&b)) {
                Ok(value) => {
                    return Ok(Recovered {
                        generation,
                        value,
                        skipped,
                    })
                }
                Err(err) => skipped.push((generation, err.to_string())),
            }
        }
        Err(DataError::Invalid(format!(
            "no valid snapshot generation in '{}' ({} present, all rejected)",
            self.dir.display(),
            skipped.len()
        )))
    }
}

/// Reads a dataset snapshot written by [`write_dataset_file`].
pub fn read_dataset_file(path: impl AsRef<Path>) -> Result<Dataset, DataError> {
    dataset_from_bytes(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::features::FeatureMatrixBuilder;

    fn toy() -> Dataset {
        let mut b = DatasetBuilder::new();
        b.observe("s0", "o0", "false").unwrap();
        b.observe("s1", "o0", "false").unwrap();
        b.observe("s2", "o0", "true").unwrap();
        b.observe("s0", "o1", "true").unwrap();
        b.observe("s2", "o1", "true").unwrap();
        b.build()
    }

    #[test]
    fn dataset_round_trips_losslessly() {
        let d = toy();
        let bytes = dataset_to_bytes(&d).unwrap();
        let back = dataset_from_bytes(&bytes).unwrap();
        assert!(back.same_content(&d));
        assert!(back.is_compacted());
        assert_eq!(back.compaction_count(), d.compaction_count());
        assert_eq!(back.observations(), d.observations());
        // Name lookups survive.
        assert_eq!(back.source_id("s2"), d.source_id("s2"));
        assert_eq!(back.value_name(ValueId::new(0)), Some("false"));
    }

    #[test]
    fn empty_and_unnamed_datasets_round_trip() {
        let empty = DatasetBuilder::new().build();
        let back = dataset_from_bytes(&dataset_to_bytes(&empty).unwrap()).unwrap();
        assert!(back.same_content(&empty));

        // Handle-only datasets have empty vocabularies and reserved entities.
        let mut b = DatasetBuilder::new();
        b.observe_ids(SourceId::new(3), ObjectId::new(1), ValueId::new(2))
            .unwrap();
        b.reserve_sources(10);
        b.reserve_objects(5);
        let d = b.build();
        let back = dataset_from_bytes(&dataset_to_bytes(&d).unwrap()).unwrap();
        assert!(back.same_content(&d));
        assert_eq!(back.num_sources(), 10);
        assert_eq!(back.num_values(), d.num_values());
        assert_eq!(back.source_name(SourceId::new(3)), None);
    }

    #[test]
    fn uncompacted_datasets_are_rejected() {
        let mut d = toy();
        d.append_named("s9", "o9", "new").unwrap();
        let err = dataset_to_bytes(&d).unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)));
        d.compact();
        assert!(dataset_to_bytes(&d).is_ok());
    }

    #[test]
    fn compacted_delta_datasets_round_trip() {
        let mut d = toy();
        d.append_named("s3", "o2", "w").unwrap();
        let s0 = d.source_id("s0").unwrap();
        let o0 = d.object_id("o0").unwrap();
        assert!(d.evict(s0, o0));
        d.compact();
        let back = dataset_from_bytes(&dataset_to_bytes(&d).unwrap()).unwrap();
        assert!(back.same_content(&d));
        assert_eq!(back.compaction_count(), 1);
        // The restored dataset accepts further appends and compactions.
        let mut grown = back;
        grown.append_named("s4", "o3", "q").unwrap();
        grown.compact();
        assert_eq!(grown.num_observations(), d.num_observations() + 1);
    }

    #[test]
    fn unsealed_and_unverified_entry_points_match_the_standalone_ones() {
        let d = toy();
        let unsealed = dataset_to_unsealed_bytes(&d).unwrap();
        let mut sealed = unsealed.clone();
        format::append_checksum(&mut sealed);
        assert_eq!(sealed, dataset_to_bytes(&d).unwrap());
        assert!(dataset_from_unverified_bytes(&sealed)
            .unwrap()
            .same_content(&d));
        // The unverified reader compares no trailer; the standalone one does.
        let mut wrong = sealed.clone();
        *wrong.last_mut().unwrap() ^= 1;
        assert!(dataset_from_unverified_bytes(&wrong)
            .unwrap()
            .same_content(&d));
        match dataset_from_bytes(&wrong) {
            Err(DataError::CorruptModel { message }) => {
                assert!(message.contains("checksum mismatch"), "{message}")
            }
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
        // Every proper prefix ends inside the payload, so the parse runs out.
        for len in 0..sealed.len() {
            assert!(
                dataset_from_unverified_bytes(&sealed[..len]).is_err(),
                "len {len}"
            );
        }
    }

    /// The dataset decode before the column passes: each column into its own `Vec`,
    /// the handle checks after the columns, and the pair arrays zipped from two of
    /// them. The decode must produce the same arrays, or the same error.
    fn dataset_by_columns(bytes: &[u8]) -> Result<Dataset, DataError> {
        let mut cursor = open_container(bytes, &DATASET_MAGIC, DATASET_FORMAT_VERSION, true)?;
        let max = u32::MAX as usize;
        let num_sources = cursor.read_len(max)?;
        let num_objects = cursor.read_len(max)?;
        let num_values = cursor.read_len(max)?;
        let n = cursor.read_len(max)?;
        let compactions = cursor.read_len(usize::MAX)?;
        let domains_len = cursor.read_len(n)?;
        let sources: Interner<SourceId> = read_dict(&mut cursor, num_sources)?;
        let objects: Interner<ObjectId> = read_dict(&mut cursor, num_objects)?;
        let values: Interner<ValueId> = read_dict(&mut cursor, num_values)?;

        let n_u32 = u32::try_from(n).map_err(|_| corrupt("claim count overflows u32"))?;
        let by_object_offsets = cursor.read_offsets(num_objects, n_u32)?;
        let obj_sources = cursor.read_u32_column(n)?;
        let obj_values = cursor.read_u32_column(n)?;
        let by_object_seq = cursor.read_u32_column(n)?;
        check_ids(&obj_sources, num_sources, "source")?;
        check_ids(&obj_values, num_values, "value")?;
        let by_source_offsets = cursor.read_offsets(num_sources, n_u32)?;
        let src_objects = cursor.read_u32_column(n)?;
        let src_values = cursor.read_u32_column(n)?;
        check_ids(&src_objects, num_objects, "object")?;
        check_ids(&src_values, num_values, "value")?;
        let domains_u32 =
            u32::try_from(domains_len).map_err(|_| corrupt("domain count overflows u32"))?;
        let domain_offsets = cursor.read_offsets(num_objects, domains_u32)?;
        let domain_values = cursor.read_u32_column(domains_len)?;
        check_ids(&domain_values, num_values, "value")?;
        if !cursor.is_empty() {
            return Err(corrupt("trailing bytes after dataset payload"));
        }

        let mut observations = vec![Observation::new(SourceId(0), ObjectId(0), ValueId(0)); n];
        let mut seen = vec![false; n];
        for object in 0..num_objects {
            let row = by_object_offsets[object] as usize..by_object_offsets[object + 1] as usize;
            for i in row {
                let seq = by_object_seq[i] as usize;
                if seq >= n || seen[seq] {
                    return Err(corrupt("sequence column is not a permutation of the log"));
                }
                seen[seq] = true;
                observations[seq] = Observation::new(
                    SourceId(obj_sources[i]),
                    ObjectId::new(object),
                    ValueId(obj_values[i]),
                );
            }
        }
        let zip =
            |a: &[u32], b: &[u32]| a.iter().copied().zip(b.iter().copied()).collect::<Vec<_>>();
        Ok(Dataset::from_parts(DatasetParts {
            observations,
            csr: CsrIndex {
                by_object: zip(&obj_sources, &obj_values)
                    .into_iter()
                    .map(|(s, v)| (SourceId(s), ValueId(v)))
                    .collect(),
                by_object_offsets,
                by_object_seq,
                by_source: zip(&src_objects, &src_values)
                    .into_iter()
                    .map(|(o, v)| (ObjectId(o), ValueId(v)))
                    .collect(),
                by_source_offsets,
                domains: domain_values.into_iter().map(ValueId).collect(),
                domain_offsets,
            },
            sources,
            objects,
            values,
            num_sources,
            num_objects,
            num_values,
            compactions,
        }))
    }

    /// Asserts two decoded datasets agree on every array, `by_object_seq` and the
    /// compaction counter included.
    fn assert_same_arrays(got: &Dataset, want: &Dataset, what: &str) {
        assert_eq!(got.observations(), want.observations(), "{what}: log");
        let counts = |c: &crate::dataset::DatasetColumns<'_>| {
            (c.num_sources, c.num_objects, c.num_values, c.compactions)
        };
        got.with_compacted_columns(|a| {
            want.with_compacted_columns(|b| {
                let (x, y) = (a.csr, b.csr);
                assert_eq!(x.by_object, y.by_object, "{what}: by_object");
                assert_eq!(x.by_object_offsets, y.by_object_offsets, "{what}");
                assert_eq!(x.by_object_seq, y.by_object_seq, "{what}: seq");
                assert_eq!(x.by_source, y.by_source, "{what}: by_source");
                assert_eq!(x.by_source_offsets, y.by_source_offsets, "{what}");
                assert_eq!(x.domains, y.domains, "{what}: domains");
                assert_eq!(x.domain_offsets, y.domain_offsets, "{what}");
                assert_eq!(counts(&a), counts(&b), "{what}: counts");
            })
        });
        assert!(got.same_content(want), "{what}: names");
    }

    #[test]
    fn column_passes_decode_what_the_column_decode_did() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0xC01D_5EED);
        let mut datasets: Vec<Dataset> = (0..300)
            .map(|_| {
                crate::dataset::tests::random_history(&mut rng, |_, _, _| {}, |_| {}).compacted()
            })
            .collect();
        // Larger ones, so value columns run long and use multi-byte run varints.
        for (claims, values) in [(5_000usize, 2usize), (20_000, 1), (20_000, 5)] {
            let mut b = DatasetBuilder::with_capacity(claims);
            for i in 0..claims {
                let _ = b.observe(
                    &format!("s{}", i % 97),
                    &format!("o{}", i / 7),
                    &format!("v{}", (i / 300) % values),
                );
            }
            let mut d = b.build();
            d.evict_batch(&[(SourceId(3), ObjectId(3)), (SourceId(5), ObjectId(5))]);
            d.append_named("late-source", "o1", "v0").unwrap();
            datasets.push(d.compacted());
        }
        for (case, d) in datasets.iter().enumerate() {
            let what = format!("case {case}");
            let bytes = dataset_to_bytes(d).unwrap();
            let got = dataset_from_bytes(&bytes).unwrap();
            assert_same_arrays(&got, &dataset_by_columns(&bytes).unwrap(), &what);
            assert_same_arrays(&got, d, &what);
            // Edited payload bytes under a re-stamped checksum: both decoders give the
            // same arrays or the same error.
            for edit in 0..6 {
                let mut bad = bytes.clone();
                for _ in 0..rng.gen_range(1..=2usize) {
                    let at = rng.gen_range(8..bytes.len() - 8);
                    bad[at] = if edit % 2 == 0 {
                        rng.gen_range(0..=u8::MAX)
                    } else {
                        bad[at] ^ 1
                    };
                }
                restamp_checksum(&mut bad);
                let what = format!("{what} edit {edit}");
                match (dataset_from_bytes(&bad), dataset_by_columns(&bad)) {
                    (Ok(got), Ok(want)) => assert_same_arrays(&got, &want, &what),
                    (Err(got), Err(want)) => {
                        assert_eq!(got.to_string(), want.to_string(), "{what}")
                    }
                    (got, want) => panic!("{what}: {got:?} vs {want:?}"),
                }
            }
        }
    }

    #[test]
    fn truncation_at_every_length_errors_without_panic() {
        let bytes = dataset_to_bytes(&toy()).unwrap();
        for len in 0..bytes.len() {
            assert!(dataset_from_bytes(&bytes[..len]).is_err(), "len {len}");
        }
    }

    /// Recomputes the trailing checksum after a test edits a container's payload.
    fn restamp_checksum(bytes: &mut [u8]) {
        let payload_len = bytes.len() - 8;
        let checksum = format::fnv1a(&bytes[..payload_len]);
        bytes[payload_len..].copy_from_slice(&checksum.to_le_bytes());
    }

    #[test]
    fn bad_magic_and_future_versions_are_typed() {
        let mut bytes = dataset_to_bytes(&toy()).unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'?';
        assert!(matches!(
            dataset_from_bytes(&bad).unwrap_err(),
            DataError::CorruptModel { .. }
        ));
        // Future version (checksum re-stamped so only the version differs).
        bytes[4..8].copy_from_slice(&(DATASET_FORMAT_VERSION + 3).to_le_bytes());
        restamp_checksum(&mut bytes);
        match dataset_from_bytes(&bytes).unwrap_err() {
            DataError::UnsupportedModelVersion { found, supported } => {
                assert_eq!(found, DATASET_FORMAT_VERSION + 3);
                assert_eq!(supported, DATASET_FORMAT_VERSION);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn corrupt_seq_column_is_rejected_not_scattered() {
        let d = toy();
        // Rebuild the container with a duplicated sequence number but a valid
        // checksum: the permutation validation must catch it.
        let bytes = dataset_to_bytes(&d).unwrap();
        let back = dataset_from_bytes(&bytes).unwrap();
        assert!(back.same_content(&d));
        // A hand-corrupted container (bit flip) fails the checksum.
        for pos in [9, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(dataset_from_bytes(&bad).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn repeated_dictionary_names_are_corruption() {
        // Renames one name to an earlier one of the same length, so the framing holds
        // and only the checksum needs re-stamping.
        let rename = |mut bytes: Vec<u8>, from: &str, to: &str| {
            let at = bytes
                .windows(from.len())
                .position(|w| w == from.as_bytes())
                .expect("name is in the container");
            bytes[at..at + from.len()].copy_from_slice(to.as_bytes());
            restamp_checksum(&mut bytes);
            bytes
        };
        let assert_repeat = |result: Result<(), DataError>, what: &str| match result {
            Err(DataError::CorruptModel { message }) => {
                assert!(message.contains("repeats a name"), "{what}: {message}")
            }
            other => panic!("{what}: expected a corrupt dictionary, got {other:?}"),
        };
        let mut b = DatasetBuilder::new();
        b.observe("srcA", "objA", "valA").unwrap();
        b.observe("srcB", "objB", "valB").unwrap();
        let bytes = dataset_to_bytes(&b.build()).unwrap();
        for (first, second) in [("srcA", "srcB"), ("objA", "objB"), ("valA", "valB")] {
            let result = dataset_from_bytes(&rename(bytes.clone(), second, first));
            assert_repeat(result.map(drop), second);
        }
        let mut f = FeatureMatrixBuilder::new();
        f.set_flag(SourceId::new(0), "featA");
        f.set_flag(SourceId::new(1), "featB");
        let bytes = features_to_bytes(&f.build(2));
        let result = features_from_bytes(&rename(bytes, "featB", "featA"));
        assert_repeat(result.map(drop), "featB");
    }

    #[test]
    fn features_round_trip_bit_exact() {
        let mut b = FeatureMatrixBuilder::new();
        b.set_flag(SourceId::new(0), "PubYear=2009");
        b.set(SourceId::new(0), "citations", 34.5);
        b.set_flag(SourceId::new(2), "Study=GWAS");
        let m = b.build(4);
        let bytes = features_to_bytes(&m);
        let back = features_from_bytes(&bytes).unwrap();
        assert_eq!(back.num_sources(), m.num_sources());
        assert_eq!(back.num_features(), m.num_features());
        for s in 0..m.num_sources() {
            assert_eq!(
                back.features_of(SourceId::new(s)),
                m.features_of(SourceId::new(s))
            );
        }
        assert_eq!(back.feature_id("citations"), m.feature_id("citations"));
        for len in 0..bytes.len() {
            assert!(features_from_bytes(&bytes[..len]).is_err(), "len {len}");
        }

        let empty = FeatureMatrix::empty(3);
        let back = features_from_bytes(&features_to_bytes(&empty)).unwrap();
        assert_eq!(back.num_sources(), 3);
        assert_eq!(back.num_features(), 0);
    }

    #[test]
    fn dataset_files_round_trip_atomically() {
        let d = toy();
        let dir = std::env::temp_dir().join(format!("slimfast-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.slfd");
        write_dataset_file(&d, &path).unwrap();
        let back = read_dataset_file(&path).unwrap();
        assert!(back.same_content(&d));
        // Overwrite goes through the same atomic path.
        write_dataset_file(&back, &path).unwrap();
        assert!(read_dataset_file(&path).unwrap().same_content(&d));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slimfast-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_dir_rotates_generations_and_prunes() {
        let path = scratch_dir("gen-rotate");
        let dir = SnapshotDir::open(&path).unwrap().with_retention(2);
        assert_eq!(dir.latest().unwrap(), None);
        for i in 1..=4u64 {
            let written = dir
                .write_generation(format!("payload-{i}").as_bytes())
                .unwrap();
            assert_eq!(written, i);
        }
        // Retention keeps the newest two; the manifest is advisory and ignored by
        // the generation listing.
        assert_eq!(dir.generations().unwrap(), vec![3, 4]);
        let manifest = std::fs::read_to_string(path.join("MANIFEST")).unwrap();
        assert!(manifest.contains("latest-generation: 4"));
        assert_eq!(dir.read_generation(4).unwrap(), b"payload-4");
        let recovered = dir.recover(|b| Ok(b.to_vec())).unwrap();
        assert_eq!(recovered.generation, 4);
        assert_eq!(recovered.value, b"payload-4");
        assert!(recovered.skipped.is_empty());
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn recovery_scans_past_truncated_and_corrupt_generations() {
        let path = scratch_dir("gen-recover");
        let dir = SnapshotDir::open(&path).unwrap().with_retention(4);
        let good = dataset_to_bytes(&toy()).unwrap();
        dir.write_generation(&good).unwrap(); // gen 1: valid
        dir.write_generation(&good[..good.len() / 2]).unwrap(); // gen 2: truncated
        let mut corrupt = good.clone();
        corrupt[good.len() / 2] ^= 0x40;
        dir.write_generation(&corrupt).unwrap(); // gen 3: bit rot
        let recovered = dir.recover(dataset_from_bytes).unwrap();
        assert_eq!(recovered.generation, 1);
        assert!(recovered.value.same_content(&toy()));
        assert_eq!(
            recovered
                .skipped
                .iter()
                .map(|(g, _)| *g)
                .collect::<Vec<_>>(),
            vec![3, 2],
            "newer generations are tried (and rejected) first"
        );
        // With every generation bad, recovery is a typed error, not a panic.
        std::fs::write(dir.generation_path(1), &good[..8]).unwrap();
        let err = dir.recover(dataset_from_bytes).unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)), "{err:?}");
        std::fs::remove_dir_all(&path).unwrap();
    }

    #[test]
    fn disk_bytes_stay_below_memory_bytes() {
        // A moderately sized synthetic dataset: disk must beat the in-memory CSR
        // figure (the log is not stored and columns compress).
        let mut b = DatasetBuilder::with_capacity(20_000);
        for i in 0..20_000usize {
            let _ = b.observe(
                &format!("s{}", i % 200),
                &format!("o{}", i / 10),
                &format!("v{}", (i * 31 + i / 10 * 17) % 4),
            );
        }
        let d = b.build();
        let bytes = dataset_to_bytes(&d).unwrap();
        let disk_per_claim = bytes.len() as f64 / d.num_observations() as f64;
        let mem_per_claim = d.storage_stats().bytes_per_claim();
        assert!(
            disk_per_claim <= mem_per_claim,
            "disk {disk_per_claim:.1} B/claim vs memory {mem_per_claim:.1} B/claim"
        );
    }
}
