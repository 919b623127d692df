//! The indexed collection of source observations that constitutes a fusion instance.
//!
//! Storage is columnar: all adjacency is kept in flat CSR (compressed sparse row)
//! arrays — one contiguous entry vector plus a `u32` offset vector per index — instead
//! of nested `Vec<Vec<_>>`s. Hot loops in learning and inference walk these arrays
//! sequentially, which keeps them cache-resident and makes them trivially shardable
//! across threads by object or source ranges. Neighbor lists are sorted, so point
//! lookups ([`Dataset::value_of`]) are binary searches instead of linear scans.
//!
//! # Write side: delta log and compaction
//!
//! A built dataset is no longer frozen: [`Dataset::append_ids`] /
//! [`Dataset::append_named`] add claims and [`Dataset::evict`] removes them, both in
//! time proportional to the touched *rows* rather than the whole dataset. Mutations are
//! recorded in a delta log — materialized per-row overlays consulted transparently by
//! every slice accessor — plus a tombstone bitmap over the insertion-order observation
//! log. [`Dataset::compacted`] (and [`Dataset::compact`], in place) folds the delta
//! back into the base CSR arrays by merging: every row is copied from the base or
//! from its overlay row, and log sequence numbers are renumbered over the live claims.
//! Overlay rows are kept exactly as an indexing pass lays rows out (sorted, domains in
//! first-seen order), so the result is bitwise-identical to rebuilding from scratch
//! from the same live claims, without re-indexing the log.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;

use crate::error::DataError;
use crate::ids::{Interner, ObjectId, SourceId, ValueId};
use crate::observation::Observation;

thread_local! {
    /// Full O(dataset) passes that write the base CSR arrays ([`DatasetBuilder::build`]
    /// and [`Dataset::compacted`]) run on this thread. Diagnostics only: serving-path
    /// tests snapshot it to assert that per-claim ingest never pays an O(dataset) pass.
    static FULL_INDEX_PASSES: Cell<u64> = const { Cell::new(0) };
}

/// Number of full O(dataset) passes over the base CSR arrays the calling thread has
/// run: every [`DatasetBuilder::build`] (an indexing pass over the log) and every
/// non-trivial [`Dataset::compacted`] or [`Dataset::compact`] (a merge that copies
/// every row).
///
/// Intended for tests and benchmarks that assert incremental ingest stays off the
/// O(dataset) path. A pass runs entirely on the thread that calls it, so the count is
/// per thread: builds on other threads (a test harness running tests in parallel, a
/// background refit) never move it. It is monotone.
pub fn full_index_passes() -> u64 {
    FULL_INDEX_PASSES.with(Cell::get)
}

/// An indexed fusion instance: the observation set `Ω` together with the per-object and
/// per-source adjacency needed by learning and inference.
///
/// A `Dataset` is constructed through a [`DatasetBuilder`]; all lookups are `O(1)`,
/// `O(log n)`, or proportional to the size of the answer.
///
/// Internally the three indexes (`by_object`, `by_source`, `domains`) are CSR layouts:
/// the entries of row `i` live at `entries[offsets[i] as usize..offsets[i + 1] as usize]`,
/// a contiguous slice handed out by the accessors. `by_object` rows are sorted by
/// [`SourceId`] and `by_source` rows by [`ObjectId`]; domains stay in first-seen order
/// (the paper's `D_o` is an ordered candidate list that learning code indexes into).
/// Rows touched since the last build/compaction live in small overlay maps that the
/// accessors consult first, so appends and evictions never re-index untouched rows.
///
/// ```
/// use slimfast_data::DatasetBuilder;
///
/// let mut builder = DatasetBuilder::new();
/// builder.observe("article-1", "GIGYF2/Parkinson", "false").unwrap();
/// builder.observe("article-2", "GIGYF2/Parkinson", "false").unwrap();
/// builder.observe("article-3", "GIGYF2/Parkinson", "true").unwrap();
/// builder.observe("article-1", "GBA/Parkinson", "true").unwrap();
/// builder.observe("article-3", "GBA/Parkinson", "true").unwrap();
/// let dataset = builder.build();
///
/// assert_eq!(dataset.num_sources(), 3);
/// assert_eq!(dataset.num_objects(), 2);
/// assert_eq!(dataset.num_observations(), 5);
/// let gigyf2 = dataset.object_id("GIGYF2/Parkinson").unwrap();
/// assert_eq!(dataset.observations_for_object(gigyf2).len(), 3);
/// assert_eq!(dataset.domain(gigyf2).len(), 2); // conflicting values: {false, true}
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Insertion-order claim log. May contain tombstoned (evicted) entries; see `live`.
    observations: Vec<Observation>,
    /// Liveness bitmap aligned with `observations`; `None` means every entry is live.
    live: Option<Vec<bool>>,
    num_dead: usize,
    /// CSR entries of the object index, sorted by source within each row.
    by_object: Vec<(SourceId, ValueId)>,
    by_object_offsets: Vec<u32>,
    /// Log index (sequence number) of each `by_object` entry, aligned with `by_object`.
    /// Needed to locate a claim's log slot on eviction and to recompute domains in
    /// first-seen order among the surviving claims.
    by_object_seq: Vec<u32>,
    /// CSR entries of the source index, sorted by object within each row.
    by_source: Vec<(ObjectId, ValueId)>,
    by_source_offsets: Vec<u32>,
    /// CSR entries of the per-object candidate domains, in first-seen order.
    domains: Vec<ValueId>,
    domain_offsets: Vec<u32>,
    sources: Interner<SourceId>,
    objects: Interner<ObjectId>,
    values: Interner<ValueId>,
    num_sources: usize,
    num_objects: usize,
    num_values: usize,
    delta: DeltaLog,
    compactions: usize,
}

/// The append/evict overlay of a [`Dataset`]: full materialized replacement rows for
/// every CSR row touched since the last build/compaction, keyed by row index.
///
/// Rows are materialized (base row cloned on first touch) rather than merged lazily so
/// the slice-returning accessors stay zero-copy: an accessor either returns the base
/// CSR slice or the overlay row's slice, nothing in between.
#[derive(Debug, Clone, Default)]
struct DeltaLog {
    objects: HashMap<u32, RowOverlay>,
    sources: HashMap<u32, Vec<(ObjectId, ValueId)>>,
    domains: HashMap<u32, Vec<ValueId>>,
    /// Claims appended since the last build/compaction.
    pending: usize,
}

/// Overlay of one object row: the entries plus their log sequence numbers, kept aligned
/// and sorted by source exactly like the base CSR row.
#[derive(Debug, Clone, Default)]
struct RowOverlay {
    entries: Vec<(SourceId, ValueId)>,
    seqs: Vec<u32>,
}

impl DeltaLog {
    fn overlay_bytes(&self) -> usize {
        use std::mem::size_of;
        let entry = size_of::<(SourceId, ValueId)>();
        // Per-map-slot overhead (key + hash-table bookkeeping) is estimated at 16 bytes.
        const SLOT: usize = 16;
        let objects: usize = self
            .objects
            .values()
            .map(|ov| ov.entries.len() * entry + ov.seqs.len() * size_of::<u32>() + SLOT)
            .sum();
        let sources: usize = self
            .sources
            .values()
            .map(|row| row.len() * entry + SLOT)
            .sum();
        let domains: usize = self
            .domains
            .values()
            .map(|row| row.len() * size_of::<ValueId>() + SLOT)
            .sum();
        objects + sources + domains
    }
}

/// Heap footprint of a [`Dataset`]'s observation storage, reported by
/// [`Dataset::storage_stats`] for capacity planning and the bench harness's
/// bytes-per-claim tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Number of live observations (claims), excluding tombstoned entries.
    pub num_observations: usize,
    /// Bytes held by the insertion-order observation log (including tombstoned
    /// entries awaiting compaction).
    pub log_bytes: usize,
    /// Bytes held by the base CSR indexes (entries, sequence numbers, and offsets for
    /// `by_object`, `by_source`, and the domains).
    pub index_bytes: usize,
    /// Estimated bytes the same indexes would occupy in the pre-CSR nested
    /// `Vec<Vec<_>>` layout (one 24-byte `Vec` header per row plus the entries),
    /// for before/after comparisons.
    pub nested_equivalent_bytes: usize,
    /// Live claims (same as `num_observations`; named for delta accounting symmetry).
    pub live_claims: usize,
    /// Tombstoned claims still occupying log slots until the next compaction.
    pub dead_claims: usize,
    /// Claims appended since the last build/compaction (resident in overlay rows).
    pub pending_appends: usize,
    /// Estimated bytes held by the delta overlay rows and the liveness bitmap.
    pub delta_bytes: usize,
    /// Number of compactions this dataset has absorbed.
    pub compactions: usize,
    /// Bytes held by the source, object and value names: each vocabulary's arena,
    /// offsets and hash table. Names grow with distinct entities, not with claims, and
    /// [`StorageStats::total_bytes`] leaves them out: it is the claim storage that
    /// per-claim figures and the snapshot's disk ≤ memory check compare.
    pub name_bytes: usize,
}

impl StorageStats {
    /// Total resident bytes (log, base indexes, and delta overlay).
    pub fn total_bytes(&self) -> usize {
        self.log_bytes + self.index_bytes + self.delta_bytes
    }

    /// Resident bytes per live claim; `0.0` for an empty dataset.
    pub fn bytes_per_claim(&self) -> f64 {
        if self.num_observations == 0 {
            return 0.0;
        }
        self.total_bytes() as f64 / self.num_observations as f64
    }

    /// Estimated nested-layout bytes per claim; `0.0` for an empty dataset.
    pub fn nested_bytes_per_claim(&self) -> f64 {
        if self.num_observations == 0 {
            return 0.0;
        }
        (self.log_bytes + self.nested_equivalent_bytes) as f64 / self.num_observations as f64
    }
}

#[inline]
fn csr_range(offsets: &[u32], i: usize) -> std::ops::Range<usize> {
    offsets[i] as usize..offsets[i + 1] as usize
}

/// The CSR arrays produced by one full indexing pass ([`DatasetBuilder::build`]).
struct CsrIndex {
    by_object: Vec<(SourceId, ValueId)>,
    by_object_offsets: Vec<u32>,
    by_object_seq: Vec<u32>,
    by_source: Vec<(ObjectId, ValueId)>,
    by_source_offsets: Vec<u32>,
    domains: Vec<ValueId>,
    domain_offsets: Vec<u32>,
}

/// Sorts every CSR row in place.
fn sort_csr_rows<T: Ord>(entries: &mut [T], offsets: &[u32]) {
    for i in 0..offsets.len() - 1 {
        entries[csr_range(offsets, i)].sort_unstable();
    }
}

/// One full indexing pass: two counting sorts (count, prefix-sum, scatter) plus a
/// per-row sort, all over flat arrays — `O(|Ω| log d)` where `d` is the largest row.
fn index_observations(
    observations: &[Observation],
    num_sources: usize,
    num_objects: usize,
) -> CsrIndex {
    FULL_INDEX_PASSES.with(|passes| passes.set(passes.get() + 1));
    let num_obs = observations.len();
    assert!(
        num_obs <= u32::MAX as usize,
        "observation count overflows u32"
    );

    // Counting sort into the two CSR indexes.
    let mut by_object_offsets = vec![0u32; num_objects + 1];
    let mut by_source_offsets = vec![0u32; num_sources + 1];
    for obs in observations {
        by_object_offsets[obs.object.index() + 1] += 1;
        by_source_offsets[obs.source.index() + 1] += 1;
    }
    for i in 0..num_objects {
        by_object_offsets[i + 1] += by_object_offsets[i];
    }
    for i in 0..num_sources {
        by_source_offsets[i + 1] += by_source_offsets[i];
    }
    // Object entries carry their log index so evictions can find the log slot and
    // domains can be recomputed in first-seen order; the triple sorts by source first
    // (sources are unique within a row), matching the plain pair sort.
    let mut object_entries = vec![(SourceId::new(0), ValueId::new(0), 0u32); num_obs];
    let mut by_source = vec![(ObjectId::new(0), ValueId::new(0)); num_obs];
    let mut object_cursor = by_object_offsets.clone();
    let mut source_cursor = by_source_offsets.clone();
    for (seq, obs) in observations.iter().enumerate() {
        let oc = &mut object_cursor[obs.object.index()];
        object_entries[*oc as usize] = (obs.source, obs.value, seq as u32);
        *oc += 1;
        let sc = &mut source_cursor[obs.source.index()];
        by_source[*sc as usize] = (obs.object, obs.value);
        *sc += 1;
    }
    // Sort each row: (source, object) pairs are unique, so rows end up keyed by
    // their first component, enabling binary-search lookups.
    sort_csr_rows(&mut object_entries, &by_object_offsets);
    sort_csr_rows(&mut by_source, &by_source_offsets);
    let mut by_object = Vec::with_capacity(num_obs);
    let mut by_object_seq = Vec::with_capacity(num_obs);
    for &(s, v, seq) in &object_entries {
        by_object.push((s, v));
        by_object_seq.push(seq);
    }

    // Domains in first-seen order: walk the insertion log, deduplicating against the
    // (small) partial domain of each object.
    let mut domain_offsets = vec![0u32; num_objects + 1];
    let mut domain_rows: Vec<Vec<ValueId>> = vec![Vec::new(); num_objects];
    for obs in observations {
        let row = &mut domain_rows[obs.object.index()];
        if !row.contains(&obs.value) {
            row.push(obs.value);
        }
    }
    let mut domains = Vec::with_capacity(num_obs.min(num_objects * 2));
    for (i, row) in domain_rows.iter().enumerate() {
        domains.extend_from_slice(row);
        domain_offsets[i + 1] = domains.len() as u32;
    }

    CsrIndex {
        by_object,
        by_object_offsets,
        by_object_seq,
        by_source,
        by_source_offsets,
        domains,
        domain_offsets,
    }
}

/// Copies CSR rows `0..rows` into new arrays, taking each row from `overlay` when it
/// holds one and from the base otherwise; rows past the base's end are empty unless
/// overlaid. Untouched base rows between two overlay rows move in one slice copy,
/// their offsets shifted by the overlay rows' net growth.
fn merge_rows<T: Copy, V>(
    base: &[T],
    base_offsets: &[u32],
    rows: usize,
    overlay: &HashMap<u32, V>,
    overlay_row: impl Fn(&V) -> &[T],
) -> (Vec<T>, Vec<u32>) {
    let base_rows = base_offsets.len().saturating_sub(1);
    let base_row_len = |row: usize| {
        if row < base_rows {
            csr_range(base_offsets, row).len()
        } else {
            0
        }
    };
    let mut touched: Vec<(usize, &[T])> = overlay
        .iter()
        .map(|(&row, v)| (row as usize, overlay_row(v)))
        .collect();
    touched.sort_unstable_by_key(|&(row, _)| row);
    let total = touched.iter().fold(base.len(), |total, &(row, entries)| {
        total + entries.len() - base_row_len(row)
    });

    let mut entries = Vec::with_capacity(total);
    let mut offsets = Vec::with_capacity(rows + 1);
    offsets.push(0u32);
    let copy_base = |entries: &mut Vec<T>, offsets: &mut Vec<u32>, span: Range<usize>| {
        let end = span.end.min(base_rows);
        if span.start < end {
            let (lo, hi) = (base_offsets[span.start], base_offsets[end]);
            let at = entries.len() as u32;
            entries.extend_from_slice(&base[lo as usize..hi as usize]);
            offsets.extend(
                base_offsets[span.start + 1..=end]
                    .iter()
                    .map(|&o| o - lo + at),
            );
        }
        let filled = entries.len() as u32;
        offsets.extend(std::iter::repeat(filled).take(span.end - span.start.max(end)));
    };
    let mut next = 0;
    for (row, replacement) in touched {
        assert!(row < rows, "overlay row {row} outside {rows} rows");
        copy_base(&mut entries, &mut offsets, next..row);
        entries.extend_from_slice(replacement);
        offsets.push(entries.len() as u32);
        next = row + 1;
    }
    copy_base(&mut entries, &mut offsets, next..rows);
    (entries, offsets)
}

impl Dataset {
    /// Number of distinct sources `|S|`.
    pub fn num_sources(&self) -> usize {
        self.num_sources
    }

    /// Number of distinct objects `|O|`.
    pub fn num_objects(&self) -> usize {
        self.num_objects
    }

    /// Number of distinct values across all objects. Monotone: evicting every claim of
    /// a value does not retire its handle (fitted models and labels may still hold it).
    pub fn num_values(&self) -> usize {
        self.num_values
    }

    /// Number of live observations `|Ω|` (excluding tombstoned entries).
    pub fn num_observations(&self) -> usize {
        self.observations.len() - self.num_dead
    }

    /// The raw insertion-order claim log. After [`Dataset::evict`] this may contain
    /// tombstoned entries that no accessor reports; use
    /// [`Dataset::live_observations`] to iterate only the live claims. Compaction
    /// drops the tombstones.
    pub fn observations(&self) -> &[Observation] {
        &self.observations
    }

    /// Iterates the live observations in insertion order, skipping tombstoned entries.
    pub fn live_observations(&self) -> impl Iterator<Item = &Observation> + '_ {
        self.observations
            .iter()
            .enumerate()
            .filter(move |&(i, _)| match &self.live {
                Some(flags) => flags[i],
                None => true,
            })
            .map(|(_, obs)| obs)
    }

    #[inline]
    fn base_object_row(&self, i: usize) -> &[(SourceId, ValueId)] {
        if i + 1 < self.by_object_offsets.len() {
            &self.by_object[csr_range(&self.by_object_offsets, i)]
        } else {
            &[]
        }
    }

    #[inline]
    fn base_object_seqs(&self, i: usize) -> &[u32] {
        if i + 1 < self.by_object_offsets.len() {
            &self.by_object_seq[csr_range(&self.by_object_offsets, i)]
        } else {
            &[]
        }
    }

    #[inline]
    fn base_source_row(&self, i: usize) -> &[(ObjectId, ValueId)] {
        if i + 1 < self.by_source_offsets.len() {
            &self.by_source[csr_range(&self.by_source_offsets, i)]
        } else {
            &[]
        }
    }

    #[inline]
    fn base_domain_row(&self, i: usize) -> &[ValueId] {
        if i + 1 < self.domain_offsets.len() {
            &self.domains[csr_range(&self.domain_offsets, i)]
        } else {
            &[]
        }
    }

    /// The observations `(source, value)` made about object `o`, sorted by source handle.
    pub fn observations_for_object(&self, o: ObjectId) -> &[(SourceId, ValueId)] {
        if !self.delta.objects.is_empty() {
            if let Some(ov) = self.delta.objects.get(&(o.index() as u32)) {
                return &ov.entries;
            }
        }
        self.base_object_row(o.index())
    }

    /// Log sequence numbers aligned with [`Dataset::observations_for_object`].
    fn object_row_seqs(&self, i: usize) -> &[u32] {
        if !self.delta.objects.is_empty() {
            if let Some(ov) = self.delta.objects.get(&(i as u32)) {
                return &ov.seqs;
            }
        }
        self.base_object_seqs(i)
    }

    /// The observations `(object, value)` made by source `s`, sorted by object handle.
    pub fn observations_by_source(&self, s: SourceId) -> &[(ObjectId, ValueId)] {
        if !self.delta.sources.is_empty() {
            if let Some(row) = self.delta.sources.get(&(s.index() as u32)) {
                return row;
            }
        }
        self.base_source_row(s.index())
    }

    /// The distinct values `D_o` that sources assigned to object `o`, in first-seen order.
    pub fn domain(&self, o: ObjectId) -> &[ValueId] {
        if !self.delta.domains.is_empty() {
            if let Some(row) = self.delta.domains.get(&(o.index() as u32)) {
                return row;
            }
        }
        self.base_domain_row(o.index())
    }

    /// The value source `s` asserted for object `o`, if any. Binary search over the
    /// source's sorted neighbor list.
    pub fn value_of(&self, s: SourceId, o: ObjectId) -> Option<ValueId> {
        let row = self.observations_by_source(s);
        row.binary_search_by_key(&o, |&(obj, _)| obj)
            .ok()
            .map(|i| row[i].1)
    }

    /// Fraction of the `|S| × |O|` source/object grid that carries an observation
    /// (the paper's *density*, the empirical estimate of the selectivity `p`).
    pub fn density(&self) -> f64 {
        let cells = self.num_sources() * self.num_objects();
        if cells == 0 {
            return 0.0;
        }
        self.num_observations() as f64 / cells as f64
    }

    /// Average number of observations per object.
    pub fn avg_observations_per_object(&self) -> f64 {
        if self.num_objects() == 0 {
            return 0.0;
        }
        self.num_observations() as f64 / self.num_objects() as f64
    }

    /// Average number of observations per source.
    pub fn avg_observations_per_source(&self) -> f64 {
        if self.num_sources() == 0 {
            return 0.0;
        }
        self.num_observations() as f64 / self.num_sources() as f64
    }

    /// Objects for which at least two distinct values were reported.
    pub fn conflicting_objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.num_objects())
            .filter(|&i| self.domain(ObjectId::new(i)).len() > 1)
            .map(ObjectId::new)
    }

    /// Iterates over every object handle.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.num_objects()).map(ObjectId::new)
    }

    /// Iterates over every source handle.
    pub fn source_ids(&self) -> impl Iterator<Item = SourceId> {
        (0..self.num_sources()).map(SourceId::new)
    }

    /// Name of a source, when the dataset was built from named entities.
    pub fn source_name(&self, s: SourceId) -> Option<&str> {
        self.sources.name(s)
    }

    /// Name of an object, when the dataset was built from named entities.
    pub fn object_name(&self, o: ObjectId) -> Option<&str> {
        self.objects.name(o)
    }

    /// Name of a value, when the dataset was built from named entities.
    pub fn value_name(&self, v: ValueId) -> Option<&str> {
        self.values.name(v)
    }

    /// Looks up a source handle by name.
    pub fn source_id(&self, name: &str) -> Option<SourceId> {
        self.sources.get(name)
    }

    /// Looks up an object handle by name.
    pub fn object_id(&self, name: &str) -> Option<ObjectId> {
        self.objects.get(name)
    }

    /// Looks up a value handle by name.
    pub fn value_id(&self, name: &str) -> Option<ValueId> {
        self.values.get(name)
    }

    /// Interns a source name, assigning a fresh handle if the name is new. Extends the
    /// source count exactly like [`DatasetBuilder::intern_source`].
    pub fn intern_source(&mut self, name: &str) -> SourceId {
        let s = self.sources.intern(name);
        self.num_sources = self.num_sources.max(s.index() + 1);
        s
    }

    /// Interns an object name, assigning a fresh handle if the name is new.
    pub fn intern_object(&mut self, name: &str) -> ObjectId {
        let o = self.objects.intern(name);
        self.num_objects = self.num_objects.max(o.index() + 1);
        o
    }

    /// Interns a value name, assigning a fresh handle if the name is new.
    pub fn intern_value(&mut self, name: &str) -> ValueId {
        let v = self.values.intern(name);
        self.num_values = self.num_values.max(v.index() + 1);
        v
    }

    /// Appends one claim by name, interning any new entities. Returns the appended
    /// observation, or `None` for an idempotent duplicate. Touched rows go to the delta
    /// overlay — cost is O(touched rows), never O(dataset).
    ///
    /// Fails with [`DataError::ConflictingObservation`] when the source already asserts
    /// a different value for the object; the dataset is unchanged in that case.
    pub fn append_named(
        &mut self,
        source: &str,
        object: &str,
        value: &str,
    ) -> Result<Option<Observation>, DataError> {
        let s = self.intern_source(source);
        let o = self.intern_object(object);
        let v = self.intern_value(value);
        self.append_ids(s, o, v)
    }

    /// Appends one claim by handle. Returns the appended observation, or `None` for an
    /// idempotent duplicate. Handles beyond the current entity counts implicitly extend
    /// them (like [`DatasetBuilder::observe_ids`]).
    ///
    /// Fails with [`DataError::ConflictingObservation`] when the source already asserts
    /// a different value for the object; the dataset is unchanged in that case.
    pub fn append_ids(
        &mut self,
        source: SourceId,
        object: ObjectId,
        value: ValueId,
    ) -> Result<Option<Observation>, DataError> {
        if let Some(existing) = self.value_of(source, object) {
            if existing == value {
                return Ok(None);
            }
            return Err(DataError::ConflictingObservation {
                source: source.index(),
                object: object.index(),
            });
        }
        assert!(
            self.observations.len() < u32::MAX as usize,
            "observation log overflows the u32 sequence space; compact first"
        );
        let seq = self.observations.len() as u32;
        let obs = Observation::new(source, object, value);
        self.observations.push(obs);
        if let Some(flags) = &mut self.live {
            flags.push(true);
        }

        let okey = object.index() as u32;
        if !self.delta.objects.contains_key(&okey) {
            let entries = self.base_object_row(object.index()).to_vec();
            let seqs = self.base_object_seqs(object.index()).to_vec();
            self.delta
                .objects
                .insert(okey, RowOverlay { entries, seqs });
        }
        let ov = self.delta.objects.get_mut(&okey).expect("overlay ensured");
        let pos = ov.entries.partition_point(|&(s, _)| s < source);
        ov.entries.insert(pos, (source, value));
        ov.seqs.insert(pos, seq);

        let skey = source.index() as u32;
        if !self.delta.sources.contains_key(&skey) {
            let row = self.base_source_row(source.index()).to_vec();
            self.delta.sources.insert(skey, row);
        }
        let row = self.delta.sources.get_mut(&skey).expect("overlay ensured");
        let pos = row.partition_point(|&(o, _)| o < object);
        row.insert(pos, (object, value));

        if !self.domain(object).contains(&value) {
            if !self.delta.domains.contains_key(&okey) {
                let row = self.base_domain_row(object.index()).to_vec();
                self.delta.domains.insert(okey, row);
            }
            self.delta
                .domains
                .get_mut(&okey)
                .expect("overlay ensured")
                .push(value);
        }

        self.num_sources = self.num_sources.max(source.index() + 1);
        self.num_objects = self.num_objects.max(object.index() + 1);
        self.num_values = self.num_values.max(value.index() + 1);
        self.delta.pending += 1;
        Ok(Some(obs))
    }

    /// Evicts the claim source `s` made about object `o`, if one is live. Returns
    /// whether a claim was removed. Equivalent to a one-element [`Dataset::evict_batch`];
    /// window maintenance that retires several claims at once should prefer the batch
    /// form, which clones and recomputes each touched row once per batch instead of once
    /// per claim.
    pub fn evict(&mut self, source: SourceId, object: ObjectId) -> bool {
        self.evict_batch(&[(source, object)]) == 1
    }

    /// Evicts every live claim in `claims` (a `(source, object)` pair per claim) and
    /// returns how many were actually removed — pairs with no live claim, and duplicate
    /// pairs beyond the first, are skipped.
    ///
    /// Cost model: claims are grouped by object, so each touched object row is moved to
    /// the delta overlay (one clone of the base row) and has its domain recomputed in
    /// first-seen order **once per batch**, however many of its claims are evicted;
    /// likewise each touched source row is cloned once. Log entries are tombstoned and
    /// dropped at the next compaction; cost is O(touched rows + batch · log batch), never
    /// O(dataset). The result is state-identical to evicting the pairs one at a time in
    /// order.
    pub fn evict_batch(&mut self, claims: &[(SourceId, ObjectId)]) -> usize {
        if claims.is_empty() {
            return 0;
        }
        // Group by object: one overlay ensure + one domain recompute per touched row.
        let mut by_object: Vec<(ObjectId, SourceId)> =
            claims.iter().map(|&(s, o)| (o, s)).collect();
        by_object.sort_unstable();
        let mut removed: Vec<(SourceId, ObjectId, ValueId, u32)> = Vec::new();
        let mut i = 0;
        while i < by_object.len() {
            let object = by_object[i].0;
            let run_end = by_object[i..]
                .iter()
                .position(|&(o, _)| o != object)
                .map_or(by_object.len(), |p| i + p);
            let oi = object.index();
            let okey = oi as u32;
            let run_removed_start = removed.len();
            for &(_, source) in &by_object[i..run_end] {
                let (pos, value, seq) = {
                    let row = self.observations_for_object(object);
                    match row.binary_search_by_key(&source, |&(s, _)| s) {
                        Ok(pos) => (pos, row[pos].1, self.object_row_seqs(oi)[pos]),
                        Err(_) => continue,
                    }
                };
                if !self.delta.objects.contains_key(&okey) {
                    let entries = self.base_object_row(oi).to_vec();
                    let seqs = self.base_object_seqs(oi).to_vec();
                    self.delta
                        .objects
                        .insert(okey, RowOverlay { entries, seqs });
                }
                let ov = self.delta.objects.get_mut(&okey).expect("overlay ensured");
                ov.entries.remove(pos);
                ov.seqs.remove(pos);
                removed.push((source, object, value, seq));
            }
            if removed.len() > run_removed_start {
                // Recompute the domain in first-seen (log) order over the surviving
                // claims — once for the whole batch, not per evicted claim.
                let ov = self.delta.objects.get(&okey).expect("overlay ensured");
                let mut ordered: Vec<(u32, ValueId)> = ov
                    .seqs
                    .iter()
                    .copied()
                    .zip(ov.entries.iter().map(|&(_, v)| v))
                    .collect();
                ordered.sort_unstable_by_key(|&(s, _)| s);
                let mut dom: Vec<ValueId> = Vec::new();
                for (_, v) in ordered {
                    if !dom.contains(&v) {
                        dom.push(v);
                    }
                }
                self.delta.domains.insert(okey, dom);
            }
            i = run_end;
        }
        if removed.is_empty() {
            return 0;
        }

        // Second pass, grouped by source: one overlay ensure per touched source row.
        let mut by_source: Vec<(SourceId, ObjectId, ValueId)> =
            removed.iter().map(|&(s, o, v, _)| (s, o, v)).collect();
        by_source.sort_unstable();
        for &(source, object, value) in &by_source {
            let skey = source.index() as u32;
            if !self.delta.sources.contains_key(&skey) {
                let row = self.base_source_row(source.index()).to_vec();
                self.delta.sources.insert(skey, row);
            }
            let row = self.delta.sources.get_mut(&skey).expect("overlay ensured");
            if let Ok(pos) = row.binary_search_by_key(&object, |&(o, _)| o) {
                debug_assert_eq!(row[pos].1, value);
                row.remove(pos);
            }
        }

        let n = self.observations.len();
        let live = self.live.get_or_insert_with(|| vec![true; n]);
        for &(_, _, _, seq) in &removed {
            live[seq as usize] = false;
        }
        self.num_dead += removed.len();
        removed.len()
    }

    /// Claims appended since the last build/compaction (the delta log's size).
    pub fn pending_appends(&self) -> usize {
        self.delta.pending
    }

    /// Tombstoned claims still occupying log slots until the next compaction.
    pub fn dead_claims(&self) -> usize {
        self.num_dead
    }

    /// Number of compactions this dataset has absorbed.
    pub fn compaction_count(&self) -> usize {
        self.compactions
    }

    /// Whether the dataset carries no delta: every accessor reads base CSR arrays,
    /// which have a row for every handle. A name interned since the last compaction
    /// without a claim (a label for an object no source has named) has no base row
    /// yet, so it leaves the dataset uncompacted until [`Dataset::compact`] adds one.
    pub fn is_compacted(&self) -> bool {
        self.delta.pending == 0
            && self.num_dead == 0
            && self.delta.objects.is_empty()
            && self.delta.sources.is_empty()
            && self.delta.domains.is_empty()
            && self.by_object_offsets.len() == self.num_objects + 1
            && self.by_source_offsets.len() == self.num_sources + 1
    }

    /// The dataset with its delta log folded into the base CSR arrays: tombstoned log
    /// entries dropped, every overlay row in place of its base row, and the log
    /// sequence numbers renumbered to the live claims' positions. A dataset without
    /// delta comes back as a plain clone.
    ///
    /// The result is bitwise-identical, on every array, to a dataset built from
    /// scratch from the same live claims under the same vocabulary, with the
    /// compaction counter one higher. It is a merge, not a re-index: each object,
    /// source and domain row is copied from the base or from its overlay row (runs of
    /// untouched rows in one slice copy), and when tombstones exist the sequence column
    /// is renumbered by a prefix-sum rank over the liveness bitmap. Still O(dataset),
    /// so it counts in [`full_index_passes`].
    pub fn compacted(&self) -> Dataset {
        if self.is_compacted() {
            return self.clone();
        }
        FULL_INDEX_PASSES.with(|passes| passes.set(passes.get() + 1));
        let mut observations = Vec::with_capacity(self.num_observations());
        observations.extend(self.live_observations().copied());
        let (by_object, by_object_offsets) = merge_rows(
            &self.by_object,
            &self.by_object_offsets,
            self.num_objects,
            &self.delta.objects,
            |row| &row.entries,
        );
        let (mut by_object_seq, _) = merge_rows(
            &self.by_object_seq,
            &self.by_object_offsets,
            self.num_objects,
            &self.delta.objects,
            |row| &row.seqs,
        );
        if let Some(live) = &self.live {
            // A live claim's new sequence number is the count of live claims before it.
            let mut rank = Vec::with_capacity(live.len());
            let mut next = 0u32;
            for &alive in live {
                rank.push(next);
                next += u32::from(alive);
            }
            for seq in &mut by_object_seq {
                *seq = rank[*seq as usize];
            }
        }
        let (by_source, by_source_offsets) = merge_rows(
            &self.by_source,
            &self.by_source_offsets,
            self.num_sources,
            &self.delta.sources,
            |row| row,
        );
        let (domains, domain_offsets) = merge_rows(
            &self.domains,
            &self.domain_offsets,
            self.num_objects,
            &self.delta.domains,
            |row| row,
        );
        Dataset {
            observations,
            live: None,
            num_dead: 0,
            by_object,
            by_object_offsets,
            by_object_seq,
            by_source,
            by_source_offsets,
            domains,
            domain_offsets,
            sources: self.sources.clone(),
            objects: self.objects.clone(),
            values: self.values.clone(),
            num_sources: self.num_sources,
            num_objects: self.num_objects,
            num_values: self.num_values,
            delta: DeltaLog::default(),
            compactions: self.compactions + 1,
        }
    }

    /// Folds the delta log into the base CSR arrays in place: `*self` becomes
    /// [`Dataset::compacted`]. No-op when there is no delta.
    pub fn compact(&mut self) {
        if !self.is_compacted() {
            *self = self.compacted();
        }
    }

    /// Structural equality of the live content: entity counts, live claim log, every
    /// object row, domain, and source row, and the three name vocabularies.
    ///
    /// Ignores internal bookkeeping that legitimately differs between a dataset grown
    /// incrementally and one built in a single pass: tombstone layout, overlay state,
    /// compaction counters, and the monotone `num_values` headroom (an incremental
    /// dataset remembers values that only ever appeared in since-evicted claims).
    pub fn same_content(&self, other: &Dataset) -> bool {
        if self.num_sources() != other.num_sources()
            || self.num_objects() != other.num_objects()
            || self.num_observations() != other.num_observations()
        {
            return false;
        }
        if !self.live_observations().eq(other.live_observations()) {
            return false;
        }
        for i in 0..self.num_objects() {
            let o = ObjectId::new(i);
            if self.observations_for_object(o) != other.observations_for_object(o)
                || self.domain(o) != other.domain(o)
            {
                return false;
            }
        }
        for i in 0..self.num_sources() {
            let s = SourceId::new(i);
            if self.observations_by_source(s) != other.observations_by_source(s) {
                return false;
            }
        }
        let names = |a: &Interner<SourceId>, b: &Interner<SourceId>| {
            a.iter().map(|(_, n)| n).eq(b.iter().map(|(_, n)| n))
        };
        names(&self.sources, &other.sources)
            && self
                .objects
                .iter()
                .map(|(_, n)| n)
                .eq(other.objects.iter().map(|(_, n)| n))
            && self
                .values
                .iter()
                .map(|(_, n)| n)
                .eq(other.values.iter().map(|(_, n)| n))
    }

    /// Heap footprint of the observation log, CSR indexes, and delta overlay, with an
    /// estimate of the equivalent nested-`Vec` layout for before/after comparisons.
    pub fn storage_stats(&self) -> StorageStats {
        use std::mem::size_of;
        let entry = size_of::<(SourceId, ValueId)>();
        let log_bytes = self.observations.len() * size_of::<Observation>();
        let index_bytes = self.by_object.len() * entry
            + self.by_source.len() * entry
            + self.domains.len() * size_of::<ValueId>()
            + (self.by_object_offsets.len()
                + self.by_source_offsets.len()
                + self.domain_offsets.len()
                + self.by_object_seq.len())
                * size_of::<u32>();
        // The pre-CSR layout kept one Vec per object row, per source row, and per
        // domain row; a Vec header is 3 words (ptr, len, cap) = 24 bytes on 64-bit.
        const VEC_HEADER: usize = 24;
        let nested_equivalent_bytes = self.by_object.len() * entry
            + self.by_source.len() * entry
            + self.domains.len() * size_of::<ValueId>()
            + (2 * self.num_objects() + self.num_sources()) * VEC_HEADER;
        let delta_bytes =
            self.delta.overlay_bytes() + self.live.as_ref().map_or(0, |flags| flags.len());
        StorageStats {
            num_observations: self.num_observations(),
            log_bytes,
            index_bytes,
            nested_equivalent_bytes,
            live_claims: self.num_observations(),
            dead_claims: self.num_dead,
            pending_appends: self.delta.pending,
            delta_bytes,
            compactions: self.compactions,
            name_bytes: self.sources.heap_bytes()
                + self.objects.heap_bytes()
                + self.values.heap_bytes(),
        }
    }

    /// Reopens the dataset as a [`DatasetBuilder`] that already contains every *live*
    /// observation and the full source/object/value vocabulary, so new claims can be
    /// appended as a *delta* without disturbing existing handles.
    ///
    /// Prefer [`Dataset::append_named`] / [`Dataset::append_ids`] for streaming
    /// deltas — they cost O(touched rows) instead of this O(dataset) copy. `to_builder`
    /// remains the right tool when a bulk rewrite is intended anyway.
    pub fn to_builder(&self) -> DatasetBuilder {
        let mut seen: HashMap<(SourceId, ObjectId), ValueId> =
            HashMap::with_capacity(self.num_observations() * 2);
        let mut observations = Vec::with_capacity(self.num_observations() * 2);
        for obs in self.live_observations() {
            seen.insert((obs.source, obs.object), obs.value);
            observations.push(*obs);
        }
        DatasetBuilder {
            observations,
            seen,
            sources: self.sources.clone(),
            objects: self.objects.clone(),
            values: self.values.clone(),
            num_sources: self.num_sources(),
            num_objects: self.num_objects(),
            num_values: self.num_values(),
        }
    }

    /// Returns a new dataset restricted to the given sources (handles are re-numbered
    /// densely in sorted order, objects left intact). Used by the
    /// source-quality-initialization experiment (Figure 7), which hides a fraction of the
    /// sources during training.
    ///
    /// Source names survive the restriction: when every kept source is named, the
    /// restricted dataset maps the same names to the re-numbered handles.
    pub fn restrict_sources(&self, keep: &[SourceId]) -> (Dataset, Vec<SourceId>) {
        let mut keep_sorted: Vec<SourceId> = keep.to_vec();
        keep_sorted.sort_unstable();
        keep_sorted.dedup();
        // Dense remap table: old source index -> new handle. O(1) per observation,
        // no hashing on the hot path.
        let mut remap: Vec<Option<SourceId>> = vec![None; self.num_sources()];
        for (new_idx, &old) in keep_sorted.iter().enumerate() {
            if let Some(slot) = remap.get_mut(old.index()) {
                *slot = Some(SourceId::new(new_idx));
            }
        }
        // Only the claim-sized vectors need capacity here: all three interners are
        // replaced below (clones or re-interned kept names).
        let mut builder = DatasetBuilder {
            observations: Vec::with_capacity(self.num_observations()),
            seen: HashMap::with_capacity(self.num_observations()),
            ..DatasetBuilder::default()
        };
        // Preserve object and value vocabularies so handles stay comparable across the
        // restricted and full datasets; carry source names over when the kept sources
        // are all named so name lookups keep working.
        builder.objects = self.objects.clone();
        builder.values = self.values.clone();
        builder.num_objects = self.num_objects();
        builder.num_values = self.num_values();
        if keep_sorted.iter().all(|&s| self.sources.name(s).is_some()) {
            for &old in &keep_sorted {
                let name = self.sources.name(old).expect("checked above");
                builder.sources.intern(name);
            }
        }
        builder.num_sources = keep_sorted.len();
        for obs in self.live_observations() {
            if let Some(Some(new_source)) = remap.get(obs.source.index()) {
                builder
                    .observe_ids(*new_source, obs.object, obs.value)
                    .expect("restricting sources cannot introduce conflicts");
            }
        }
        (builder.build(), keep_sorted)
    }
}

/// Borrowed view of a compacted [`Dataset`]'s base CSR arrays and vocabularies,
/// consumed by the snapshot writer (`crate::snapshot`). Only meaningful when
/// [`Dataset::is_compacted`] holds — overlay rows are not represented.
pub(crate) struct DatasetColumns<'a> {
    pub by_object: &'a [(SourceId, ValueId)],
    pub by_object_offsets: &'a [u32],
    pub by_object_seq: &'a [u32],
    pub by_source: &'a [(ObjectId, ValueId)],
    pub by_source_offsets: &'a [u32],
    pub domains: &'a [ValueId],
    pub domain_offsets: &'a [u32],
    pub sources: &'a Interner<SourceId>,
    pub objects: &'a Interner<ObjectId>,
    pub values: &'a Interner<ValueId>,
    pub num_sources: usize,
    pub num_objects: usize,
    pub num_values: usize,
    pub compactions: usize,
}

/// Owned CSR arrays and vocabularies of a compacted dataset, produced by the snapshot
/// reader (`crate::snapshot`) and assembled with [`Dataset::from_parts`].
pub(crate) struct DatasetParts {
    pub observations: Vec<Observation>,
    pub by_object: Vec<(SourceId, ValueId)>,
    pub by_object_offsets: Vec<u32>,
    pub by_object_seq: Vec<u32>,
    pub by_source: Vec<(ObjectId, ValueId)>,
    pub by_source_offsets: Vec<u32>,
    pub domains: Vec<ValueId>,
    pub domain_offsets: Vec<u32>,
    pub sources: Interner<SourceId>,
    pub objects: Interner<ObjectId>,
    pub values: Interner<ValueId>,
    pub num_sources: usize,
    pub num_objects: usize,
    pub num_values: usize,
    pub compactions: usize,
}

impl Dataset {
    /// Borrows the base CSR arrays and vocabularies for columnar serialization.
    /// Callers must hold [`Dataset::is_compacted`]; the view ignores any delta.
    pub(crate) fn columns(&self) -> DatasetColumns<'_> {
        debug_assert!(
            self.is_compacted(),
            "columns() requires a compacted dataset"
        );
        DatasetColumns {
            by_object: &self.by_object,
            by_object_offsets: &self.by_object_offsets,
            by_object_seq: &self.by_object_seq,
            by_source: &self.by_source,
            by_source_offsets: &self.by_source_offsets,
            domains: &self.domains,
            domain_offsets: &self.domain_offsets,
            sources: &self.sources,
            objects: &self.objects,
            values: &self.values,
            num_sources: self.num_sources,
            num_objects: self.num_objects,
            num_values: self.num_values,
            compactions: self.compactions,
        }
    }

    /// Assembles a compacted dataset directly from its CSR arrays, bypassing the
    /// indexing pass. The caller (the snapshot reader) is responsible for the CSR
    /// invariants: row slices sorted by their first component, offsets covering the
    /// entry vectors, and `observations` aligned with `by_object_seq`.
    pub(crate) fn from_parts(parts: DatasetParts) -> Dataset {
        Dataset {
            observations: parts.observations,
            live: None,
            num_dead: 0,
            by_object: parts.by_object,
            by_object_offsets: parts.by_object_offsets,
            by_object_seq: parts.by_object_seq,
            by_source: parts.by_source,
            by_source_offsets: parts.by_source_offsets,
            domains: parts.domains,
            domain_offsets: parts.domain_offsets,
            sources: parts.sources,
            objects: parts.objects,
            values: parts.values,
            num_sources: parts.num_sources,
            num_objects: parts.num_objects,
            num_values: parts.num_values,
            delta: DeltaLog::default(),
            compactions: parts.compactions,
        }
    }
}

/// Incremental builder of a [`Dataset`].
///
/// Observations can be registered either by name ([`DatasetBuilder::observe`]) or by
/// pre-assigned handles ([`DatasetBuilder::observe_ids`]); the two styles may be mixed as
/// long as handle collisions are acceptable to the caller.
#[derive(Debug, Clone, Default)]
pub struct DatasetBuilder {
    observations: Vec<Observation>,
    seen: HashMap<(SourceId, ObjectId), ValueId>,
    sources: Interner<SourceId>,
    objects: Interner<ObjectId>,
    values: Interner<ValueId>,
    num_sources: usize,
    num_objects: usize,
    num_values: usize,
}

impl DatasetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with capacity for `n` observations: the observation log,
    /// the duplicate-detection map, and the name interners are all pre-reserved so bulk
    /// ingestion does not reallocate early. Entity counts are far smaller than claim
    /// counts, so the interner reservations are capped — real vocabularies beyond the
    /// cap grow amortized as usual, and the built dataset never carries multi-megabyte
    /// empty interner tables.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            observations: Vec::with_capacity(n),
            seen: HashMap::with_capacity(n),
            sources: Interner::with_capacity(n.min(1024)),
            objects: Interner::with_capacity(n.min(1024)),
            values: Interner::with_capacity(n.min(256)),
            ..Self::default()
        }
    }

    /// Registers the claim that `source` asserts `value` for `object`, interning all names.
    ///
    /// Returns the created [`Observation`]. Exact duplicates are ignored; a source asserting
    /// two *different* values for the same object is rejected with
    /// [`DataError::ConflictingObservation`].
    pub fn observe(
        &mut self,
        source: &str,
        object: &str,
        value: &str,
    ) -> Result<Observation, DataError> {
        let s = self.sources.intern(source);
        let o = self.objects.intern(object);
        let v = self.values.intern(value);
        self.observe_ids(s, o, v)
    }

    /// Registers a claim using pre-assigned handles.
    pub fn observe_ids(
        &mut self,
        source: SourceId,
        object: ObjectId,
        value: ValueId,
    ) -> Result<Observation, DataError> {
        if let Some(&existing) = self.seen.get(&(source, object)) {
            if existing == value {
                return Ok(Observation::new(source, object, value));
            }
            return Err(DataError::ConflictingObservation {
                source: source.index(),
                object: object.index(),
            });
        }
        self.seen.insert((source, object), value);
        let obs = Observation::new(source, object, value);
        self.observations.push(obs);
        self.num_sources = self.num_sources.max(source.index() + 1);
        self.num_objects = self.num_objects.max(object.index() + 1);
        self.num_values = self.num_values.max(value.index() + 1);
        Ok(obs)
    }

    /// Interns an object name without adding an observation (useful to reserve handles for
    /// objects that only appear in ground truth).
    pub fn intern_object(&mut self, object: &str) -> ObjectId {
        let o = self.objects.intern(object);
        self.num_objects = self.num_objects.max(o.index() + 1);
        o
    }

    /// Interns a source name without adding an observation.
    pub fn intern_source(&mut self, source: &str) -> SourceId {
        let s = self.sources.intern(source);
        self.num_sources = self.num_sources.max(s.index() + 1);
        s
    }

    /// Interns a value name without adding an observation.
    pub fn intern_value(&mut self, value: &str) -> ValueId {
        let v = self.values.intern(value);
        self.num_values = self.num_values.max(v.index() + 1);
        v
    }

    /// Ensures the dataset will report at least `n` sources even if some have no claims.
    pub fn reserve_sources(&mut self, n: usize) {
        self.num_sources = self.num_sources.max(n);
    }

    /// Ensures the dataset will report at least `n` objects even if some have no claims.
    pub fn reserve_objects(&mut self, n: usize) {
        self.num_objects = self.num_objects.max(n);
    }

    /// Number of observations registered so far.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Number of distinct sources registered so far (including reserved handles).
    pub fn num_sources(&self) -> usize {
        self.num_sources.max(self.sources.len())
    }

    /// Number of distinct objects registered so far (including reserved handles).
    pub fn num_objects(&self) -> usize {
        self.num_objects.max(self.objects.len())
    }

    /// Whether no observations have been registered.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Finalizes the builder into an immutable, indexed [`Dataset`].
    ///
    /// Indexing is two counting-sort passes (count, prefix-sum, scatter) followed by a
    /// per-row sort, all over flat arrays — `O(|Ω| log d)` where `d` is the largest row.
    pub fn build(self) -> Dataset {
        let num_sources = self.num_sources.max(self.sources.len());
        let num_objects = self.num_objects.max(self.objects.len());
        let num_values = self.num_values.max(self.values.len());
        let index = index_observations(&self.observations, num_sources, num_objects);
        Dataset {
            observations: self.observations,
            live: None,
            num_dead: 0,
            by_object: index.by_object,
            by_object_offsets: index.by_object_offsets,
            by_object_seq: index.by_object_seq,
            by_source: index.by_source,
            by_source_offsets: index.by_source_offsets,
            domains: index.domains,
            domain_offsets: index.domain_offsets,
            sources: self.sources,
            objects: self.objects,
            values: self.values,
            num_sources,
            num_objects,
            num_values,
            delta: DeltaLog::default(),
            compactions: 0,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

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
    fn builder_indexes_by_object_and_source() {
        let d = toy();
        assert_eq!(d.num_sources(), 3);
        assert_eq!(d.num_objects(), 2);
        assert_eq!(d.num_observations(), 5);
        let o0 = d.object_id("o0").unwrap();
        let o1 = d.object_id("o1").unwrap();
        assert_eq!(d.observations_for_object(o0).len(), 3);
        assert_eq!(d.observations_for_object(o1).len(), 2);
        let s2 = d.source_id("s2").unwrap();
        assert_eq!(d.observations_by_source(s2).len(), 2);
    }

    #[test]
    fn csr_rows_are_sorted_by_neighbor_handle() {
        let mut b = DatasetBuilder::new();
        // Insert out of handle order on purpose.
        b.observe("s2", "o0", "x").unwrap();
        b.observe("s0", "o0", "y").unwrap();
        b.observe("s1", "o0", "x").unwrap();
        b.observe("s1", "o1", "y").unwrap();
        b.observe("s0", "o1", "y").unwrap();
        let d = b.build();
        let o0 = d.object_id("o0").unwrap();
        let sources: Vec<usize> = d
            .observations_for_object(o0)
            .iter()
            .map(|(s, _)| s.index())
            .collect();
        assert_eq!(sources, vec![0, 1, 2]);
        let s0 = d.source_id("s0").unwrap();
        let objects: Vec<usize> = d
            .observations_by_source(s0)
            .iter()
            .map(|(o, _)| o.index())
            .collect();
        assert_eq!(objects, vec![0, 1]);
        // Domains keep first-seen order, not sorted order.
        assert_eq!(
            d.domain(o0),
            &[d.value_id("x").unwrap(), d.value_id("y").unwrap()]
        );
    }

    #[test]
    fn domains_collect_distinct_values() {
        let d = toy();
        let o0 = d.object_id("o0").unwrap();
        let o1 = d.object_id("o1").unwrap();
        assert_eq!(d.domain(o0).len(), 2);
        assert_eq!(d.domain(o1).len(), 1);
        assert_eq!(d.conflicting_objects().count(), 1);
    }

    #[test]
    fn value_of_returns_the_asserted_value() {
        let d = toy();
        let s2 = d.source_id("s2").unwrap();
        let o0 = d.object_id("o0").unwrap();
        let true_v = d.value_id("true").unwrap();
        assert_eq!(d.value_of(s2, o0), Some(true_v));
        let s1 = d.source_id("s1").unwrap();
        let o1 = d.object_id("o1").unwrap();
        assert_eq!(d.value_of(s1, o1), None);
    }

    #[test]
    fn duplicate_claims_are_idempotent_but_conflicts_error() {
        let mut b = DatasetBuilder::new();
        b.observe("s", "o", "1").unwrap();
        b.observe("s", "o", "1").unwrap();
        assert_eq!(b.len(), 1);
        let err = b.observe("s", "o", "2").unwrap_err();
        assert!(matches!(err, DataError::ConflictingObservation { .. }));
    }

    #[test]
    fn density_counts_grid_coverage() {
        let d = toy();
        // 5 observations over a 3x2 grid.
        assert!((d.density() - 5.0 / 6.0).abs() < 1e-12);
        assert!((d.avg_observations_per_object() - 2.5).abs() < 1e-12);
        assert!((d.avg_observations_per_source() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reserve_allows_silent_entities() {
        let mut b = DatasetBuilder::new();
        b.observe("s0", "o0", "x").unwrap();
        b.reserve_sources(10);
        b.reserve_objects(4);
        let d = b.build();
        assert_eq!(d.num_sources(), 10);
        assert_eq!(d.num_objects(), 4);
        assert!(d.observations_by_source(SourceId::new(9)).is_empty());
        assert!(d.observations_for_object(ObjectId::new(3)).is_empty());
        assert!(d.domain(ObjectId::new(3)).is_empty());
    }

    #[test]
    fn restrict_sources_renumbers_densely() {
        let d = toy();
        let s0 = d.source_id("s0").unwrap();
        let s2 = d.source_id("s2").unwrap();
        let (restricted, kept) = d.restrict_sources(&[s2, s0]);
        assert_eq!(kept, vec![s0, s2]);
        assert_eq!(restricted.num_sources(), 2);
        assert_eq!(restricted.num_objects(), d.num_objects());
        assert_eq!(restricted.num_observations(), 4);
        // Object/value handles stay aligned with the original dataset.
        let o0 = d.object_id("o0").unwrap();
        assert_eq!(restricted.domain(o0), d.domain(o0));
    }

    #[test]
    fn restrict_sources_round_trips_names_and_handles() {
        let d = toy();
        let s0 = d.source_id("s0").unwrap();
        let s2 = d.source_id("s2").unwrap();
        let (restricted, kept) = d.restrict_sources(&[s2, s0]);
        // The kept sources keep their names under the new dense handles, and name
        // lookups invert the mapping.
        for (new_idx, &old) in kept.iter().enumerate() {
            let name = d.source_name(old).unwrap();
            assert_eq!(restricted.source_name(SourceId::new(new_idx)), Some(name));
            assert_eq!(restricted.source_id(name), Some(SourceId::new(new_idx)));
        }
        // A dropped source's name is gone.
        assert_eq!(restricted.source_id("s1"), None);
        // Observations agree with the original through the name mapping.
        for (new_idx, &old) in kept.iter().enumerate() {
            assert_eq!(
                restricted.observations_by_source(SourceId::new(new_idx)),
                d.observations_by_source(old)
            );
        }
    }

    #[test]
    fn to_builder_round_trips_and_accepts_deltas() {
        let d = toy();
        let grown = d.to_builder().build();
        assert_eq!(grown.num_observations(), d.num_observations());
        assert_eq!(grown.num_sources(), d.num_sources());
        for o in d.object_ids() {
            assert_eq!(grown.domain(o), d.domain(o));
            assert_eq!(
                grown.observations_for_object(o),
                d.observations_for_object(o)
            );
        }
        let mut delta = d.to_builder();
        // Duplicates are still detected after reopening.
        assert!(delta.observe("s0", "o0", "true").is_err());
        delta.observe("s3", "o2", "z").unwrap();
        let grown = delta.build();
        assert_eq!(grown.num_observations(), d.num_observations() + 1);
        assert_eq!(grown.num_sources(), d.num_sources() + 1);
    }

    #[test]
    fn storage_stats_report_flat_footprint() {
        let d = toy();
        let stats = d.storage_stats();
        assert_eq!(stats.num_observations, 5);
        assert_eq!(stats.live_claims, 5);
        assert_eq!(stats.dead_claims, 0);
        assert_eq!(stats.pending_appends, 0);
        assert_eq!(stats.delta_bytes, 0);
        assert!(stats.index_bytes > 0);
        assert!(stats.bytes_per_claim() > 0.0);
        // CSR drops the per-row Vec headers, so it is never larger than the estimated
        // nested layout.
        assert!(stats.total_bytes() <= stats.log_bytes + stats.nested_equivalent_bytes);
        let empty = DatasetBuilder::new().build().storage_stats();
        assert_eq!(empty.bytes_per_claim(), 0.0);
    }

    #[test]
    fn empty_dataset_is_well_formed() {
        let d = DatasetBuilder::new().build();
        assert_eq!(d.num_sources(), 0);
        assert_eq!(d.num_objects(), 0);
        assert_eq!(d.num_observations(), 0);
        assert_eq!(d.density(), 0.0);
    }

    #[test]
    fn appends_are_visible_without_reindexing() {
        let mut d = toy();
        let passes = full_index_passes();
        // New claim about a new object from a new source.
        let obs = d.append_named("s9", "o9", "zed").unwrap().unwrap();
        assert_eq!(d.num_observations(), 6);
        assert_eq!(d.num_sources(), 4);
        assert_eq!(d.num_objects(), 3);
        assert_eq!(d.pending_appends(), 1);
        assert!(!d.is_compacted());
        let o9 = d.object_id("o9").unwrap();
        assert_eq!(d.observations_for_object(o9), &[(obs.source, obs.value)]);
        assert_eq!(d.domain(o9), &[obs.value]);
        assert_eq!(d.value_of(obs.source, o9), Some(obs.value));
        // A delta claim on an existing object lands sorted into its row.
        let o0 = d.object_id("o0").unwrap();
        d.append_named("s9", "o0", "true").unwrap().unwrap();
        let row = d.observations_for_object(o0);
        assert_eq!(row.len(), 4);
        assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
        // No full indexing pass happened on the append path.
        assert_eq!(full_index_passes(), passes);
        // Idempotent duplicate returns None; conflict errors and changes nothing.
        assert!(d.append_named("s9", "o0", "true").unwrap().is_none());
        assert!(d.append_named("s9", "o0", "false").is_err());
        assert_eq!(d.num_observations(), 7);
    }

    #[test]
    fn index_passes_are_counted_per_thread() {
        let before = full_index_passes();
        let elsewhere = std::thread::spawn(|| {
            let before = full_index_passes();
            toy();
            full_index_passes() - before
        })
        .join()
        .unwrap();
        assert_eq!(elsewhere, 1);
        assert_eq!(full_index_passes(), before);
        toy();
        assert_eq!(full_index_passes(), before + 1);
    }

    #[test]
    fn evictions_tombstone_and_update_rows() {
        let mut d = toy();
        let s0 = d.source_id("s0").unwrap();
        let s1 = d.source_id("s1").unwrap();
        let o0 = d.object_id("o0").unwrap();
        assert!(d.evict(s0, o0));
        assert_eq!(d.num_observations(), 4);
        assert_eq!(d.dead_claims(), 1);
        assert_eq!(d.observations_for_object(o0).len(), 2);
        assert_eq!(d.value_of(s0, o0), None);
        assert_eq!(d.live_observations().count(), 4);
        // Double-eviction is a no-op.
        assert!(!d.evict(s0, o0));
        // The domain keeps first-seen order over survivors: s1 said "false" before
        // s2 said "true".
        assert_eq!(
            d.domain(o0),
            &[d.value_id("false").unwrap(), d.value_id("true").unwrap()]
        );
        // Evicting the remaining "false" claim drops the value from the domain.
        assert!(d.evict(s1, o0));
        assert_eq!(d.domain(o0), &[d.value_id("true").unwrap()]);
        // A re-asserted claim is live again (eviction is not a permanent ban).
        assert!(d.append_named("s0", "o0", "true").unwrap().is_some());
        assert_eq!(d.value_of(s0, o0), Some(d.value_id("true").unwrap()));
    }

    #[test]
    fn batched_evictions_match_one_at_a_time() {
        // A larger stream so batches touch several rows with several claims each.
        let mut b = DatasetBuilder::new();
        for i in 0..400usize {
            let _ = b.observe(
                &format!("s{}", i % 23),
                &format!("o{}", i % 41),
                &format!("v{}", i % 3),
            );
        }
        let base = b.build();
        let victims: Vec<(SourceId, ObjectId)> = base
            .live_observations()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(_, obs)| (obs.source, obs.object))
            .collect();
        let mut one_at_a_time = base.clone();
        let mut singles = 0;
        for &(s, o) in &victims {
            if one_at_a_time.evict(s, o) {
                singles += 1;
            }
        }
        let mut batched = base.clone();
        assert_eq!(batched.evict_batch(&victims), singles);
        assert!(batched.same_content(&one_at_a_time));
        assert_eq!(batched.dead_claims(), one_at_a_time.dead_claims());
        // Both compact to the same rebuilt dataset.
        batched.compact();
        one_at_a_time.compact();
        assert!(batched.same_content(&one_at_a_time));
        // Dead pairs and duplicates are skipped, not double-counted.
        assert_eq!(batched.evict_batch(&victims), 0);
        let survivor = batched
            .live_observations()
            .next()
            .map(|obs| (obs.source, obs.object))
            .expect("claims survive");
        assert_eq!(batched.evict_batch(&[survivor, survivor]), 1);
    }

    #[test]
    fn compaction_matches_a_from_scratch_rebuild() {
        let mut d = toy();
        let s0 = d.source_id("s0").unwrap();
        let o0 = d.object_id("o0").unwrap();
        d.append_named("s3", "o2", "w").unwrap();
        assert!(d.evict(s0, o0));
        d.append_named("s0", "o2", "w").unwrap();
        let mut compacted = d.clone();
        compacted.compact();
        assert!(compacted.is_compacted());
        assert_eq!(compacted.compaction_count(), 1);
        assert_eq!(compacted.dead_claims(), 0);
        // The delta view and the compacted view agree...
        assert!(d.same_content(&compacted));
        // ...and the compacted dataset equals a from-scratch rebuild of the live log
        // under the same vocabulary (handles must stay stable across compaction).
        let rebuilt = d.to_builder().build();
        assert!(compacted.same_content(&rebuilt));
        // Compacting twice is a no-op.
        compacted.compact();
        assert_eq!(compacted.compaction_count(), 1);
    }

    /// The compaction this module ran before the merge: drop the tombstones, then
    /// re-index the live log from scratch. The merge must match it on every field.
    fn compacted_by_reindex(d: &Dataset) -> Dataset {
        let mut out = d.clone();
        if out.is_compacted() {
            return out;
        }
        out.observations = d.live_observations().copied().collect();
        let index = index_observations(&out.observations, out.num_sources, out.num_objects);
        out.by_object = index.by_object;
        out.by_object_offsets = index.by_object_offsets;
        out.by_object_seq = index.by_object_seq;
        out.by_source = index.by_source;
        out.by_source_offsets = index.by_source_offsets;
        out.domains = index.domains;
        out.domain_offsets = index.domain_offsets;
        out.live = None;
        out.num_dead = 0;
        out.delta = DeltaLog::default();
        out.compactions += 1;
        out
    }

    /// Asserts two compacted datasets agree on every field, `by_object_seq` and the
    /// compaction counter included (which `same_content` does not compare).
    fn assert_identical(merged: &Dataset, reference: &Dataset, what: &str) {
        assert!(merged.is_compacted() && reference.is_compacted(), "{what}");
        assert!(merged.live.is_none() && merged.num_dead == 0, "{what}");
        assert_eq!(merged.observations, reference.observations, "{what}: log");
        assert_eq!(merged.by_object, reference.by_object, "{what}: by_object");
        assert_eq!(
            merged.by_object_offsets, reference.by_object_offsets,
            "{what}"
        );
        assert_eq!(merged.by_object_seq, reference.by_object_seq, "{what}: seq");
        assert_eq!(merged.by_source, reference.by_source, "{what}: by_source");
        assert_eq!(
            merged.by_source_offsets, reference.by_source_offsets,
            "{what}"
        );
        assert_eq!(merged.domains, reference.domains, "{what}: domains");
        assert_eq!(merged.domain_offsets, reference.domain_offsets, "{what}");
        let counts = |d: &Dataset| (d.num_sources, d.num_objects, d.num_values, d.compactions);
        assert_eq!(counts(merged), counts(reference), "{what}: counts");
        assert!(merged.same_content(reference), "{what}: names");
        assert_eq!(
            crate::snapshot::dataset_to_bytes(merged).unwrap(),
            crate::snapshot::dataset_to_bytes(reference).unwrap(),
            "{what}: container bytes"
        );
    }

    /// A random dataset history: a built base with reserved handles past the named
    /// ones, then appends, single and batched evictions (with duplicate and missing
    /// pairs), re-asserted claims, newly interned names and mid-stream compactions.
    /// `on_compact(before, merged, step)` sees each mid-stream compaction.
    pub(crate) fn random_history(
        rng: &mut rand::rngs::StdRng,
        mut on_compact: impl FnMut(&Dataset, &Dataset, usize),
    ) -> Dataset {
        use rand::rngs::StdRng;
        use rand::Rng;

        let (sources, objects) = (rng.gen_range(1..9usize), rng.gen_range(1..14usize));
        let claim = |rng: &mut StdRng, extra: usize| {
            (
                format!("s{}", rng.gen_range(0..sources + extra)),
                format!("o{}", rng.gen_range(0..objects + extra)),
                format!("v{}", rng.gen_range(0..4u8)),
            )
        };
        let mut b = DatasetBuilder::new();
        for _ in 0..rng.gen_range(0..50usize) {
            let (s, o, v) = claim(rng, 0);
            let _ = b.observe(&s, &o, &v);
        }
        // Reserved handles with no claims, past the named ones.
        b.reserve_sources(rng.gen_range(0..sources + 3));
        b.reserve_objects(rng.gen_range(0..objects + 3));
        let mut d = b.build();

        for step in 0..rng.gen_range(1..80usize) {
            let live: Vec<(SourceId, ObjectId, ValueId)> = d
                .live_observations()
                .map(|obs| (obs.source, obs.object, obs.value))
                .collect();
            let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
            match rng.gen_range(0..10u8) {
                0..=3 => {
                    let (s, o, v) = claim(rng, 3);
                    let _ = d.append_named(&s, &o, &v);
                }
                4 if !live.is_empty() => {
                    let (s, o, _) = pick(rng);
                    assert!(d.evict(s, o));
                }
                5 if !live.is_empty() => {
                    // A batch with duplicates and a pair that has no claim.
                    let mut batch: Vec<(SourceId, ObjectId)> = (0..rng.gen_range(1..6))
                        .map(|_| {
                            let (s, o, _) = pick(rng);
                            (s, o)
                        })
                        .collect();
                    batch.push(batch[0]);
                    batch.push((SourceId::new(d.num_sources() + 1), ObjectId::new(0)));
                    d.evict_batch(&batch);
                }
                6 if !live.is_empty() => {
                    // Re-asserted: evicted, then claimed again at the log's end.
                    let (s, o, v) = pick(rng);
                    d.evict(s, o);
                    assert!(d.append_ids(s, o, v).unwrap().is_some());
                }
                7 => {
                    d.intern_source(&format!("reserved-s{step}"));
                    d.intern_object(&format!("reserved-o{step}"));
                }
                8 if rng.gen_bool(0.3) => {
                    let merged = d.compacted();
                    on_compact(&d, &merged, step);
                    d = merged;
                }
                _ => {}
            }
        }
        d
    }

    #[test]
    fn merge_compaction_equals_reindex_on_every_array() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(0xC0_4AC7);
        for case in 0..400 {
            let mut d = random_history(&mut rng, |before, merged, step| {
                let what = format!("case {case} step {step}");
                assert_identical(merged, &compacted_by_reindex(before), &what);
            });
            let what = format!("case {case}");
            let reference = compacted_by_reindex(&d);
            let before = full_index_passes();
            let merged = d.compacted();
            assert_eq!(full_index_passes(), before + u64::from(!d.is_compacted()));
            assert_identical(&merged, &reference, &what);
            d.compact();
            assert_identical(&d, &reference, &what);
        }
    }

    #[test]
    fn delta_storage_is_accounted() {
        let mut d = toy();
        let s0 = d.source_id("s0").unwrap();
        let o0 = d.object_id("o0").unwrap();
        d.append_named("sX", "oX", "vX").unwrap();
        d.evict(s0, o0);
        let stats = d.storage_stats();
        assert_eq!(stats.live_claims, 5);
        assert_eq!(stats.dead_claims, 1);
        assert_eq!(stats.pending_appends, 1);
        assert!(stats.delta_bytes > 0);
        d.compact();
        let stats = d.storage_stats();
        assert_eq!(stats.dead_claims, 0);
        assert_eq!(stats.pending_appends, 0);
        assert_eq!(stats.delta_bytes, 0);
        assert_eq!(stats.compactions, 1);
    }

    #[test]
    fn name_bytes_grow_with_distinct_names_not_claims() {
        let build = |claims: &[(usize, usize)]| {
            let mut b = DatasetBuilder::new();
            for &(s, o) in claims {
                b.observe(&format!("source-{s}"), &format!("object-{o}"), "v")
                    .unwrap();
            }
            b.build()
        };
        let grid: Vec<_> = (0..10).flat_map(|s| (0..10).map(move |o| (s, o))).collect();
        let diagonal: Vec<_> = (0..10).map(|i| (i, i)).collect();
        let (dense, sparse) = (
            build(&grid).storage_stats(),
            build(&diagonal).storage_stats(),
        );
        assert_eq!(dense.num_observations, 10 * sparse.num_observations);
        assert_eq!(dense.name_bytes, sparse.name_bytes);
        assert!(dense.total_bytes() > sparse.total_bytes());

        let mut d = build(&diagonal);
        d.append_named("source-0", "object-1", "v").unwrap();
        assert_eq!(d.storage_stats().name_bytes, sparse.name_bytes);
        d.append_named("source-10", "object-10", "w").unwrap();
        assert!(d.storage_stats().name_bytes > sparse.name_bytes);
    }
}
