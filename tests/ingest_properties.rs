//! Property-based tests for the bulk-load path and the incremental CSR maintenance
//! path (delta-log appends, tombstoned evictions, compaction): for arbitrary claim
//! streams, the in-memory and the CSV loader must build the same dataset however the
//! input is laid out or delivered, and every maintenance schedule must be invisible —
//! a compacted dataset must match a from-scratch rebuild of its live claims.

use std::io::Read;

use proptest::prelude::*;

use slimfast::data::DataError;
use slimfast::prelude::*;

/// A conflict-free named claim stream: distinct (source, object) pairs in arbitrary
/// order, each with an arbitrary value from a small shared domain.
fn named_claims_strategy() -> impl Strategy<Value = Vec<NamedObservation>> {
    (2usize..8, 1usize..10, 2usize..4).prop_flat_map(|(s, o, d)| {
        // Claim order varies through the per-claim value draws (the stream walks the
        // source × object grid, so the append split point cuts rows at every offset).
        let values = proptest::collection::vec(0..d, s * o);
        (Just(s), Just(o), values, Just(d)).prop_map(|(s, _o, values, _)| {
            let mut claims = Vec::new();
            for (idx, v) in values.into_iter().enumerate() {
                claims.push(NamedObservation::new(
                    format!("s{}", idx % s),
                    format!("o{}", idx / s),
                    format!("v{v}"),
                ));
            }
            claims
        })
    })
}

/// Renders claims as `source,object,value` CSV under a header comment, with CRLF line
/// endings when `crlf` is set.
fn render_csv(claims: &[NamedObservation], crlf: bool) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut csv = format!("# source,object,value{eol}");
    for c in claims {
        csv.push_str(&format!("{},{},{}{eol}", c.source, c.object, c.value));
    }
    csv
}

/// A reader that hands out at most `chunk` bytes per `read`, so the CSV reader's
/// buffer refills end at every offset within a line.
struct ChunkedReader<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl Read for ChunkedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The maintenance schedule applied on top of the base stream: which claims arrive
/// late (through the delta log) and which (source, object) pairs get evicted.
fn schedule_strategy() -> impl Strategy<Value = (Vec<NamedObservation>, usize, Vec<usize>)> {
    named_claims_strategy().prop_flat_map(|claims| {
        let n = claims.len();
        let split = 0..=n;
        let evictions = proptest::collection::vec(0..n.max(1), 0..=n.min(12));
        (Just(claims), split, evictions)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two bulk loaders agree: `build_claims` and the CSV reader build
    /// content-identical datasets with the same handle assignment, both ignore
    /// replayed exact duplicates, and both reject the same conflicting claim.
    #[test]
    fn bulk_loaders_agree_on_any_claim_stream(
        claims in named_claims_strategy(),
        replay in 0usize..8,
        crlf in 0usize..2,
        clash in 0usize..2,
    ) {
        let mut stream = claims.clone();
        stream.extend_from_slice(&claims[..replay.min(claims.len())]);
        let built = build_claims(&stream).unwrap();
        let read = read_observations_csv(render_csv(&stream, crlf == 1).as_bytes()).unwrap();
        prop_assert!(read.same_content(&built), "CSV load diverged from build_claims");
        prop_assert!(
            built.same_content(&build_claims(&claims).unwrap()),
            "replayed duplicates changed the dataset"
        );
        prop_assert_eq!(built.num_observations(), claims.len());

        if clash == 1 {
            let first = &claims[0];
            stream.push(NamedObservation::new(&first.source, &first.object, "v-clash"));
            let built = build_claims(&stream).unwrap_err();
            let read = read_observations_csv(render_csv(&stream, crlf == 1).as_bytes())
                .unwrap_err();
            prop_assert!(
                matches!(built, DataError::ConflictingObservation { .. }),
                "unexpected error {built:?}"
            );
            prop_assert_eq!(built.to_string(), read.to_string());
        }
    }

    /// The CSV reader does not depend on how the input arrives: reads that return
    /// a few bytes at a time, splitting lines at every position, build the same
    /// dataset as one contiguous slice.
    #[test]
    fn csv_reader_is_independent_of_read_boundaries(
        claims in named_claims_strategy(),
        chunk in 1usize..64,
        crlf in 0usize..2,
    ) {
        let csv = render_csv(&claims, crlf == 1);
        let whole = read_observations_csv(csv.as_bytes()).unwrap();
        let chunked = read_observations_csv(ChunkedReader {
            bytes: csv.as_bytes(),
            chunk,
        })
        .unwrap();
        prop_assert!(
            whole.same_content(&chunked),
            "chunked CSV read diverged at chunk={chunk}"
        );
    }

    /// Incremental maintenance is invisible: a dataset assembled through any mix of
    /// batch build, delta-log appends, and evictions answers queries identically
    /// before and after compaction, and the compacted dataset is content-identical
    /// to a from-scratch rebuild of its live claim log.
    #[test]
    fn compaction_matches_a_from_scratch_rebuild(
        (claims, split, evictions) in schedule_strategy(),
    ) {
        // Batch-build the prefix, stream the suffix through the delta log.
        let mut builder = DatasetBuilder::new();
        for c in &claims[..split] {
            builder.observe(&c.source, &c.object, &c.value).unwrap();
        }
        let mut dataset = builder.build();
        for c in &claims[split..] {
            dataset.append_named(&c.source, &c.object, &c.value).unwrap();
        }
        // Evict a pseudo-random subset of the claims that actually landed.
        for &pick in &evictions {
            if claims.is_empty() {
                break;
            }
            let c = &claims[pick % claims.len()];
            let s = dataset.source_id(&c.source).unwrap();
            let o = dataset.object_id(&c.object).unwrap();
            dataset.evict(s, o); // false on already-evicted picks is fine
        }

        let uncompacted = dataset.clone();
        dataset.compact();
        prop_assert!(dataset.is_compacted());
        prop_assert!(
            uncompacted.same_content(&dataset),
            "compaction changed the dataset's logical content"
        );
        let rebuilt = dataset.to_builder().build();
        prop_assert!(
            dataset.same_content(&rebuilt),
            "compacted dataset diverged from a from-scratch rebuild"
        );

        // Spot-check the overlay-backed accessors against the compacted base arrays.
        for o in uncompacted.object_ids() {
            prop_assert_eq!(
                uncompacted.observations_for_object(o),
                dataset.observations_for_object(o)
            );
            prop_assert_eq!(uncompacted.domain(o), dataset.domain(o));
        }
        for s in uncompacted.source_ids() {
            prop_assert_eq!(
                uncompacted.observations_by_source(s),
                dataset.observations_by_source(s)
            );
        }
    }
}
