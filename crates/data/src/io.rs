//! Plain-text import/export of fusion instances.
//!
//! Observations, ground truth, and features are exchanged as simple comma-separated files
//! so simulated datasets can be inspected or re-used outside the Rust toolchain. The format
//! is deliberately minimal (no quoting; fields may not contain commas) because every name
//! this workspace generates is comma-free.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use crate::dataset::{Dataset, DatasetBuilder};
use crate::error::DataError;
use crate::faults;
use crate::features::{FeatureMatrix, FeatureMatrixBuilder};
use crate::observation::NamedObservation;
use crate::truth::GroundTruth;

/// Writes `bytes` to `path` atomically: the data goes to a temp file in the same
/// directory, is fsync'd, and is then renamed over the target, so a crash at any point
/// leaves either the old file or the new one — never a torn mix. Used by the snapshot
/// and model file writers; the temp file is cleaned up on failure.
///
/// Carries the `atomic_write.pre_fsync` and `atomic_write.pre_rename` fault-injection
/// sites (see [`crate::faults`]): killing the write at either point must leave the
/// destination holding its previous bytes in full — the rename is the commit point.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), DataError> {
    let path = path.as_ref();
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let file_name = path.file_name().ok_or_else(|| {
        DataError::Invalid(format!(
            "atomic_write target '{}' has no file name",
            path.display()
        ))
    })?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        faults::fire_std_io("atomic_write.pre_fsync")?;
        file.sync_all()?;
        faults::fire_std_io("atomic_write.pre_rename")?;
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself. Directory fsync is best-effort: some platforms
        // refuse to open directories, and the rename is already atomic without it.
        if let Ok(d) = std::fs::File::open(&dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(DataError::from)
}

/// Drives `handle` over every non-empty, non-comment line of `reader`, reusing one
/// line buffer for the whole file instead of allocating a fresh `String` per line
/// (what `BufRead::lines` does). The callback receives the 1-based line number and
/// the trimmed line. All CSV readers in this module go through here, so large loads
/// are one buffered read loop with zero per-line allocations.
fn for_each_csv_line<R: Read>(
    reader: R,
    mut handle: impl FnMut(usize, &str) -> Result<(), DataError>,
) -> Result<(), DataError> {
    let mut reader = BufReader::with_capacity(1 << 16, reader);
    let mut line = String::new();
    let mut number = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        number += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // `csv.read` fault site: the Nth content line fails as an I/O error — the
        // transport failing mid-stream, as opposed to a malformed line, which the
        // lenient reader can quarantine.
        faults::fire_data("csv.read")?;
        handle(number, trimmed)?;
    }
}

/// Splits one non-comment observation line into its `(source, object, value)` fields,
/// or `None` when the line does not have exactly three comma-separated fields. Shared
/// by the strict and the lenient reader so both parse identically.
fn parse_claim_fields(trimmed: &str) -> Option<(&str, &str, &str)> {
    let mut parts = trimmed.split(',');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(s), Some(o), Some(v), None) => Some((s.trim(), o.trim(), v.trim())),
        _ => None,
    }
}

/// Reads observations from `source,object,value` lines (one observation per line).
/// Empty lines and lines starting with `#` are ignored.
pub fn read_observations_csv<R: Read>(reader: R) -> Result<Dataset, DataError> {
    let mut builder = DatasetBuilder::new();
    for_each_csv_line(reader, |line, trimmed| {
        let (source, object, value) =
            parse_claim_fields(trimmed).ok_or_else(|| DataError::Parse {
                line,
                message: "expected exactly three comma-separated fields: source,object,value"
                    .to_string(),
            })?;
        builder.observe(source, object, value)?;
        Ok(())
    })?;
    Ok(builder.build())
}

/// Reads observations from `source,object,value` CSV bytes; `threads` is ignored.
///
/// A delegate to [`read_observations_csv`], kept because the end-to-end benchmark in
/// `perfbench/` calls this signature. New code should call [`read_observations_csv`].
pub fn read_observations_csv_sharded(bytes: &[u8], _threads: usize) -> Result<Dataset, DataError> {
    read_observations_csv(bytes)
}

/// Builds a dataset from named claims in stream order: the in-memory counterpart of
/// [`read_observations_csv`]. Names get handles in order of first appearance, exact
/// duplicates are ignored, and a source asserting two different values for the same
/// object fails with [`DataError::ConflictingObservation`].
pub fn build_claims(claims: &[NamedObservation]) -> Result<Dataset, DataError> {
    let mut builder = DatasetBuilder::with_capacity(claims.len());
    for claim in claims {
        builder.observe(&claim.source, &claim.object, &claim.value)?;
    }
    Ok(builder.build())
}

/// One quarantined input line from [`read_observations_csv_lenient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedRow {
    /// 1-based line number in the input stream.
    pub line: usize,
    /// Why the line was rejected (malformed fields, conflicting claim, ...).
    pub reason: String,
}

/// Quarantine report of a lenient CSV load: how many claims were accepted, how many
/// lines were rejected, and per-line detail for the first
/// [`IngestReport::rejected`]`.capacity`-many rejections (capped by the caller of
/// [`read_observations_csv_lenient`] so one garbage file cannot balloon memory).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Claims accepted into the dataset.
    pub accepted: usize,
    /// Total lines rejected (including those beyond the detail cap).
    pub total_rejected: usize,
    /// Line-level detail for the first `max_rejected` rejections, in input order.
    pub rejected: Vec<RejectedRow>,
}

impl IngestReport {
    /// Whether any line was quarantined.
    pub fn has_rejections(&self) -> bool {
        self.total_rejected > 0
    }

    /// Whether rejections beyond [`IngestReport::rejected`] were dropped from the
    /// detail list (the total still counts them).
    pub fn is_truncated(&self) -> bool {
        self.total_rejected > self.rejected.len()
    }
}

/// Permissive variant of [`read_observations_csv`]: malformed lines and conflicting
/// claims are quarantined into an [`IngestReport`] (line number + reason, detail
/// capped at `max_rejected` rows) instead of aborting the whole load. Transport-level
/// I/O errors still abort — a short read is a failed load, not a bad row.
///
/// Strict mode ([`read_observations_csv`]) remains the default ingest path; use this
/// for feeds known to be messy where serving availability beats completeness.
pub fn read_observations_csv_lenient<R: Read>(
    reader: R,
    max_rejected: usize,
) -> Result<(Dataset, IngestReport), DataError> {
    let mut builder = DatasetBuilder::new();
    let mut report = IngestReport::default();
    for_each_csv_line(reader, |line, trimmed| {
        let reject = |report: &mut IngestReport, reason: String| {
            report.total_rejected += 1;
            if report.rejected.len() < max_rejected {
                report.rejected.push(RejectedRow { line, reason });
            }
        };
        match parse_claim_fields(trimmed) {
            None => reject(
                &mut report,
                "expected exactly three comma-separated fields: source,object,value".to_string(),
            ),
            Some((source, object, value)) => match builder.observe(source, object, value) {
                Ok(_) => report.accepted += 1,
                Err(err) => reject(&mut report, err.to_string()),
            },
        }
        Ok(())
    })?;
    Ok((builder.build(), report))
}

/// Writes observations as `source,object,value` lines. Entities without names are written
/// using their display handles (`s0`, `o3`, ...).
///
/// Lines are grouped by object in handle order (within an object, claims keep their
/// insertion order). Because [`read_observations_csv`] interns names in order of first
/// appearance, this canonical order makes a write→read round trip assign every object the
/// same handle it had in the original dataset — seeded [`crate::SplitPlan`] draws
/// therefore select the same objects on both datasets.
pub fn write_observations_csv<W: Write>(dataset: &Dataset, mut writer: W) -> Result<(), DataError> {
    writeln!(writer, "# source,object,value")?;
    for o in dataset.object_ids() {
        let object = dataset
            .object_name(o)
            .map(str::to_owned)
            .unwrap_or_else(|| o.to_string());
        for &(s, v) in dataset.observations_for_object(o) {
            let source = dataset
                .source_name(s)
                .map(str::to_owned)
                .unwrap_or_else(|| s.to_string());
            let value = dataset
                .value_name(v)
                .map(str::to_owned)
                .unwrap_or_else(|| v.to_string());
            writeln!(writer, "{source},{object},{value}")?;
        }
    }
    Ok(())
}

/// Reads ground truth from `object,value` lines, resolving names against `dataset`.
/// Unknown objects are rejected; unknown values are interned only if they already appear in
/// the dataset's vocabulary (single-truth semantics requires some source to claim the value).
pub fn read_ground_truth_csv<R: Read>(
    dataset: &Dataset,
    reader: R,
) -> Result<GroundTruth, DataError> {
    let mut truth = GroundTruth::empty(dataset.num_objects());
    for_each_csv_line(reader, |line, trimmed| {
        let mut parts = trimmed.split(',');
        let (object, value) = match (parts.next(), parts.next(), parts.next()) {
            (Some(o), Some(v), None) => (o.trim(), v.trim()),
            _ => {
                return Err(DataError::Parse {
                    line,
                    message: "expected exactly two comma-separated fields: object,value"
                        .to_string(),
                })
            }
        };
        let o = dataset.object_id(object).ok_or(DataError::Parse {
            line,
            message: format!("unknown object '{object}'"),
        })?;
        let v = dataset
            .value_id(value)
            .ok_or(DataError::TruthOutsideDomain { object: o.index() })?;
        truth.set(o, v);
        Ok(())
    })?;
    Ok(truth)
}

/// Writes ground truth as `object,value` lines.
pub fn write_ground_truth_csv<W: Write>(
    dataset: &Dataset,
    truth: &GroundTruth,
    mut writer: W,
) -> Result<(), DataError> {
    writeln!(writer, "# object,value")?;
    for (o, v) in truth.labeled() {
        let object = dataset
            .object_name(o)
            .map(str::to_owned)
            .unwrap_or_else(|| o.to_string());
        let value = dataset
            .value_name(v)
            .map(str::to_owned)
            .unwrap_or_else(|| v.to_string());
        writeln!(writer, "{object},{value}")?;
    }
    Ok(())
}

/// Reads per-source features from `source,feature,value` lines, resolving source names
/// against `dataset`. The `value` field is optional and defaults to `1` (Boolean flag).
pub fn read_features_csv<R: Read>(
    dataset: &Dataset,
    reader: R,
) -> Result<FeatureMatrix, DataError> {
    let mut builder = FeatureMatrixBuilder::new();
    for_each_csv_line(reader, |line, trimmed| {
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if fields.len() < 2 || fields.len() > 3 {
            return Err(DataError::Parse {
                line,
                message: "expected source,feature[,value]".to_string(),
            });
        }
        let s = dataset.source_id(fields[0]).ok_or(DataError::Parse {
            line,
            message: format!("unknown source '{}'", fields[0]),
        })?;
        let value = if fields.len() == 3 {
            fields[2].parse::<f64>().map_err(|_| DataError::Parse {
                line,
                message: format!("'{}' is not a number", fields[2]),
            })?
        } else {
            1.0
        };
        builder.set(s, fields[1], value);
        Ok(())
    })?;
    Ok(builder.build(dataset.num_sources()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBS: &str = "# comment\n\
                       article-1,GIGYF2/Parkinson,false\n\
                       article-2,GIGYF2/Parkinson,false\n\
                       article-3,GIGYF2/Parkinson,true\n\
                       \n\
                       article-1,GBA/Parkinson,true\n";

    #[test]
    fn observations_round_trip() {
        let dataset = read_observations_csv(OBS.as_bytes()).unwrap();
        assert_eq!(dataset.num_sources(), 3);
        assert_eq!(dataset.num_objects(), 2);
        assert_eq!(dataset.num_observations(), 4);

        let mut out = Vec::new();
        write_observations_csv(&dataset, &mut out).unwrap();
        let reparsed = read_observations_csv(out.as_slice()).unwrap();
        assert_eq!(reparsed.num_observations(), dataset.num_observations());
        assert_eq!(reparsed.num_sources(), dataset.num_sources());
        assert_eq!(
            reparsed.value_of(
                reparsed.source_id("article-3").unwrap(),
                reparsed.object_id("GIGYF2/Parkinson").unwrap()
            ),
            reparsed.value_id("true")
        );
    }

    #[test]
    fn empty_input_builds_an_empty_dataset() {
        let d = read_observations_csv(&b""[..]).unwrap();
        assert_eq!(d.num_observations(), 0);
        let d = build_claims(&[]).unwrap();
        assert_eq!(d.num_observations(), 0);
    }

    #[test]
    fn invalid_utf8_is_an_io_error() {
        let input = b"a,o1,v1\nb,o\xff,v1\n";
        let err = read_observations_csv(&input[..]).unwrap_err();
        assert!(matches!(err, DataError::Io(_)), "unexpected error {err:?}");
        let err = read_observations_csv_lenient(&input[..], 4).unwrap_err();
        assert!(matches!(err, DataError::Io(_)), "unexpected error {err:?}");
    }

    #[test]
    fn build_claims_matches_the_csv_reader() {
        let mut claims: Vec<NamedObservation> = (0..300usize)
            .map(|i| {
                NamedObservation::new(
                    format!("s{}", i % 13),
                    format!("o{}", i % 41),
                    format!("v{}", i % 3),
                )
            })
            .collect();
        let csv: String = claims
            .iter()
            .map(|c| format!("{},{},{}\n", c.source, c.object, c.value))
            .collect();
        let from_csv = read_observations_csv(csv.as_bytes()).unwrap();
        assert!(from_csv.same_content(&build_claims(&claims).unwrap()));
        // A conflicting claim fails the whole build.
        claims.push(NamedObservation::new("s0", "o0", "v-clash"));
        let err = build_claims(&claims).unwrap_err();
        assert!(matches!(err, DataError::ConflictingObservation { .. }));
    }

    #[test]
    fn malformed_observation_lines_are_reported_with_line_numbers() {
        let err = read_observations_csv("a,b,c\nbroken-line\n".as_bytes()).unwrap_err();
        match err {
            DataError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lenient_reader_quarantines_bad_lines_with_reasons() {
        // Line 2 is malformed, line 4 conflicts with line 1, line 5 is fine.
        let input = "a,o1,v1\n\
                     only-two,fields\n\
                     b,o1,v2\n\
                     a,o1,v9\n\
                     c,o2,v1\n";
        let (dataset, report) = read_observations_csv_lenient(input.as_bytes(), 16).unwrap();
        assert_eq!(dataset.num_observations(), 3);
        assert_eq!(report.accepted, 3);
        assert_eq!(report.total_rejected, 2);
        assert!(report.has_rejections());
        assert!(!report.is_truncated());
        assert_eq!(report.rejected[0].line, 2);
        assert!(report.rejected[0]
            .reason
            .contains("three comma-separated fields"));
        assert_eq!(report.rejected[1].line, 4);
        assert!(
            report.rejected[1].reason.contains("at most one value"),
            "reason: {}",
            report.rejected[1].reason
        );
        // The strict reader rejects the same input outright, at the first bad line.
        match read_observations_csv(input.as_bytes()).unwrap_err() {
            DataError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lenient_reader_caps_the_rejection_detail_but_counts_everything() {
        let mut input = String::from("a,o1,v1\n");
        for _ in 0..10 {
            input.push_str("broken\n");
        }
        let (dataset, report) = read_observations_csv_lenient(input.as_bytes(), 3).unwrap();
        assert_eq!(dataset.num_observations(), 1);
        assert_eq!(report.total_rejected, 10);
        assert_eq!(report.rejected.len(), 3);
        assert!(report.is_truncated());
        // A clean file reports cleanly.
        let (_, clean) = read_observations_csv_lenient("a,o,v\n".as_bytes(), 3).unwrap();
        assert!(!clean.has_rejections());
        assert_eq!(clean.accepted, 1);
    }

    #[test]
    fn ground_truth_round_trip_and_validation() {
        let dataset = read_observations_csv(OBS.as_bytes()).unwrap();
        let truth = read_ground_truth_csv(
            &dataset,
            "GBA/Parkinson,true\nGIGYF2/Parkinson,false\n".as_bytes(),
        )
        .unwrap();
        assert_eq!(truth.num_labeled(), 2);

        let mut out = Vec::new();
        write_ground_truth_csv(&dataset, &truth, &mut out).unwrap();
        let reparsed = read_ground_truth_csv(&dataset, out.as_slice()).unwrap();
        assert_eq!(reparsed, truth);

        // Unknown object.
        assert!(read_ground_truth_csv(&dataset, "nope,true\n".as_bytes()).is_err());
        // Value never observed by any source violates single-truth semantics.
        let err = read_ground_truth_csv(&dataset, "GBA/Parkinson,maybe\n".as_bytes()).unwrap_err();
        assert!(matches!(err, DataError::TruthOutsideDomain { .. }));
    }

    #[test]
    fn atomic_write_replaces_without_leaving_temp_files() {
        let dir = std::env::temp_dir().join(format!("slimfast-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // Overwrite is atomic too, and no temp files survive.
        atomic_write(&path, b"second, longer payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer payload");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        // A target with no file name is rejected, not panicked on.
        assert!(atomic_write(dir.join(".."), b"x").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn features_parse_with_optional_value() {
        let dataset = read_observations_csv(OBS.as_bytes()).unwrap();
        let features = read_features_csv(
            &dataset,
            "article-1,PubYear=2009\narticle-1,citations,34\narticle-2,PubYear=2008\n".as_bytes(),
        )
        .unwrap();
        assert_eq!(features.num_features(), 3);
        let s1 = dataset.source_id("article-1").unwrap();
        assert_eq!(
            features.value(s1, features.feature_id("citations").unwrap()),
            34.0
        );
        assert_eq!(
            features.value(s1, features.feature_id("PubYear=2009").unwrap()),
            1.0
        );
        // Unknown source is an error.
        assert!(read_features_csv(&dataset, "nobody,x\n".as_bytes()).is_err());
        // Bad number is an error.
        assert!(read_features_csv(&dataset, "article-1,citations,many\n".as_bytes()).is_err());
    }
}
