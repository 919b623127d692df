//! The concurrent serving tier: epoch-swapped model snapshots, lock-free readers, and
//! background refits.
//!
//! [`FusionEngine`] is a single-writer structure — ingest takes `&mut self` and a refit
//! runs inline on the caller. That is the right shape for the maintenance loop and the
//! wrong shape for serving: the ROADMAP's "millions of users" workload is many reader
//! threads answering posterior queries *while* claims stream in and retrains run. This
//! module splits the two roles:
//!
//! * **Readers** hold a [`ServingReader`] and answer every query from an immutable
//!   [`ModelSnapshot`] — a frozen model, a frozen dataset, and a compiled per-source
//!   trust table. Snapshots are published by a single atomic swap, so a reader either
//!   sees the old snapshot or the new one, never a half-updated model.
//! * **The writer** owns the [`ServingEngine`]: it ingests claims into the wrapped
//!   engine (window maintenance and compaction hygiene included), starts a refit on a
//!   thread of its own when the engine's [`RefitPolicy`] fires, and publishes fresh
//!   snapshots.
//!
//! # Snapshot lifecycle
//!
//! ```text
//!              ingest (writer thread)                    background (refit thread)
//!  claims ──▶ FusionEngine::ingest_no_refit ──┐
//!                                             ├─ policy fires? ──▶ training_snapshot ─▶ train()
//!             every publish_every claims ─────┤                          │
//!                    ▼                        ◀── poll: is_finished()? ◀─┘
//!             clone model+data, compile       install_model + publish
//!             trust table                     (model snapshot)
//!                    ▼
//!            ┌───────────────┐  one RwLock-guarded Arc store + epoch bump
//!            │ Arc swap      │ ─────────────────────────────────────────▶ readers
//!            └───────────────┘   (readers re-grab only when the epoch moved)
//! ```
//!
//! A snapshot is published in two situations: a **data snapshot** every
//! [`ServingEngine::with_publish_every`] ingested claims (same model, fresher dataset —
//! exactly the "serve new claims under the fitted parameters" split the engine already
//! implements), and a **model snapshot** whenever a background refit completes and its
//! model is installed. Both are full [`ModelSnapshot`]s; the distinction is only what
//! changed since the previous epoch.
//!
//! # Staleness semantics
//!
//! Staleness is measured in *claims*, not time: `claims_ingested −
//! snapshot.claims_ingested` — how many appended claims a freshly-grabbed snapshot does
//! not yet reflect in its dataset. It is bounded by the publish cadence (at most
//! `publish_every − 1` in steady state, [`ServingEngine::publish_now`] forces it to 0)
//! and is *independent of refits in flight*: a snapshot's dataset can be fully fresh
//! while its model parameters date from the last completed refit, which is the
//! engine's normal zero-retraining serving mode.
//!
//! # Reads are lock-free
//!
//! A [`ServingReader`] caches the `Arc<ModelSnapshot>` it last grabbed together with its
//! epoch. The steady-state query path is: one atomic epoch load, compare to the cached
//! epoch, serve from the cached snapshot — no lock, no reference-count traffic, no
//! contention with the writer or other readers. Only when the epoch moved does the
//! reader take a brief read-lock to clone the new `Arc` (an O(1) pointer clone; the
//! writer holds the matching write-lock only for the O(1) store, never during training
//! or snapshot construction). Readers therefore never block behind a refit.
//!
//! # Determinism
//!
//! Background refits train on a [`crate::engine::TrainingSnapshot`] captured at a deterministic claim
//! count, and training is bitwise-deterministic at any `SLIMFAST_THREADS` setting — so
//! a published model snapshot is bitwise-identical to what a synchronous
//! [`FusionEngine::refit`] at the capture's claim count would have served, no matter
//! how long the background refit ran or what else overlapped with it. The integration
//! tests assert exactly this.
//!
//! # Persistence & cold start
//!
//! A [`ModelSnapshot`] is also the unit of persistence: [`ModelSnapshot::write_to`]
//! serializes the full serving state — the fitted model, the compacted dataset, the
//! feature matrix, and the precompiled trust table — into one versioned, checksummed
//! `SLFS` container built from the [`slimfast_data::format`] wire vocabulary, and
//! [`ServingEngine::from_snapshot`] cold-starts a serving tier from a reloaded
//! snapshot *without retraining*: the restored snapshot is installed as the initial
//! published epoch, so the first posterior served after a restart is bitwise-identical
//! to the last one served before the save. Writes go through
//! [`slimfast_data::atomic_write`], so a crash mid-save never truncates a previously
//! good snapshot file.
//!
//! # Fault tolerance
//!
//! A failed background refit — a panic on its thread, which [`JoinHandle::join`] hands
//! back as a value, a thread the OS refused to start, or an error from training — never
//! takes serving down: the writer keeps publishing (and readers keep serving) the
//! current epoch-swapped snapshot, and the failure is handled by a supervision loop
//! configured through [`RetryPolicy`]:
//!
//! * the first failure moves the engine to [`HealthState::Degraded`] and schedules a
//!   retry after a claim-count backoff (deterministic — no wall clock), doubling per
//!   consecutive failure;
//! * [`RetryPolicy::max_attempts`] consecutive failures move it to
//!   [`HealthState::Quarantined`]: automatic dispatch stops until an operator calls
//!   [`ServingEngine::refit_background`] (always honored) or
//!   [`ServingEngine::reset_health`];
//! * any successful refit install resets the engine to [`HealthState::Healthy`].
//!
//! [`ServingEngine::health`] reports the full picture; [`ServingEngine::stats`]
//! carries the headline state and failure counters. The synchronous
//! [`ServingEngine::refit_now`] path is *not* supervised — it trains inline on the
//! caller, which keeps its error behavior (propagate) unchanged.
//!
//! For crash recovery across process restarts, [`ServingEngine::checkpoint`] rotates
//! `SLFS` bundles into a [`SnapshotDir`] as numbered generations and
//! [`ServingEngine::recover`] cold-starts from the newest generation that parses
//! cleanly, scanning past torn or corrupt files (see [`SnapshotDir::recover`]).

use std::io::{Read, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;

use slimfast_data::{
    atomic_write, format, snapshot as columnar, DataError, Dataset, FeatureMatrix, GroundTruth,
    NamedObservation, ObjectId, SnapshotDir, TruthAssignment, ValueId,
};

use crate::config::RefitPolicy;
use crate::engine::FusionEngine;
use crate::exec::{self, execution_lanes, num_threads};
use crate::model::SlimFastModel;
use crate::optimizer::OptimizerDecision;
use crate::slimfast::SlimFast;

/// Object handles per task in the batched [`ModelSnapshot::posteriors`] fan-out.
/// Constant — never derived from the thread count — so the task grid, and therefore
/// the result, is identical in every configuration.
const POSTERIOR_CHUNK: usize = 256;

/// Magic prefix of a serialized [`ModelSnapshot`] bundle ("SLiMFast Serving").
const SNAPSHOT_MAGIC: [u8; 4] = *b"SLFS";

/// Current [`ModelSnapshot`] bundle format version.
///
/// Version 1 nests the independently versioned section containers (the model blob,
/// the `SLFD` dataset container, the `SLFF` features container), so the bundle version
/// only changes when the *bundle* layout does — a dataset- or model-format revision is
/// absorbed by the nested containers' own version fields.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// The fixed fields of an `SLFS` bundle and where its model and dataset sections lie
/// in the payload: what [`ModelSnapshot::from_bytes`] reads before it verifies both
/// checksums or parses any section.
struct BundleFraming {
    epoch: u64,
    claims_ingested: u64,
    refits_installed: usize,
    decision: OptimizerDecision,
    model: Range<usize>,
    /// The dataset container, its own trailer included.
    dataset: Range<usize>,
}

impl BundleFraming {
    /// Reads the framing from a bundle's payload (everything in front of its trailer),
    /// bounds-checked: any failure is an error, never a panic.
    fn read(payload: &[u8]) -> Result<Self, DataError> {
        let mut cursor = format::Cursor::new(payload);
        cursor.read_exact(8)?; // magic and version, checked by the caller
        let epoch = cursor.read_varint()?;
        let claims_ingested = cursor.read_varint()?;
        let refits_installed = cursor.read_len(usize::MAX)?;
        let decision = match cursor.read_u8()? {
            0 => OptimizerDecision::Erm,
            1 => OptimizerDecision::Em,
            other => {
                return Err(format::corrupt(format!(
                    "unknown optimizer decision tag {other}"
                )))
            }
        };
        let section = |cursor: &mut format::Cursor<'_>| {
            let len = cursor.read_len(cursor.remaining())?;
            let start = payload.len() - cursor.remaining();
            cursor.read_exact(len)?;
            Ok::<_, DataError>(start..start + len)
        };
        let model = section(&mut cursor)?;
        let dataset = section(&mut cursor)?;
        if dataset.len() < 8 {
            return Err(format::corrupt("dataset section shorter than its checksum"));
        }
        Ok(Self {
            epoch,
            claims_ingested,
            refits_installed,
            decision,
            model,
            dataset,
        })
    }
}

/// An immutable, consistent view of the serving state: one fitted model, the dataset
/// as of publish time, and the compiled per-source trust table
/// ([`SlimFastModel::trust_scores`]). Everything a posterior query needs, frozen —
/// readers share snapshots by `Arc` and never coordinate.
#[derive(Debug)]
pub struct ModelSnapshot {
    model: SlimFastModel,
    dataset: Dataset,
    features: FeatureMatrix,
    /// Compiled trust table: `trust[s]` is the model's trust score for source `s`,
    /// precomputed once at publish so per-claim scoring is a table lookup.
    trust: Vec<f64>,
    /// Which learner produced the model (forwarded to
    /// [`FusionEngine::from_model`] on restore so refits keep using it).
    decision: OptimizerDecision,
    epoch: u64,
    claims_ingested: u64,
    refits_installed: usize,
}

impl ModelSnapshot {
    fn capture(engine: &FusionEngine, epoch: u64, claims_ingested: u64) -> Self {
        let model = engine.model().clone();
        let dataset = engine.dataset().clone();
        let features = engine.features().clone();
        let trust = model.trust_scores(&dataset, &features);
        Self {
            model,
            dataset,
            features,
            trust,
            decision: engine.decision(),
            epoch,
            claims_ingested,
            refits_installed: engine.refit_count(),
        }
    }

    /// The publish epoch: strictly increasing across snapshots of one engine.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Claims the writer had ingested when this snapshot was published; the dataset
    /// reflects exactly these claims (minus window evictions).
    pub fn claims_ingested(&self) -> u64 {
        self.claims_ingested
    }

    /// Refits installed into the engine up to this snapshot (a model-version counter).
    pub fn refits_installed(&self) -> usize {
        self.refits_installed
    }

    /// Which learner ([`OptimizerDecision::Erm`] / [`OptimizerDecision::Em`]) produced
    /// this snapshot's model.
    pub fn decision(&self) -> OptimizerDecision {
        self.decision
    }

    /// Serializes the full serving state into one `SLFS` bundle:
    ///
    /// ```text
    /// magic "SLFS" | version u32 LE
    /// | varint epoch | varint claims_ingested | varint refits_installed
    /// | decision u8 (0 = ERM, 1 = EM)
    /// | varint len + model blob          (crate::model — own magic/version/checksum)
    /// | varint len + dataset container   (SLFD — slimfast_data::snapshot)
    /// | varint len + features container  (SLFF — slimfast_data::snapshot)
    /// | varint trust len | f64 column    (precompiled trust table)
    /// | FNV-1a 64 checksum of everything above
    /// ```
    ///
    /// The dataset is written in compacted form: an uncompacted snapshot writes
    /// [`Dataset::compacted`] (content-preserving, so reloaded posteriors are
    /// unchanged). The dataset container's own checksum and the bundle's are computed
    /// in one pass over the dataset bytes ([`format::seal_nested`]).
    pub fn to_bytes(&self) -> Result<Vec<u8>, DataError> {
        let compacted;
        let dataset = if self.dataset.is_compacted() {
            &self.dataset
        } else {
            compacted = self.dataset.compacted();
            &compacted
        };
        let dataset_bytes = columnar::dataset_to_unsealed_bytes(dataset)?;
        let model_bytes = self.model.to_bytes();
        let features_bytes = columnar::features_to_bytes(&self.features);
        let mut bytes = Vec::with_capacity(
            64 + model_bytes.len()
                + dataset_bytes.len()
                + features_bytes.len()
                + 8 * self.trust.len(),
        );
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        bytes.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        format::write_varint(&mut bytes, self.epoch);
        format::write_varint(&mut bytes, self.claims_ingested);
        format::write_varint(&mut bytes, self.refits_installed as u64);
        bytes.push(match self.decision {
            OptimizerDecision::Erm => 0,
            OptimizerDecision::Em => 1,
        });
        format::write_varint(&mut bytes, model_bytes.len() as u64);
        bytes.extend_from_slice(&model_bytes);
        // The dataset container's trailer is left zeroed here and sealed below.
        format::write_varint(&mut bytes, dataset_bytes.len() as u64 + 8);
        let dataset_at = bytes.len();
        bytes.extend_from_slice(&dataset_bytes);
        bytes.extend_from_slice(&[0; 8]);
        let dataset_section = dataset_at..bytes.len();
        format::write_varint(&mut bytes, features_bytes.len() as u64);
        bytes.extend_from_slice(&features_bytes);
        format::write_varint(&mut bytes, self.trust.len() as u64);
        format::write_f64_column(&mut bytes, &self.trust);
        format::seal_nested(&mut bytes, dataset_section);
        Ok(bytes)
    }

    /// Deserializes a bundle written by [`ModelSnapshot::to_bytes`].
    ///
    /// The checksums decide the result before any parsed value is returned. The
    /// bundle's trailer covers every payload byte, and the dataset container's own
    /// trailer is compared in the same pass over its bytes, from the section bounds in
    /// the bundle's bounds-checked framing. With two execution lanes that check runs on
    /// a scoped thread beside the parse of the sections, and a mismatch discards
    /// whatever the parse produced, value or error; with one lane (`SLIMFAST_THREADS=1`,
    /// a one-core host, or a call from inside an executor lane) the check runs first and
    /// the sections are parsed only after it passes. Either way an input gives the same
    /// value or the same error. When the framing cannot be read, the whole bundle is
    /// verified first, so a corrupt bundle reports a checksum mismatch.
    ///
    /// Corruption anywhere — bad magic, a flipped bit, truncation at any byte,
    /// inconsistent section dimensions — yields [`DataError::CorruptModel`]; a bundle
    /// from a newer library yields [`DataError::UnsupportedModelVersion`]. Never
    /// panics on untrusted input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DataError> {
        Self::decode(bytes, execution_lanes(num_threads(), 2) >= 2)
    }

    /// [`ModelSnapshot::from_bytes`] with the lane choice made: `side_by_side` checks
    /// both trailers on a scoped thread while this one parses; otherwise the check
    /// runs first.
    fn decode(bytes: &[u8], side_by_side: bool) -> Result<Self, DataError> {
        if bytes.len() < 8 {
            return Err(format::corrupt(
                "snapshot bundle shorter than the fixed header",
            ));
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(format::corrupt("bad snapshot bundle magic"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version == 0 || version > SNAPSHOT_FORMAT_VERSION {
            return Err(DataError::UnsupportedModelVersion {
                found: version,
                supported: SNAPSHOT_FORMAT_VERSION,
            });
        }
        let payload = &bytes[..bytes.len() - 8];
        let framing = match BundleFraming::read(payload) {
            Ok(framing) => framing,
            Err(err) => {
                format::split_checksum(bytes)?;
                return Err(err);
            }
        };
        let verify = || format::split_nested_checksums(bytes, framing.dataset.clone());
        if !side_by_side {
            verify()?;
            return Self::parse_sections(payload, &framing);
        }
        let (verified, parsed) = std::thread::scope(|scope| {
            let verifier = scope.spawn(verify);
            let parsed = Self::parse_sections(payload, &framing);
            (verifier.join(), parsed)
        });
        verified.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        parsed
    }

    /// Parses the sections of a bundle payload whose framing has been read. Compares
    /// no bundle or dataset trailer: [`ModelSnapshot::decode`] does, and drops this
    /// result on a mismatch.
    fn parse_sections(payload: &[u8], framing: &BundleFraming) -> Result<Self, DataError> {
        let model = SlimFastModel::from_bytes(&payload[framing.model.clone()])?;
        let dataset = columnar::dataset_from_unverified_bytes(&payload[framing.dataset.clone()])?;
        let mut cursor = format::Cursor::new(&payload[framing.dataset.end..]);
        let n = cursor.read_len(cursor.remaining())?;
        let features = columnar::features_from_bytes(cursor.read_exact(n)?)?;
        let trust_len = cursor.read_len(u32::MAX as usize)?;
        let trust = cursor.read_f64_column(trust_len)?;
        if !cursor.is_empty() {
            return Err(format::corrupt(
                "trailing bytes after the snapshot sections",
            ));
        }
        if trust.len() != dataset.num_sources() {
            return Err(format::corrupt(format!(
                "trust table covers {} sources but the dataset has {}",
                trust.len(),
                dataset.num_sources()
            )));
        }
        if features.num_sources() != dataset.num_sources() {
            return Err(format::corrupt(format!(
                "feature matrix covers {} sources but the dataset has {}",
                features.num_sources(),
                dataset.num_sources()
            )));
        }
        if model.weights().len() != dataset.num_sources() + features.num_features() {
            return Err(format::corrupt(format!(
                "model has {} weights for {} sources + {} features",
                model.weights().len(),
                dataset.num_sources(),
                features.num_features()
            )));
        }
        Ok(Self {
            model,
            dataset,
            features,
            trust,
            decision: framing.decision,
            epoch: framing.epoch,
            claims_ingested: framing.claims_ingested,
            refits_installed: framing.refits_installed,
        })
    }

    /// Writes the bundle to any [`Write`] sink. See [`ModelSnapshot::to_bytes`] for
    /// the layout; prefer [`ModelSnapshot::write_to_file`] for paths — it writes
    /// atomically.
    pub fn write_to<W: Write>(&self, mut writer: W) -> Result<(), DataError> {
        writer.write_all(&self.to_bytes()?)?;
        Ok(())
    }

    /// Reads a bundle from any [`Read`] source (reads to end, then parses).
    pub fn read_from<R: Read>(mut reader: R) -> Result<Self, DataError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Writes the bundle to a file via [`slimfast_data::atomic_write`]: the bytes land
    /// in a temp file, are fsynced, and are renamed over `path`, so a crash mid-write
    /// never leaves a truncated snapshot behind.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<(), DataError> {
        atomic_write(path, &self.to_bytes()?)
    }

    /// Reads a bundle from a file written by [`ModelSnapshot::write_to_file`].
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<Self, DataError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// The frozen model serving this snapshot.
    pub fn model(&self) -> &SlimFastModel {
        &self.model
    }

    /// The frozen dataset serving this snapshot.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The posterior over the candidate values of the named object (order of
    /// [`Dataset::domain`]); `None` for objects this snapshot has never heard of.
    pub fn posterior(&self, object: &str) -> Option<Vec<f64>> {
        let o = self.dataset.object_id(object)?;
        self.posterior_by_id(o)
    }

    /// The posterior over the candidate values of an object handle; `None` for handles
    /// beyond the snapshot's object count, so untrusted ids can never crash a reader.
    /// Scored from the compiled trust table — bitwise-identical to
    /// [`SlimFastModel::posterior`] on the snapshot's dataset.
    pub fn posterior_by_id(&self, o: ObjectId) -> Option<Vec<f64>> {
        if o.index() >= self.dataset.num_objects() {
            return None;
        }
        let mut scores = Vec::new();
        self.model
            .posterior_with_trust(&self.dataset, o, &self.trust, &mut scores);
        Some(scores)
    }

    /// Batched posteriors: one posterior per requested handle, in request order, with
    /// an empty posterior for out-of-range handles (so one bad id in a batch cannot
    /// poison its neighbours). Large batches fan out over [`exec::for_each_slice_mut`]
    /// lanes in fixed `POSTERIOR_CHUNK`-handle tasks; results are identical at any
    /// thread count, and batches under [`exec::INLINE_MIN_ITEMS`] handles answer
    /// inline.
    pub fn posteriors(&self, ids: &[ObjectId]) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
        let boundaries: Vec<usize> = (0..ids.len())
            .step_by(POSTERIOR_CHUNK)
            .chain([ids.len()])
            .collect();
        exec::for_each_slice_mut(&mut out, &boundaries, num_threads(), |task, chunk| {
            let start = task * POSTERIOR_CHUNK;
            for (slot, &o) in chunk.iter_mut().zip(&ids[start..]) {
                *slot = self.posterior_by_id(o).unwrap_or_default();
            }
        });
        out
    }

    /// MAP value and posterior probability of the named object; `None` for unknown or
    /// unobserved objects.
    pub fn map_value(&self, object: &str) -> Option<(ValueId, f64)> {
        let o = self.dataset.object_id(object)?;
        self.model.map_value(&self.dataset, &self.features, o)
    }

    /// MAP assignment over every object in the snapshot.
    pub fn predict(&self) -> TruthAssignment {
        self.model.predict(&self.dataset, &self.features)
    }
}

/// Read-locks the snapshot store, recovering the guard even if a panicking thread
/// poisoned it. The store only ever holds an `Arc` replaced wholesale, never mutated in
/// place across a panic point, so a poisoned lock cannot expose a half-written value,
/// and the query paths must keep working after a supervised panic rather than cascade
/// it.
fn read_ignore_poison<T: ?Sized>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`read_ignore_poison`], for the write side.
fn write_ignore_poison<T: ?Sized>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between the writer and every reader: the current snapshot behind a
/// brief lock, and its epoch as a lock-free fast-path discriminator.
#[derive(Debug)]
struct ServeShared {
    /// Current snapshot. Write-locked only for the O(1) `Arc` store at publish;
    /// read-locked only for the O(1) `Arc` clone when a reader's cached epoch is stale.
    snapshot: RwLock<Arc<ModelSnapshot>>,
    /// Epoch of the current snapshot; readers poll this single atomic to decide
    /// whether their cached `Arc` is still current.
    epoch: AtomicU64,
    /// Total non-duplicate claims ingested by the writer (the staleness numerator).
    claims_ingested: AtomicU64,
    /// Snapshots published since construction.
    swaps: AtomicU64,
}

/// What a supervised background training attempt produced: the trained model, or the
/// error the `refit.train` fault site injected (production training is infallible —
/// panics, not errors, are the real-world failure mode, and those surface as the
/// `Err` of [`JoinHandle::join`]).
type RefitOutcome = Result<(SlimFastModel, OptimizerDecision), DataError>;

/// A background refit in flight on its own thread. Dropping the engine detaches a
/// refit still training; its outcome is discarded.
struct InFlightRefit {
    /// The training thread; it returns the outcome, or its panic payload on `join`.
    handle: JoinHandle<RefitOutcome>,
    /// `claims_since_fit` covered by the capture (forwarded to
    /// [`FusionEngine::install_model`]).
    covered: usize,
}

/// How the serving tier reacts to failed background refits: how many consecutive
/// failures to tolerate before quarantining, and how long to back off between
/// attempts — measured in **ingested claims**, not wall-clock time, so retry
/// schedules are deterministic and reproducible in CI.
///
/// The backoff is exponential: after the `k`-th consecutive failure the next
/// automatic dispatch waits until `backoff_claims * 2^(k-1)` further claims have been
/// ingested (saturating). Once `max_attempts` consecutive failures accumulate the
/// engine is [`HealthState::Quarantined`] and stops dispatching on its own; see the
/// [fault-tolerance section](self#fault-tolerance) of the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive failures tolerated before the engine quarantines (min 1).
    pub max_attempts: u32,
    /// Base claim-count backoff before the first retry.
    pub backoff_claims: u64,
}

impl RetryPolicy {
    /// Default consecutive-failure budget.
    pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;
    /// Default base backoff, in ingested claims.
    pub const DEFAULT_BACKOFF_CLAIMS: u64 = 64;

    /// A policy tolerating `max_attempts` consecutive failures (clamped to at least
    /// 1) with a base backoff of `backoff_claims` ingested claims.
    pub fn new(max_attempts: u32, backoff_claims: u64) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff_claims,
        }
    }

    /// Claims to wait before the retry that follows the `consecutive_failures`-th
    /// consecutive failure: `backoff_claims * 2^(consecutive_failures - 1)`,
    /// saturating.
    pub fn backoff_after(&self, consecutive_failures: u32) -> u64 {
        let shift = consecutive_failures.saturating_sub(1).min(63);
        self.backoff_claims.saturating_mul(1u64 << shift)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new(Self::DEFAULT_MAX_ATTEMPTS, Self::DEFAULT_BACKOFF_CLAIMS)
    }
}

/// Refit-supervision state of a serving engine. Transitions:
/// `Healthy → Degraded` on a refit failure, `Degraded → Quarantined` after
/// [`RetryPolicy::max_attempts`] consecutive failures, anything `→ Healthy` on a
/// successful install. Serving availability is unaffected in every state — the
/// published snapshot keeps answering queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// No outstanding refit failures.
    Healthy,
    /// At least one refit failed since the last success; retries are scheduled on
    /// the claim-count backoff.
    Degraded,
    /// The consecutive-failure budget is exhausted; automatic refit dispatch is
    /// suspended until [`ServingEngine::refit_background`] or
    /// [`ServingEngine::reset_health`].
    Quarantined,
}

/// Full refit-supervision report; see [`ServingEngine::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Current supervision state.
    pub state: HealthState,
    /// Consecutive failures since the last successful install.
    pub consecutive_refit_failures: u32,
    /// Total refit failures over the engine's lifetime.
    pub refit_failures: u64,
    /// Refit dispatches that were retries of a failed attempt.
    pub refit_retries: u64,
    /// Claim count (against [`ServingStats::claims_ingested`]) at which the next
    /// automatic retry unlocks; `None` when healthy or quarantined.
    pub next_retry_at_claims: Option<u64>,
    /// Message of the most recent refit failure (panic message or error display).
    pub last_refit_error: Option<String>,
    /// Epoch of the snapshot currently serving — the one failures fall back to.
    pub serving_epoch: u64,
}

/// Internal supervision bookkeeping behind [`ServingEngine::health`].
#[derive(Debug, Clone)]
struct Supervision {
    policy: RetryPolicy,
    state: HealthState,
    consecutive_failures: u32,
    failures: u64,
    retries: u64,
    next_retry_at_claims: Option<u64>,
    last_error: Option<String>,
}

impl Supervision {
    fn new(policy: RetryPolicy) -> Self {
        Self {
            policy,
            state: HealthState::Healthy,
            consecutive_failures: 0,
            failures: 0,
            retries: 0,
            next_retry_at_claims: None,
            last_error: None,
        }
    }

    /// Whether an automatic (policy-driven) dispatch may proceed at `claims` total
    /// ingested claims.
    fn allows_dispatch(&self, claims: u64) -> bool {
        match self.state {
            HealthState::Healthy => true,
            HealthState::Degraded => self.next_retry_at_claims.map_or(true, |at| claims >= at),
            HealthState::Quarantined => false,
        }
    }

    fn record_success(&mut self) {
        self.state = HealthState::Healthy;
        self.consecutive_failures = 0;
        self.next_retry_at_claims = None;
        self.last_error = None;
    }

    fn record_failure(&mut self, message: String, claims: u64) {
        self.failures += 1;
        self.consecutive_failures += 1;
        self.last_error = Some(message);
        if self.consecutive_failures >= self.policy.max_attempts {
            self.state = HealthState::Quarantined;
            self.next_retry_at_claims = None;
        } else {
            self.state = HealthState::Degraded;
            self.next_retry_at_claims =
                Some(claims.saturating_add(self.policy.backoff_after(self.consecutive_failures)));
        }
    }
}

/// Counters describing a serving engine's current state; see [`ServingEngine::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingStats {
    /// Epoch of the currently published snapshot.
    pub epoch: u64,
    /// Snapshots published since construction (data and model snapshots alike).
    pub snapshot_swaps: u64,
    /// Total non-duplicate claims ingested.
    pub claims_ingested: u64,
    /// Claims ingested but not yet reflected in the published snapshot's dataset.
    pub staleness: u64,
    /// Whether a background refit is currently training.
    pub refit_in_flight: bool,
    /// Refits installed into the engine (synchronous and background alike).
    pub refits_installed: usize,
    /// Current refit-supervision state (details via [`ServingEngine::health`]).
    pub health: HealthState,
    /// Total background-refit failures caught by supervision.
    pub refit_failures: u64,
    /// Refit dispatches that were retries of a failed attempt.
    pub refit_retries: u64,
}

/// The writer half of the serving tier: wraps a [`FusionEngine`], ingests claims,
/// dispatches background refits, and publishes [`ModelSnapshot`]s to readers.
///
/// Single-writer by construction (`&mut self` on every mutating method); hand out any
/// number of [`ServingReader`]s — they serve concurrently and lock-free from the
/// published snapshots while this engine mutates underneath. See the module docs for
/// the lifecycle.
///
/// ```
/// use slimfast_core::{FusionEngine, RefitPolicy, ServingEngine, SlimFast, SlimFastConfig};
/// use slimfast_data::{DatasetBuilder, FeatureMatrix, GroundTruth, NamedObservation};
///
/// let mut builder = DatasetBuilder::new();
/// builder.observe("alice", "sky", "blue").unwrap();
/// builder.observe("bob", "sky", "green").unwrap();
/// let dataset = builder.build();
/// let features = FeatureMatrix::empty(dataset.num_sources());
/// let truth = GroundTruth::empty(dataset.num_objects());
/// let engine = FusionEngine::fit(
///     SlimFast::new(SlimFastConfig::default()),
///     dataset,
///     features,
///     truth,
///     RefitPolicy::Never,
/// );
///
/// let mut serving = ServingEngine::new(engine);
/// let mut reader = serving.reader(); // move one per reader thread
/// serving
///     .ingest(&[NamedObservation::new("carol", "ocean", "blue")])
///     .unwrap();
/// serving.publish_now();
/// assert_eq!(reader.posterior("ocean").unwrap().len(), 1);
/// assert_eq!(reader.staleness(), 0);
/// ```
pub struct ServingEngine {
    engine: FusionEngine,
    shared: Arc<ServeShared>,
    refit: Option<InFlightRefit>,
    /// Publish a data snapshot after this many ingested claims (staleness bound).
    publish_every: usize,
    claims_since_publish: usize,
    /// Refit-failure bookkeeping behind [`ServingEngine::health`].
    supervision: Supervision,
    /// Test hook: the next dispatched refit waits to train until the sender paired
    /// with this receiver sends or is dropped, so a test can hold it in flight.
    #[cfg(test)]
    refit_latch: Option<std::sync::mpsc::Receiver<()>>,
}

impl ServingEngine {
    /// Default data-snapshot cadence: publish after this many ingested claims.
    pub const DEFAULT_PUBLISH_EVERY: usize = 512;

    /// Wraps a fitted engine and publishes the initial snapshot (epoch 1).
    pub fn new(engine: FusionEngine) -> Self {
        let shared = Arc::new(ServeShared {
            snapshot: RwLock::new(Arc::new(ModelSnapshot::capture(&engine, 1, 0))),
            epoch: AtomicU64::new(1),
            claims_ingested: AtomicU64::new(0),
            swaps: AtomicU64::new(1),
        });
        Self {
            engine,
            shared,
            refit: None,
            publish_every: Self::DEFAULT_PUBLISH_EVERY,
            claims_since_publish: 0,
            supervision: Supervision::new(RetryPolicy::default()),
            #[cfg(test)]
            refit_latch: None,
        }
    }

    /// Cold-starts a serving tier from a persisted [`ModelSnapshot`] *without
    /// retraining*: the snapshot itself becomes the initial published epoch, so the
    /// first posterior served is bitwise-identical to the last one the saving engine
    /// served — same model weights, same precompiled trust table, same dataset
    /// content. The wrapped [`FusionEngine`] is reassembled around clones of the
    /// snapshot's model and dataset (via [`FusionEngine::from_model`]), ready to
    /// ingest further claims and refit under `policy`.
    ///
    /// `estimator` supplies the training configuration for *future* refits; the
    /// snapshot pins which learner ([`ModelSnapshot::decision`]) produced the restored
    /// weights. Two counters restart rather than persist: the engine's
    /// [`FusionEngine::refit_count`] begins at 0 (the historical total remains
    /// available as [`ModelSnapshot::refits_installed`]), and ground-truth labels are
    /// not part of a snapshot — re-apply them through [`ServingEngine::label`] if
    /// refits should keep supervision.
    pub fn from_snapshot(
        snapshot: ModelSnapshot,
        estimator: SlimFast,
        policy: RefitPolicy,
    ) -> Self {
        let engine = FusionEngine::from_model(
            estimator,
            snapshot.model.clone(),
            snapshot.decision,
            snapshot.dataset.clone(),
            snapshot.features.clone(),
            GroundTruth::empty(snapshot.dataset.num_objects()),
            policy,
        );
        let epoch = snapshot.epoch;
        let claims_ingested = snapshot.claims_ingested;
        let shared = Arc::new(ServeShared {
            snapshot: RwLock::new(Arc::new(snapshot)),
            epoch: AtomicU64::new(epoch),
            claims_ingested: AtomicU64::new(claims_ingested),
            swaps: AtomicU64::new(1),
        });
        Self {
            engine,
            shared,
            refit: None,
            publish_every: Self::DEFAULT_PUBLISH_EVERY,
            claims_since_publish: 0,
            supervision: Supervision::new(RetryPolicy::default()),
            #[cfg(test)]
            refit_latch: None,
        }
    }

    /// Sets the data-snapshot cadence: a fresh snapshot is published after every
    /// `publish_every` ingested claims (clamped to at least 1), bounding reader
    /// staleness at `publish_every − 1` claims in steady state. Publishing clones the
    /// live dataset (O(live claims)), so the cadence trades freshness against writer
    /// throughput.
    pub fn with_publish_every(mut self, publish_every: usize) -> Self {
        self.publish_every = publish_every.max(1);
        self
    }

    /// Sets the refit-supervision [`RetryPolicy`] and resets the supervision state
    /// to [`HealthState::Healthy`]. The default policy is [`RetryPolicy::default`].
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.supervision = Supervision::new(policy);
        self
    }

    /// A new reader handle, pre-loaded with the current snapshot. Readers are
    /// independent: move one into each query thread.
    pub fn reader(&self) -> ServingReader {
        let snapshot = Arc::clone(&read_ignore_poison(&self.shared.snapshot));
        ServingReader {
            shared: Arc::clone(&self.shared),
            cached_epoch: snapshot.epoch,
            cached: snapshot,
        }
    }

    /// The currently published snapshot (an O(1) `Arc` clone under a brief read-lock).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&read_ignore_poison(&self.shared.snapshot))
    }

    /// Ingests a batch of claims and runs the serving maintenance cycle: window
    /// evictions and compaction hygiene inside the wrapped engine, completed background
    /// refits installed and published, a new refit dispatched if the engine's
    /// [`RefitPolicy`] fires while none is in flight, and a
    /// data snapshot published on the [`ServingEngine::with_publish_every`] cadence.
    /// Returns the number of non-duplicate claims appended.
    ///
    /// The refit itself runs on a thread of its own — this method never blocks on
    /// training, and readers keep serving the previous snapshot throughout.
    /// If the policy fires again while a refit is still in flight, no second job is
    /// dispatched; the policy is simply re-evaluated on a later ingest (the counters
    /// that made it fire keep accumulating, so the boundary is never lost).
    ///
    /// Fails fast on the first conflicting claim (earlier claims of the batch stay
    /// ingested); the serving state remains consistent either way.
    pub fn ingest(&mut self, claims: &[NamedObservation]) -> Result<usize, DataError> {
        let appended = self.engine.ingest_no_refit(claims)?;
        self.shared
            .claims_ingested
            .fetch_add(appended as u64, Ordering::Relaxed);
        self.claims_since_publish += appended;
        self.poll_refit();
        if self.refit.is_none()
            && self.engine.claims_since_fit() > 0
            && self.engine.should_refit()
            && self.supervision_allows_dispatch()
        {
            self.dispatch_refit();
        }
        if self.claims_since_publish >= self.publish_every {
            self.publish();
        }
        Ok(appended)
    }

    /// Records a ground-truth label through the wrapped engine and runs the same
    /// maintenance cycle as [`ServingEngine::ingest`]: completed refits install, and a
    /// new background refit is dispatched if the policy fires — the label itself never
    /// trains inline on the writer.
    pub fn label(&mut self, object: &str, value: &str) {
        self.engine.label_no_refit(object, value);
        self.poll_refit();
        if self.refit.is_none() && self.engine.should_refit() && self.supervision_allows_dispatch()
        {
            self.dispatch_refit();
        }
    }

    /// Whether the retry policy permits an automatic dispatch right now (always
    /// `true` when healthy; gated by the claim-count backoff when degraded; `false`
    /// when quarantined).
    fn supervision_allows_dispatch(&self) -> bool {
        self.supervision
            .allows_dispatch(self.shared.claims_ingested.load(Ordering::Relaxed))
    }

    /// Dispatches a background refit immediately, regardless of the refit policy
    /// *and* of the supervision state — a manual dispatch is honored even while
    /// [`HealthState::Quarantined`], so an operator can always force a retry.
    /// Returns `false` (and does nothing) if one is already in flight. The refit trains on a
    /// [`crate::engine::TrainingSnapshot`] captured *now*; claims ingested while it
    /// trains are served from snapshots and folded into the next refit.
    pub fn refit_background(&mut self) -> bool {
        self.poll_refit();
        if self.refit.is_some() {
            return false;
        }
        self.dispatch_refit();
        true
    }

    /// Whether a background refit is currently training (or finished but not yet
    /// resolved).
    pub fn refit_in_flight(&self) -> bool {
        self.refit.is_some()
    }

    /// Resolves a completed background refit if one has finished, without blocking.
    /// Returns whether a model snapshot was published — `false` both when nothing had
    /// finished and when the finished refit *failed*; a failure is recorded against
    /// the [`RetryPolicy`] and visible via [`ServingEngine::health`], while the
    /// current snapshot keeps serving untouched. ([`ServingEngine::ingest`] does this
    /// automatically; call it directly on idle writers.)
    pub fn poll_refit(&mut self) -> bool {
        if !self.refit.as_ref().is_some_and(|r| r.handle.is_finished()) {
            return false;
        }
        self.resolve_refit()
    }

    /// Blocks until any in-flight refit has trained, resolves it, and publishes a
    /// fresh snapshot reflecting every ingested claim (staleness 0). Returns whether a
    /// refit was installed — a failed refit resolves to `false` and is recorded
    /// against the [`RetryPolicy`] instead of installing. Use at stream quiescence
    /// (end of a phase, shutdown) to converge the published state.
    pub fn drain(&mut self) -> bool {
        let installed = if self.refit.is_some() {
            // `resolve_refit` joins the handle, which blocks until done.
            self.resolve_refit()
        } else {
            false
        };
        if self.claims_since_publish > 0 || !installed {
            self.publish();
        }
        installed
    }

    /// Synchronous refit + publish, blocking the writer: captures, trains inline, and
    /// publishes. Also drains any in-flight background refit first (resolving a
    /// failure if it carried one), so the installed model is the one trained on the
    /// current claims. Unlike background refits this path is unsupervised: it runs on
    /// the caller's thread, so a training panic propagates to the caller.
    pub fn refit_now(&mut self) {
        if self.refit.is_some() {
            self.resolve_refit();
        }
        self.engine.refit();
        self.publish();
    }

    /// Publishes a fresh snapshot of the current state immediately, forcing staleness
    /// to 0.
    pub fn publish_now(&mut self) {
        self.publish();
    }

    /// Current serving counters. `staleness` is measured against the published
    /// snapshot: claims ingested that its dataset does not reflect.
    pub fn stats(&self) -> ServingStats {
        let claims_ingested = self.shared.claims_ingested.load(Ordering::Relaxed);
        let snapshot_claims = read_ignore_poison(&self.shared.snapshot).claims_ingested;
        ServingStats {
            epoch: self.shared.epoch.load(Ordering::Acquire),
            snapshot_swaps: self.shared.swaps.load(Ordering::Relaxed),
            claims_ingested,
            staleness: claims_ingested - snapshot_claims,
            refit_in_flight: self.refit.is_some(),
            refits_installed: self.engine.refit_count(),
            health: self.supervision.state,
            refit_failures: self.supervision.failures,
            refit_retries: self.supervision.retries,
        }
    }

    /// Full refit-supervision report: health state, failure/retry counters, the
    /// claim count at which the next automatic retry unlocks, and the message of the
    /// most recent failure. See the [fault-tolerance section](self#fault-tolerance)
    /// of the module docs for the state machine.
    pub fn health(&self) -> HealthReport {
        HealthReport {
            state: self.supervision.state,
            consecutive_refit_failures: self.supervision.consecutive_failures,
            refit_failures: self.supervision.failures,
            refit_retries: self.supervision.retries,
            next_retry_at_claims: self.supervision.next_retry_at_claims,
            last_refit_error: self.supervision.last_error.clone(),
            serving_epoch: self.shared.epoch.load(Ordering::Acquire),
        }
    }

    /// Clears the supervision state back to [`HealthState::Healthy`] — an operator
    /// acknowledging a quarantine after fixing the underlying cause. Lifetime
    /// failure/retry totals are preserved; the consecutive-failure count, backoff
    /// schedule, and last-error message reset.
    pub fn reset_health(&mut self) {
        let mut fresh = Supervision::new(self.supervision.policy);
        fresh.failures = self.supervision.failures;
        fresh.retries = self.supervision.retries;
        self.supervision = fresh;
    }

    /// Persists the currently published snapshot as a new generation in `dir`
    /// (see [`SnapshotDir::write_generation`]) and returns its generation number.
    /// The write is atomic and the directory prunes itself to its retention bound.
    pub fn checkpoint(&self, dir: &SnapshotDir) -> Result<u64, DataError> {
        dir.write_generation(&self.snapshot().to_bytes()?)
    }

    /// Cold-starts a serving tier from the newest *valid* generation in `dir`:
    /// truncated or corrupt newer generations are skipped (a torn write never
    /// strands recovery), and the restored engine serves posteriors
    /// bitwise-identical to the ones the checkpointing engine served. See
    /// [`ServingEngine::from_snapshot`] for the cold-start semantics and
    /// [`SnapshotDir::recover`] to inspect which generations were skipped.
    ///
    /// Fails with [`DataError::Invalid`] only when *no* readable generation exists.
    pub fn recover(
        dir: &SnapshotDir,
        estimator: SlimFast,
        policy: RefitPolicy,
    ) -> Result<Self, DataError> {
        let recovered = dir.recover(ModelSnapshot::from_bytes)?;
        Ok(Self::from_snapshot(recovered.value, estimator, policy))
    }

    /// The wrapped engine (read-only; all mutation goes through the serving methods so
    /// the published snapshots stay consistent with the counters).
    pub fn engine(&self) -> &FusionEngine {
        &self.engine
    }

    fn dispatch_refit(&mut self) {
        if self.supervision.consecutive_failures > 0 {
            self.supervision.retries += 1;
        }
        let snapshot = self.engine.training_snapshot();
        let covered = snapshot.claims_since_fit();
        #[cfg(test)]
        let latch = self.refit_latch.take();
        let spawned = std::thread::Builder::new()
            .name("slimfast-refit".into())
            .spawn(move || {
                #[cfg(test)]
                if let Some(latch) = latch {
                    let _ = latch.recv();
                }
                snapshot.try_train()
            });
        match spawned {
            Ok(handle) => self.refit = Some(InFlightRefit { handle, covered }),
            // The OS refused a thread: a failed refit like any other, so serving goes on.
            Err(err) => {
                let claims = self.shared.claims_ingested.load(Ordering::Relaxed);
                self.supervision
                    .record_failure(format!("refit thread failed to start: {err}"), claims);
            }
        }
    }

    /// Joins the in-flight refit (blocking if it is still training) and resolves it.
    /// A successful training result is installed and published (returns `true`); a
    /// panic or training error is recorded against the [`RetryPolicy`] and the
    /// engine keeps serving the current snapshot untouched (returns `false`). Must
    /// only be called when `self.refit.is_some()`.
    fn resolve_refit(&mut self) -> bool {
        let refit = self.refit.take().expect("a refit is in flight");
        let outcome = refit.handle.join().unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Err(DataError::Invalid(format!("refit job panicked: {message}")))
        });
        match outcome {
            Ok((model, decision)) => {
                self.engine.install_model(model, decision, refit.covered);
                self.supervision.record_success();
                self.publish();
                true
            }
            Err(err) => {
                let claims = self.shared.claims_ingested.load(Ordering::Relaxed);
                self.supervision.record_failure(err.to_string(), claims);
                false
            }
        }
    }

    fn publish(&mut self) {
        let epoch = self.shared.epoch.load(Ordering::Relaxed) + 1;
        let claims = self.shared.claims_ingested.load(Ordering::Relaxed);
        let snapshot = Arc::new(ModelSnapshot::capture(&self.engine, epoch, claims));
        *write_ignore_poison(&self.shared.snapshot) = snapshot;
        self.shared.epoch.store(epoch, Ordering::Release);
        self.shared.swaps.fetch_add(1, Ordering::Relaxed);
        self.claims_since_publish = 0;
    }
}

impl std::fmt::Debug for ServingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingEngine")
            .field("stats", &self.stats())
            .field("publish_every", &self.publish_every)
            .finish_non_exhaustive()
    }
}

/// A per-thread reader handle: answers posterior queries lock-free from the most
/// recently published [`ModelSnapshot`].
///
/// The steady-state query path is one atomic epoch load against the cached snapshot —
/// no lock and no shared-pointer traffic; a brief read-lock is taken only on the query
/// *after* a publish, to clone the new `Arc`. Methods take `&mut self` purely for the
/// cache; clone the handle (or call [`ServingEngine::reader`] again) to serve from
/// more threads.
#[derive(Debug)]
pub struct ServingReader {
    shared: Arc<ServeShared>,
    cached_epoch: u64,
    cached: Arc<ModelSnapshot>,
}

impl Clone for ServingReader {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
            cached_epoch: self.cached_epoch,
            cached: Arc::clone(&self.cached),
        }
    }
}

impl ServingReader {
    /// The current snapshot, re-grabbed only if a newer epoch was published since the
    /// last call. This is the query fast path; all convenience methods below go
    /// through it.
    pub fn snapshot(&mut self) -> &Arc<ModelSnapshot> {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if epoch != self.cached_epoch {
            let current = read_ignore_poison(&self.shared.snapshot);
            self.cached = Arc::clone(&current);
            self.cached_epoch = self.cached.epoch;
        }
        &self.cached
    }

    /// Posterior of the named object from the current snapshot; `None` for unknown
    /// objects. See [`ModelSnapshot::posterior`].
    pub fn posterior(&mut self, object: &str) -> Option<Vec<f64>> {
        self.snapshot().posterior(object)
    }

    /// Posterior of an object handle from the current snapshot; `None` out of range.
    /// See [`ModelSnapshot::posterior_by_id`].
    pub fn posterior_by_id(&mut self, o: ObjectId) -> Option<Vec<f64>> {
        self.snapshot().posterior_by_id(o)
    }

    /// Batched posteriors from one consistent snapshot (the whole batch is answered at
    /// a single epoch). See [`ModelSnapshot::posteriors`].
    pub fn posteriors(&mut self, ids: &[ObjectId]) -> Vec<Vec<f64>> {
        // Clone the Arc so the borrow of `self` ends before the batch runs.
        let snapshot = Arc::clone(self.snapshot());
        snapshot.posteriors(ids)
    }

    /// Claims ingested by the writer that the current snapshot does not reflect.
    pub fn staleness(&mut self) -> u64 {
        let ingested = self.shared.claims_ingested.load(Ordering::Relaxed);
        ingested.saturating_sub(self.snapshot().claims_ingested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RefitPolicy, SlimFastConfig, WindowConfig};
    use crate::slimfast::SlimFast;
    use slimfast_data::{DatasetBuilder, GroundTruth};

    fn serving_fixture(policy: RefitPolicy) -> ServingEngine {
        let mut b = DatasetBuilder::new();
        for i in 0..200usize {
            let _ = b.observe(
                &format!("s{}", i % 11),
                &format!("o{}", i % 37),
                &format!("v{}", i % 3),
            );
        }
        let dataset = b.build();
        let features = FeatureMatrix::empty(dataset.num_sources());
        let truth = GroundTruth::empty(dataset.num_objects());
        let engine = FusionEngine::fit(
            SlimFast::em(SlimFastConfig::default()),
            dataset,
            features,
            truth,
            policy,
        );
        ServingEngine::new(engine)
    }

    fn claims(start: usize, n: usize) -> Vec<NamedObservation> {
        (start..start + n)
            .map(|i| {
                NamedObservation::new(
                    format!("s{}", i % 11),
                    format!("live-o{}", i % 53),
                    format!("v{}", i % 3),
                )
            })
            .collect()
    }

    #[test]
    fn initial_snapshot_serves_and_epochs_advance_on_publish() {
        let mut serving = serving_fixture(RefitPolicy::Never).with_publish_every(8);
        let mut reader = serving.reader();
        assert_eq!(reader.snapshot().epoch(), 1);
        assert!(reader.posterior("o0").is_some());
        assert!(reader.posterior("not-a-thing").is_none());

        // Below the cadence: no publish, staleness grows.
        serving.ingest(&claims(0, 5)).unwrap();
        assert_eq!(reader.staleness(), 5);
        assert_eq!(reader.snapshot().epoch(), 1);
        // Crossing the cadence publishes; the reader picks the new epoch up lock-free.
        serving.ingest(&claims(5, 5)).unwrap();
        assert_eq!(reader.snapshot().epoch(), 2);
        assert_eq!(reader.staleness(), 0);
        assert!(reader.posterior("live-o0").is_some());
        let stats = serving.stats();
        assert_eq!(stats.claims_ingested, 10);
        assert_eq!(stats.snapshot_swaps, 2);
        assert!(!stats.refit_in_flight);
    }

    #[test]
    fn snapshots_are_immutable_under_later_ingests() {
        let mut serving = serving_fixture(RefitPolicy::Never).with_publish_every(1);
        let mut reader = serving.reader();
        let before = Arc::clone(reader.snapshot());
        serving.ingest(&claims(0, 30)).unwrap();
        // The old snapshot still serves its own (pre-ingest) world.
        assert_eq!(before.claims_ingested(), 0);
        assert!(before.posterior("live-o0").is_none());
        // The reader sees the new world.
        assert!(reader.posterior("live-o0").is_some());
        assert_eq!(reader.snapshot().claims_ingested(), 30);
    }

    #[test]
    fn background_refit_installs_and_matches_refit_now() {
        let mut a = serving_fixture(RefitPolicy::Never);
        let mut b = serving_fixture(RefitPolicy::Never);
        a.ingest(&claims(0, 40)).unwrap();
        b.ingest(&claims(0, 40)).unwrap();

        // A refit of this fixture trains in about a millisecond, so hold it in flight
        // until the refusal is asserted; otherwise it may finish first and be resolved.
        let (release, latch) = std::sync::mpsc::channel::<()>();
        a.refit_latch = Some(latch);
        assert!(a.refit_background());
        // A second dispatch is refused while one is in flight.
        assert!(!a.refit_background());
        drop(release);
        assert!(a.drain());
        b.refit_now();

        assert_eq!(a.engine().refit_count(), 1);
        assert_eq!(
            a.engine().model().weights(),
            b.engine().model().weights(),
            "background and synchronous refits must produce identical models"
        );
        let sa = a.snapshot();
        let sb = b.snapshot();
        for name in ["o0", "o5", "live-o0", "live-o11"] {
            assert_eq!(sa.posterior(name), sb.posterior(name), "object {name}");
        }
        assert_eq!(a.stats().staleness, 0);
    }

    #[test]
    fn policy_fires_dispatch_background_refits_during_ingest() {
        let mut serving = serving_fixture(RefitPolicy::EveryNClaims(16)).with_publish_every(4);
        for i in 0..8 {
            serving.ingest(&claims(i * 8, 8)).unwrap();
        }
        serving.drain();
        // 64 claims at a boundary of 16: at least one refit installed (in-flight
        // refits absorb later boundaries), and the uncovered tail keeps counting.
        assert!(serving.engine().refit_count() >= 1);
        assert_eq!(serving.stats().staleness, 0);
        assert!(!serving.refit_in_flight());
        let mut reader = serving.reader();
        assert!(reader.posterior("live-o1").is_some());
    }

    #[test]
    fn batched_posteriors_match_single_queries_bitwise_and_reject_bad_ids() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.ingest(&claims(0, 100)).unwrap();
        serving.publish_now();
        let snapshot = serving.snapshot();
        let num_objects = snapshot.dataset().num_objects();
        // A large batch (several lanes' worth of chunks) with some out-of-range ids.
        let ids: Vec<ObjectId> = (0..exec::INLINE_MIN_ITEMS + 100)
            .map(|i| {
                if i % 97 == 13 {
                    ObjectId::new(num_objects + i)
                } else {
                    ObjectId::new(i % num_objects)
                }
            })
            .collect();
        let batch = snapshot.posteriors(&ids);
        assert_eq!(batch.len(), ids.len());
        for (i, o) in ids.iter().enumerate() {
            match snapshot.posterior_by_id(*o) {
                Some(single) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&single), bits(&batch[i]), "id {i}");
                }
                None => assert!(batch[i].is_empty(), "id {i} is out of range"),
            }
        }
    }

    #[test]
    fn snapshot_bundle_round_trips_bitwise() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.ingest(&claims(0, 75)).unwrap();
        serving.refit_now();
        let saved = serving.snapshot();

        let bytes = saved.to_bytes().unwrap();
        let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(restored.epoch(), saved.epoch());
        assert_eq!(restored.claims_ingested(), saved.claims_ingested());
        assert_eq!(restored.refits_installed(), saved.refits_installed());
        assert_eq!(restored.decision(), saved.decision());
        assert_eq!(restored.model().weights(), saved.model().weights());
        assert!(restored.dataset().same_content(saved.dataset()));

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for o in 0..saved.dataset().num_objects() {
            let a = saved.posterior_by_id(ObjectId::new(o)).unwrap();
            let b = restored.posterior_by_id(ObjectId::new(o)).unwrap();
            assert_eq!(bits(&a), bits(&b), "object {o}");
        }
    }

    #[test]
    fn uncompacted_snapshots_are_compacted_on_write_without_changing_posteriors() {
        let mut serving = serving_fixture(RefitPolicy::Never).with_publish_every(1);
        serving.ingest(&claims(0, 40)).unwrap();
        let saved = serving.snapshot();
        // The bundle is readable whether or not the captured dataset was compacted,
        // and posteriors survive the (content-preserving) compaction either way.
        let restored = ModelSnapshot::from_bytes(&saved.to_bytes().unwrap()).unwrap();
        assert!(restored.dataset().same_content(saved.dataset()));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for o in 0..saved.dataset().num_objects() {
            let a = saved.posterior_by_id(ObjectId::new(o)).unwrap();
            let b = restored.posterior_by_id(ObjectId::new(o)).unwrap();
            assert_eq!(bits(&a), bits(&b), "object {o}");
        }
    }

    #[test]
    fn from_snapshot_cold_starts_and_keeps_serving() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.ingest(&claims(0, 60)).unwrap();
        serving.refit_now();
        let saved = serving.snapshot();
        let bytes = saved.to_bytes().unwrap();

        let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
        let mut revived = ServingEngine::from_snapshot(
            restored,
            SlimFast::em(SlimFastConfig::default()),
            RefitPolicy::Never,
        );
        // The initial published epoch IS the restored snapshot: identical counters,
        // bitwise-identical posteriors, zero staleness, no retraining.
        let stats = revived.stats();
        assert_eq!(stats.epoch, saved.epoch());
        assert_eq!(stats.claims_ingested, saved.claims_ingested());
        assert_eq!(stats.staleness, 0);
        assert_eq!(revived.engine().refit_count(), 0);
        let mut reader = revived.reader();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for o in 0..saved.dataset().num_objects() {
            let a = saved.posterior_by_id(ObjectId::new(o)).unwrap();
            let b = reader.posterior_by_id(ObjectId::new(o)).unwrap();
            assert_eq!(bits(&a), bits(&b), "object {o}");
        }
        // The revived writer ingests, publishes, and refits like a fresh engine.
        revived.ingest(&claims(60, 30)).unwrap();
        revived.refit_now();
        assert_eq!(revived.engine().refit_count(), 1);
        assert!(reader.posterior("live-o7").is_some());
        assert_eq!(reader.staleness(), 0);
        assert!(reader.snapshot().epoch() > saved.epoch());
    }

    #[test]
    fn snapshot_bundle_rejects_corruption_and_future_versions() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.ingest(&claims(0, 25)).unwrap();
        serving.publish_now();
        let good = serving.snapshot().to_bytes().unwrap();

        // Truncation at every length parses to an error, never a panic.
        for len in 0..good.len() {
            assert!(
                ModelSnapshot::from_bytes(&good[..len]).is_err(),
                "truncation at {len} must fail"
            );
        }
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            ModelSnapshot::from_bytes(&bad),
            Err(DataError::CorruptModel { .. })
        ));
        // A flipped payload bit trips the bundle checksum.
        let mut bad = good.clone();
        let mid = 8 + (good.len() - 16) / 2;
        bad[mid] ^= 0x04;
        match ModelSnapshot::from_bytes(&bad) {
            Err(DataError::CorruptModel { message }) => {
                assert!(message.contains("checksum"), "message: {message}")
            }
            other => panic!("expected checksum failure, got {other:?}"),
        }
        // A future version is reported as unsupported, not corrupt.
        let mut future = good.clone();
        future[4..8].copy_from_slice(&(SNAPSHOT_FORMAT_VERSION + 3).to_le_bytes());
        assert!(matches!(
            ModelSnapshot::from_bytes(&future),
            Err(DataError::UnsupportedModelVersion { found, supported })
                if found == SNAPSHOT_FORMAT_VERSION + 3 && supported == SNAPSHOT_FORMAT_VERSION
        ));
        // An unknown decision tag in an otherwise well-formed bundle is corrupt.
        let mut crafted = Vec::new();
        crafted.extend_from_slice(&SNAPSHOT_MAGIC);
        crafted.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        format::write_varint(&mut crafted, 1); // epoch
        format::write_varint(&mut crafted, 0); // claims_ingested
        format::write_varint(&mut crafted, 0); // refits_installed
        crafted.push(7); // not a decision
        format::append_checksum(&mut crafted);
        match ModelSnapshot::from_bytes(&crafted) {
            Err(DataError::CorruptModel { message }) => {
                assert!(message.contains("decision"), "message: {message}")
            }
            other => panic!("expected decision-tag failure, got {other:?}"),
        }
    }

    /// Re-stamps a bundle's trailing checksum after a test edited its payload.
    fn restamp(bytes: &mut Vec<u8>) {
        bytes.truncate(bytes.len() - 8);
        format::append_checksum(bytes);
    }

    fn assert_checksum_error(result: Result<ModelSnapshot, DataError>, what: &str) {
        match result {
            Err(DataError::CorruptModel { message }) => {
                assert!(message.contains("checksum"), "{what}: {message}")
            }
            other => panic!("{what}: expected a checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn both_checksums_still_bite_after_fusing() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.publish_now();
        let good = serving.snapshot().to_bytes().unwrap();
        let framing = BundleFraming::read(&good[..good.len() - 8]).unwrap();
        let section = framing.dataset.clone();

        // A dataset edit that still parses (an object renamed to an unused name),
        // with only the bundle checksum re-stamped: the nested trailer catches it.
        let name = [3, b'o', b'1', b'7'];
        let at = section.start
            + good[section.clone()]
                .windows(name.len())
                .position(|w| w == name)
                .expect("object name in the dataset section");
        let mut renamed = good.clone();
        renamed[at + 1] = b'p';
        restamp(&mut renamed);
        assert_checksum_error(ModelSnapshot::from_bytes(&renamed), "renamed object");

        // An edited nested trailer, re-stamped, fails the same way.
        let mut trailer = good.clone();
        trailer[section.end - 1] ^= 0x80;
        restamp(&mut trailer);
        assert_checksum_error(ModelSnapshot::from_bytes(&trailer), "nested trailer");

        // A flipped bit in a section-length varint moves or breaks the framing; the
        // bundle checksum still covers every byte and reports it.
        for (what, range) in [("model", framing.model), ("dataset", section)] {
            let mut varint = Vec::new();
            format::write_varint(&mut varint, range.len() as u64);
            let at = range.start - varint.len();
            for (byte, bit) in [(at, 0), (range.start - 1, 6)] {
                let mut flipped = good.clone();
                flipped[byte] ^= 1 << bit;
                assert_checksum_error(ModelSnapshot::from_bytes(&flipped), what);
            }
        }
    }

    /// Decodes `bytes` with the checksum beside the parse and before it, and asserts
    /// that both fail with exactly `expected`.
    fn assert_both_paths_fail(bytes: &[u8], expected: &str, what: &str) {
        for side_by_side in [true, false] {
            match ModelSnapshot::decode(bytes, side_by_side) {
                Err(DataError::CorruptModel { message }) => {
                    assert_eq!(message, expected, "{what} (side by side: {side_by_side})")
                }
                other => panic!(
                    "{what} (side by side: {side_by_side}): expected '{expected}', got {other:?}"
                ),
            }
        }
    }

    /// Byte ranges of the blocks of an `SLFD` container in layout order: the
    /// `by_object` offsets, source, value and seq columns, the `by_source` offsets,
    /// object and value columns, then the domain offsets and value column.
    fn dataset_blocks(container: &[u8]) -> Vec<Range<usize>> {
        let payload = &container[..container.len() - 8];
        let mut cursor = format::Cursor::new(payload);
        cursor.read_exact(8).unwrap();
        for _ in 0..6 {
            cursor.read_varint().unwrap();
        }
        for _ in 0..3 {
            for _ in 0..cursor.read_varint().unwrap() {
                cursor.read_str().unwrap();
            }
        }
        let mut blocks = Vec::new();
        while !cursor.is_empty() {
            let start = payload.len() - cursor.remaining();
            cursor.read_block().unwrap();
            blocks.push(start..payload.len() - cursor.remaining());
        }
        assert_eq!(blocks.len(), 9);
        blocks
    }

    /// `bundle` with its dataset section replaced by `section`: the section length is
    /// re-framed, and every trailer stays as it was written.
    fn with_dataset_section(bundle: &[u8], framing: &BundleFraming, section: &[u8]) -> Vec<u8> {
        let mut varint = Vec::new();
        format::write_varint(&mut varint, framing.dataset.len() as u64);
        let mut out = bundle[..framing.dataset.start - varint.len()].to_vec();
        format::write_varint(&mut out, section.len() as u64);
        out.extend_from_slice(section);
        out.extend_from_slice(&bundle[framing.dataset.end..]);
        out
    }

    #[test]
    fn the_checksum_decides_whatever_the_parse_produced() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.publish_now();
        let snapshot = serving.snapshot();
        let good = snapshot.to_bytes().unwrap();
        let framing = BundleFraming::read(&good[..good.len() - 8]).unwrap();
        let container = &good[framing.dataset.clone()];
        for side_by_side in [true, false] {
            let back = ModelSnapshot::decode(&good, side_by_side).unwrap();
            assert!(back.dataset().same_content(snapshot.dataset()));
        }

        // Corruption the parser fails on as well, with both trailers as written: the
        // checksum error is reported, not the parse error.
        let blocks = dataset_blocks(container);
        let with_block = |index: usize, block: &[u8]| {
            let mut section = container[..blocks[index].start].to_vec();
            section.extend_from_slice(block);
            section.extend_from_slice(&container[blocks[index].end..]);
            with_dataset_section(&good, &framing, &section)
        };
        let n = snapshot.dataset().num_observations();
        // The `by_object` value column as one run-length pair (tag 1) whose run is
        // one longer than the longest run a pair may encode (64 KiB).
        let mut over_long_run = vec![1];
        format::write_varint(&mut over_long_run, 4 * n as u64);
        format::write_varint(&mut over_long_run, (1 << 16) + 1);
        over_long_run.push(0);
        // The `by_object` offsets with the last row one claim longer than the column.
        let mut offsets = format::Cursor::new(&container[blocks[0].clone()])
            .read_offsets(snapshot.dataset().num_objects(), n as u32)
            .unwrap();
        *offsets.last_mut().unwrap() += 1;
        let mut uncovered = Vec::new();
        format::write_offsets(&mut uncovered, &offsets);
        for (what, bundle) in [
            ("over-long run", with_block(2, &over_long_run)),
            ("uncovered column", with_block(0, &uncovered)),
        ] {
            let framing = BundleFraming::read(&bundle[..bundle.len() - 8]).unwrap();
            let parsed = ModelSnapshot::parse_sections(&bundle[..bundle.len() - 8], &framing);
            let err = parsed.expect_err("the parser fails too");
            assert!(!err.to_string().contains("checksum"), "{what}: {err}");
            assert_both_paths_fail(&bundle, "checksum mismatch", what);
        }

        // One flipped bit that still parses: an object renamed to an unused name, and
        // the last trust byte.
        let name = [3, b'o', b'1', b'7'];
        let at = framing.dataset.start
            + container
                .windows(name.len())
                .position(|w| w == name)
                .expect("object name in the dataset section");
        for (what, byte, bit) in [("renamed object", at + 1, 0), ("trust", good.len() - 9, 3)] {
            let mut flipped = good.clone();
            flipped[byte] ^= 1 << bit;
            let payload = &flipped[..flipped.len() - 8];
            assert!(
                ModelSnapshot::parse_sections(payload, &framing).is_ok(),
                "{what}"
            );
            assert_both_paths_fail(&flipped, "checksum mismatch", what);
        }

        // Only the nested trailer is wrong, and the bundle trailer is re-stamped over
        // it: the nested comparison reports it.
        let mut nested = good.clone();
        nested[framing.dataset.end - 1] ^= 0x80;
        restamp(&mut nested);
        assert!(ModelSnapshot::parse_sections(&nested[..nested.len() - 8], &framing).is_ok());
        assert_both_paths_fail(
            &nested,
            "nested container checksum mismatch",
            "nested trailer",
        );
    }

    /// A small seeded generator (SplitMix64) for the damage tests.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    #[test]
    fn random_damage_is_a_checksum_error_and_never_a_panic() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.ingest(&claims(0, 30)).unwrap();
        serving.publish_now();
        let good = serving.snapshot().to_bytes().unwrap();
        let mut rng = SplitMix(0x00DA_3A6E);
        let (mut restamped_ok, mut restamped_err) = (0, 0);
        for case in 0..600 {
            // 1–3 distinct bit flips after the fixed header, which is checked before
            // any checksum, or a truncation that keeps the header.
            let mut damaged = good.clone();
            if case % 4 == 3 {
                damaged.truncate(8 + rng.below(good.len() - 8));
            } else {
                let mut bits: Vec<usize> = Vec::new();
                while bits.len() < 1 + case % 3 {
                    let bit = 64 + rng.below(8 * (good.len() - 8));
                    if !bits.contains(&bit) {
                        bits.push(bit);
                    }
                }
                for bit in bits {
                    damaged[bit / 8] ^= 1 << (bit % 8);
                }
            }
            let what = format!("case {case}");
            assert_both_paths_fail(&damaged, "checksum mismatch", &what);

            // The same bytes as a payload under freshly stamped trailers, the nested one
            // included when the damaged framing still finds a dataset section: a value
            // or an error, the same through both paths, and never a panic.
            if case % 4 != 3 {
                damaged.truncate(damaged.len() - 8);
            }
            match BundleFraming::read(&damaged) {
                Ok(framing) => format::seal_nested(&mut damaged, framing.dataset),
                Err(_) => format::append_checksum(&mut damaged),
            }
            let side_by_side = ModelSnapshot::decode(&damaged, true);
            let serial = ModelSnapshot::decode(&damaged, false);
            match (&side_by_side, &serial) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.to_bytes().ok(), b.to_bytes().ok(), "{what}");
                    restamped_ok += 1;
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "{what}");
                    restamped_err += 1;
                }
                _ => panic!("{what}: {side_by_side:?} vs {serial:?}"),
            }
        }
        assert!(
            restamped_ok > 0 && restamped_err > 0,
            "{restamped_ok} / {restamped_err}"
        );
    }

    #[test]
    fn a_label_for_an_unseen_object_still_checkpoints_readably() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.label("never-claimed", "v0");
        serving.publish_now();
        let snapshot = serving.snapshot();
        let bytes = snapshot.to_bytes().unwrap();
        let back = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert!(back.dataset().same_content(snapshot.dataset()));
        assert_eq!(
            back.dataset().object_id("never-claimed"),
            snapshot.dataset().object_id("never-claimed")
        );
    }

    /// The compaction the bundle writer ran before merge compaction: rebuild the live
    /// claims from scratch (an indexing pass), then carry the compaction counter over,
    /// which a fresh build starts at zero, by patching it in the container header.
    fn compacted_by_rebuild(dataset: &Dataset) -> Dataset {
        let rebuilt = dataset.to_builder().build();
        let mut bytes = columnar::dataset_to_bytes(&rebuilt).unwrap();
        let mut counts = Vec::new();
        for count in [
            rebuilt.num_sources(),
            rebuilt.num_objects(),
            rebuilt.num_values(),
            rebuilt.num_observations(),
        ] {
            format::write_varint(&mut counts, count as u64);
        }
        let at = 8 + counts.len();
        assert_eq!(bytes[at], 0, "a fresh build has no compactions");
        bytes[at] = u8::try_from(dataset.compaction_count() + 1).expect("one-byte varint");
        restamp(&mut bytes);
        columnar::dataset_from_bytes(&bytes).unwrap()
    }

    #[test]
    fn uncompacted_snapshots_write_the_bytes_of_a_from_scratch_rebuild() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.publish_now();
        let published = serving.snapshot();
        let mut dataset = published.dataset().clone();
        // Tombstones among the base claims, pending appends after them (existing sources
        // only, so the trust table still fits), and one re-asserted claim.
        let victims: Vec<_> = dataset
            .live_observations()
            .step_by(7)
            .map(|obs| (obs.source, obs.object))
            .collect();
        dataset.evict_batch(&victims);
        for claim in claims(0, 40) {
            dataset
                .append_named(&claim.source, &claim.object, &claim.value)
                .unwrap();
        }
        let again = *dataset.live_observations().nth(3).unwrap();
        dataset.evict(again.source, again.object);
        dataset
            .append_ids(again.source, again.object, again.value)
            .unwrap();
        assert!(dataset.pending_appends() > 0 && dataset.dead_claims() > 0);

        let with_dataset = |dataset: Dataset| ModelSnapshot {
            model: published.model.clone(),
            dataset,
            features: published.features.clone(),
            trust: published.trust.clone(),
            decision: published.decision,
            epoch: published.epoch,
            claims_ingested: published.claims_ingested,
            refits_installed: published.refits_installed,
        };
        let bytes = with_dataset(dataset.clone()).to_bytes().unwrap();
        let reference = with_dataset(compacted_by_rebuild(&dataset));
        assert_eq!(bytes, reference.to_bytes().unwrap());
        let restored = ModelSnapshot::from_bytes(&bytes).unwrap();
        assert!(restored.dataset().same_content(&dataset));
    }

    #[test]
    fn snapshot_file_round_trip_is_atomic_and_lossless() {
        let mut serving = serving_fixture(RefitPolicy::Never);
        serving.ingest(&claims(0, 30)).unwrap();
        serving.publish_now();
        let saved = serving.snapshot();

        let dir = std::env::temp_dir().join(format!("slimfast-serve-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.slfs");
        saved.write_to_file(&path).unwrap();
        // Overwrite through the atomic path; the previous file is replaced, not
        // appended to, and no temp files are left behind.
        saved.write_to_file(&path).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("state.slfs")]);

        let restored = ModelSnapshot::read_from_file(&path).unwrap();
        assert_eq!(restored.model().weights(), saved.model().weights());
        assert!(restored.dataset().same_content(saved.dataset()));

        // The Write/Read pair speaks the same bytes as the file pair.
        let mut sink = Vec::new();
        saved.write_to(&mut sink).unwrap();
        assert_eq!(sink, std::fs::read(&path).unwrap());
        let again = ModelSnapshot::read_from(&sink[..]).unwrap();
        assert_eq!(again.claims_ingested(), saved.claims_ingested());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serving_composes_with_windows() {
        let mut b = DatasetBuilder::new();
        for i in 0..300usize {
            let _ = b.observe(&format!("s{}", i % 7), &format!("o{}", i % 61), "v0");
        }
        let dataset = b.build();
        let features = FeatureMatrix::empty(dataset.num_sources());
        let truth = GroundTruth::empty(dataset.num_objects());
        let engine = FusionEngine::fit(
            SlimFast::em(SlimFastConfig::default()),
            dataset,
            features,
            truth,
            RefitPolicy::Never,
        )
        .with_window(WindowConfig::new(300).with_eviction_batch(32));
        let mut serving = ServingEngine::new(engine).with_publish_every(64);
        serving.ingest(&claims(0, 128)).unwrap();
        serving.drain();
        // The window kept the live count near the horizon (within one eviction batch).
        let live = serving.engine().dataset().num_observations();
        assert!((300..300 + 32).contains(&live), "live = {live}");
        assert!(serving.engine().eviction_count() >= 96);
        // Snapshots serve the windowed view.
        let mut reader = serving.reader();
        assert_eq!(reader.staleness(), 0);
        assert!(reader.posterior("live-o0").is_some());
    }
}
