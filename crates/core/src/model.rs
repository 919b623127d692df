//! The SLiMFast parameter space and model: posterior over object values (Eq. 4) and the
//! source-accuracy model (Eq. 3), plus dependency-free binary persistence so fitted
//! models can be shipped to serving processes.

use slimfast_optim::{kernels, sigmoid, SparseVec};

use slimfast_data::format;
use slimfast_data::{
    DataError, Dataset, FeatureMatrix, ObjectId, SourceAccuracies, SourceId, TruthAssignment,
    ValueId,
};

/// Leading magic of a serialized [`SlimFastModel`] blob.
const MODEL_MAGIC: [u8; 4] = *b"SLMF";

/// Version of the serialized model format, the only one the reader accepts: a blob of
/// any other version, older or newer, reads as [`DataError::UnsupportedModelVersion`].
/// Bump on any layout change.
///
/// * **v1** — fixed-width header (`num_sources`/`num_features` as `u64`) and raw
///   little-endian weights; no longer readable.
/// * **v2** — counts as varints and the weight vector as a compressed `f64` column,
///   built on the shared wire primitives of [`slimfast_data::format`] (the same
///   vocabulary the dataset snapshot containers use).
pub const MODEL_FORMAT_VERSION: u32 = 2;

/// Layout of SLiMFast's parameter vector: one source-indicator weight `w_s` per source
/// followed by one weight `w_k` per domain feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParameterSpace {
    /// Number of sources `|S|`.
    pub num_sources: usize,
    /// Number of domain features `|K|`.
    pub num_features: usize,
}

impl ParameterSpace {
    /// Derives the parameter space from a fusion instance.
    pub fn new(dataset: &Dataset, features: &FeatureMatrix) -> Self {
        Self {
            num_sources: dataset.num_sources(),
            num_features: features.num_features(),
        }
    }

    /// Total number of parameters.
    pub fn len(&self) -> usize {
        self.num_sources + self.num_features
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of a source-indicator weight.
    pub fn source_param(&self, s: SourceId) -> usize {
        s.index()
    }

    /// Index of a feature weight.
    pub fn feature_param(&self, k: slimfast_data::FeatureId) -> usize {
        self.num_sources + k.index()
    }

    /// The sparse parameter footprint of one observation by source `s`: the source
    /// indicator plus the source's feature values. This is the per-claim contribution
    /// `w_s + Σ_k w_k f_{s,k}` of Equation 4, expressed as a vector so the same structure
    /// serves learning (gradient features) and inference (score accumulation).
    pub fn claim_vector(&self, s: SourceId, features: &FeatureMatrix) -> SparseVec {
        let mut v = SparseVec::new();
        v.add(self.source_param(s), 1.0);
        for (k, value) in features.features_of(s) {
            v.add(self.feature_param(*k), *value);
        }
        v
    }
}

/// A fitted SLiMFast model: the parameter space plus the learned weight vector.
#[derive(Debug, Clone)]
pub struct SlimFastModel {
    space: ParameterSpace,
    weights: Vec<f64>,
}

impl SlimFastModel {
    /// Wraps a weight vector (padded or truncated to the parameter-space length).
    pub fn new(space: ParameterSpace, mut weights: Vec<f64>) -> Self {
        weights.resize(space.len(), 0.0);
        Self { space, weights }
    }

    /// A model with all weights at zero (every source accuracy starts at 0.5).
    pub fn zeros(space: ParameterSpace) -> Self {
        Self::new(space, vec![0.0; space.len()])
    }

    /// The parameter space of the model.
    pub fn space(&self) -> ParameterSpace {
        self.space
    }

    /// The raw weight vector (sources first, then features).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Mutable access to the weight vector (EM updates it in place).
    pub fn weights_mut(&mut self) -> &mut Vec<f64> {
        &mut self.weights
    }

    /// The trustworthiness score `σ_s = w_s + Σ_k w_k f_{s,k}` of a source (Eq. 2/3).
    ///
    /// Sources that appeared after the model was fitted (their handle lies beyond the
    /// parameter space) have no learned indicator weight and contribute only their
    /// feature term — for feature-less sources that is a score of `0.0`, i.e. the
    /// uninformed accuracy of `0.5`. This is what lets a fitted model serve datasets
    /// that grew by a delta of new sources without retraining.
    pub fn trust_score(&self, s: SourceId, features: &FeatureMatrix) -> f64 {
        let indicator = self.source_weights().get(s.index()).copied().unwrap_or(0.0);
        indicator + features.dot(s, self.feature_weights())
    }

    /// The estimated accuracy `A_s = logistic(σ_s)` of a source (Eq. 3).
    pub fn source_accuracy(&self, s: SourceId, features: &FeatureMatrix) -> f64 {
        sigmoid(self.trust_score(s, features))
    }

    /// Estimated accuracies of all sources.
    pub fn source_accuracies(
        &self,
        dataset: &Dataset,
        features: &FeatureMatrix,
    ) -> SourceAccuracies {
        SourceAccuracies::new(
            dataset
                .source_ids()
                .map(|s| self.source_accuracy(s, features))
                .collect(),
        )
    }

    /// The slice of feature weights `⟨w_k⟩`, indexed by [`slimfast_data::FeatureId`].
    pub fn feature_weights(&self) -> &[f64] {
        &self.weights[self.space.num_sources..]
    }

    /// The slice of source-indicator weights `⟨w_s⟩`, indexed by [`SourceId`].
    pub fn source_weights(&self) -> &[f64] {
        &self.weights[..self.space.num_sources]
    }

    /// Predicted accuracy of a source described only by its features (no per-source
    /// indicator), as used for source-quality initialization of unseen sources.
    pub fn accuracy_from_features(
        &self,
        feature_values: &[(slimfast_data::FeatureId, f64)],
    ) -> f64 {
        let score: f64 = feature_values
            .iter()
            .map(|(k, v)| {
                self.feature_weights()
                    .get(k.index())
                    .copied()
                    .unwrap_or(0.0)
                    * v
            })
            .sum();
        sigmoid(score)
    }

    /// Fills `scores` with the object's posterior (Eq. 4) using `trust` to score each
    /// claiming source. The single scoring path behind [`SlimFastModel::posterior`] and
    /// [`SlimFastModel::predict`], so per-query and bulk inference cannot diverge.
    /// Normalises with the deterministic [`kernels::softmax_row`] — the same kernel the
    /// E-step uses — so serving posteriors match training posteriors at fixed weights.
    fn posterior_into(
        &self,
        dataset: &Dataset,
        o: ObjectId,
        trust: impl Fn(SourceId) -> f64,
        scores: &mut Vec<f64>,
    ) {
        let domain = dataset.domain(o);
        scores.clear();
        scores.resize(domain.len(), 0.0);
        for &(s, value) in dataset.observations_for_object(o) {
            if let Some(idx) = domain.iter().position(|&d| d == value) {
                scores[idx] += trust(s);
            }
        }
        kernels::softmax_row(scores);
    }

    /// Index and probability of the most probable entry; `None` for an empty posterior.
    fn argmax(posterior: &[f64]) -> Option<(usize, f64)> {
        posterior
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, p)| (i, *p))
    }

    /// The posterior `P(T_o = d | Ω; w)` over the candidate values `D_o` of object `o`
    /// (Eq. 4), in the order of [`Dataset::domain`].
    pub fn posterior(&self, dataset: &Dataset, features: &FeatureMatrix, o: ObjectId) -> Vec<f64> {
        let mut scores = Vec::new();
        self.posterior_into(dataset, o, |s| self.trust_score(s, features), &mut scores);
        scores
    }

    /// Precomputes the trust score of every source in `dataset`, indexed by
    /// [`SourceId`]. This is the "compiled posterior table" the serving tier pins next
    /// to a frozen model: scoring a claim becomes one table lookup instead of a feature
    /// dot product, and [`SlimFastModel::posterior_with_trust`] over the table is
    /// bitwise-identical to [`SlimFastModel::posterior`] because each entry is exactly
    /// the [`SlimFastModel::trust_score`] the per-query path would have computed.
    pub fn trust_scores(&self, dataset: &Dataset, features: &FeatureMatrix) -> Vec<f64> {
        dataset
            .source_ids()
            .map(|s| self.trust_score(s, features))
            .collect()
    }

    /// Fills `scores` with the posterior of `o` (order of [`Dataset::domain`]), scoring
    /// each claiming source from the precomputed `trust` table (see
    /// [`SlimFastModel::trust_scores`]). Sources beyond the table — ingested after it
    /// was compiled — contribute the uninformed score of `0.0`, mirroring how
    /// [`SlimFastModel::trust_score`] treats sources beyond the parameter space.
    pub fn posterior_with_trust(
        &self,
        dataset: &Dataset,
        o: ObjectId,
        trust: &[f64],
        scores: &mut Vec<f64>,
    ) {
        self.posterior_into(
            dataset,
            o,
            |s| trust.get(s.index()).copied().unwrap_or(0.0),
            scores,
        );
    }

    /// MAP value of one object with its posterior probability; `None` for objects without
    /// observations.
    pub fn map_value(
        &self,
        dataset: &Dataset,
        features: &FeatureMatrix,
        o: ObjectId,
    ) -> Option<(ValueId, f64)> {
        let posterior = self.posterior(dataset, features, o);
        let (best, prob) = Self::argmax(&posterior)?;
        Some((dataset.domain(o)[best], prob))
    }

    /// MAP assignment over all objects.
    ///
    /// Trust scores are precomputed once per source (instead of re-deriving the feature
    /// dot product per claim), so a full prediction pass is `O(|S|·|K| + |Ω|)` over the
    /// dataset's contiguous CSR arrays.
    pub fn predict(&self, dataset: &Dataset, features: &FeatureMatrix) -> TruthAssignment {
        let trust: Vec<f64> = dataset
            .source_ids()
            .map(|s| self.trust_score(s, features))
            .collect();
        let mut assignment = TruthAssignment::empty(dataset.num_objects());
        let mut scores: Vec<f64> = Vec::new();
        for o in dataset.object_ids() {
            self.posterior_into(dataset, o, |s| trust[s.index()], &mut scores);
            if let Some((best, prob)) = Self::argmax(&scores) {
                assignment.assign(o, dataset.domain(o)[best], prob);
            }
        }
        assignment
    }

    /// Serializes the model into a self-describing binary blob.
    ///
    /// Layout of the v2 format, built on the shared wire primitives of
    /// [`slimfast_data::format`] (all integers little-endian):
    ///
    /// ```text
    /// magic "SLMF" (4) | version u32 (4) | num_sources varint | num_features varint
    /// | weights f64 column block (raw or RLE, whichever is smaller) | fnv1a-64 (8)
    /// ```
    ///
    /// The checksum covers everything before it. Weights are written bit-exactly, so a
    /// round trip through [`SlimFastModel::from_bytes`] reproduces predictions and
    /// accuracies bit-for-bit. The format is hand-rolled and dependency-free.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(32 + 8 * self.weights.len());
        bytes.extend_from_slice(&MODEL_MAGIC);
        bytes.extend_from_slice(&MODEL_FORMAT_VERSION.to_le_bytes());
        format::write_varint(&mut bytes, self.space.num_sources as u64);
        format::write_varint(&mut bytes, self.space.num_features as u64);
        format::write_f64_column(&mut bytes, &self.weights);
        format::append_checksum(&mut bytes);
        bytes
    }

    /// Deserializes a model written by [`SlimFastModel::to_bytes`]: the checksum first,
    /// then a bounds-checked cursor walk.
    ///
    /// Fails with [`DataError::CorruptModel`] on wrong magic, truncation, length
    /// mismatches, or a checksum failure, and with
    /// [`DataError::UnsupportedModelVersion`] when the blob's format version is not
    /// [`MODEL_FORMAT_VERSION`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DataError> {
        if bytes.len() < 8 {
            return Err(format::corrupt("blob shorter than the fixed header"));
        }
        if bytes[..4] != MODEL_MAGIC {
            return Err(format::corrupt("missing \"SLMF\" magic"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
        if version != MODEL_FORMAT_VERSION {
            return Err(DataError::UnsupportedModelVersion {
                found: version,
                supported: MODEL_FORMAT_VERSION,
            });
        }
        let payload = format::split_checksum(bytes)?;
        let mut cursor = format::Cursor::new(&payload[8..]);
        let max = u32::MAX as usize;
        let num_sources = cursor.read_len(max)?;
        let num_features = cursor.read_len(max)?;
        let weights = cursor.read_f64_column(num_sources + num_features)?;
        if !cursor.is_empty() {
            return Err(format::corrupt("trailing bytes after the weight column"));
        }
        Ok(Self {
            space: ParameterSpace {
                num_sources,
                num_features,
            },
            weights,
        })
    }

    /// Average negative log-likelihood of a labelled set of objects under the model (the
    /// empirical risk the ERM learner minimizes).
    pub fn mean_log_loss(
        &self,
        dataset: &Dataset,
        features: &FeatureMatrix,
        truth: &slimfast_data::GroundTruth,
    ) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for (o, v) in truth.labeled() {
            let domain = dataset.domain(o);
            let Some(idx) = domain.iter().position(|&d| d == v) else {
                continue;
            };
            let posterior = self.posterior(dataset, features, o);
            total += -posterior[idx].clamp(1e-12, 1.0).ln();
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::{DatasetBuilder, FeatureMatrixBuilder, GroundTruth};

    fn instance() -> (Dataset, FeatureMatrix) {
        let mut b = DatasetBuilder::new();
        b.observe("good", "o0", "true").unwrap();
        b.observe("bad", "o0", "false").unwrap();
        b.observe("good", "o1", "false").unwrap();
        b.observe("bad", "o1", "false").unwrap();
        let d = b.build();
        let mut fb = FeatureMatrixBuilder::new();
        fb.set_flag(d.source_id("good").unwrap(), "Cited=High");
        fb.set_flag(d.source_id("bad").unwrap(), "Cited=Low");
        let f = fb.build(d.num_sources());
        (d, f)
    }

    #[test]
    fn parameter_space_layout_is_sources_then_features() {
        let (d, f) = instance();
        let space = ParameterSpace::new(&d, &f);
        assert_eq!(space.len(), 4);
        assert!(!space.is_empty());
        assert_eq!(space.source_param(d.source_id("bad").unwrap()), 1);
        let cited_high = f.feature_id("Cited=High").unwrap();
        assert_eq!(space.feature_param(cited_high), 2);
    }

    #[test]
    fn claim_vector_contains_indicator_and_features() {
        let (d, f) = instance();
        let space = ParameterSpace::new(&d, &f);
        let good = d.source_id("good").unwrap();
        let v = space.claim_vector(good, &f);
        assert_eq!(v.nnz(), 2);
        let dense: Vec<(usize, f64)> = v.iter().collect();
        assert!(dense.contains(&(space.source_param(good), 1.0)));
    }

    #[test]
    fn zero_model_gives_uniform_posteriors_and_half_accuracies() {
        let (d, f) = instance();
        let space = ParameterSpace::new(&d, &f);
        let model = SlimFastModel::zeros(space);
        let o0 = d.object_id("o0").unwrap();
        let posterior = model.posterior(&d, &f, o0);
        assert_eq!(posterior.len(), 2);
        assert!((posterior[0] - 0.5).abs() < 1e-12);
        for s in d.source_ids() {
            assert!((model.source_accuracy(s, &f) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn trusted_source_dominates_the_posterior() {
        let (d, f) = instance();
        let space = ParameterSpace::new(&d, &f);
        let good = d.source_id("good").unwrap();
        let bad = d.source_id("bad").unwrap();
        let mut weights = vec![0.0; space.len()];
        weights[space.source_param(good)] = 2.0;
        weights[space.source_param(bad)] = -1.0;
        let model = SlimFastModel::new(space, weights);
        assert!(model.source_accuracy(good, &f) > 0.8);
        assert!(model.source_accuracy(bad, &f) < 0.3);

        let o0 = d.object_id("o0").unwrap();
        let (value, prob) = model.map_value(&d, &f, o0).unwrap();
        assert_eq!(value, d.value_id("true").unwrap());
        assert!(prob > 0.5);

        // On o1 both sources agree, so the single candidate value wins with certainty.
        let o1 = d.object_id("o1").unwrap();
        let (value, prob) = model.map_value(&d, &f, o1).unwrap();
        assert_eq!(value, d.value_id("false").unwrap());
        assert!((prob - 1.0).abs() < 1e-9);
    }

    #[test]
    fn feature_weights_shift_accuracy_of_all_carrying_sources() {
        let (d, f) = instance();
        let space = ParameterSpace::new(&d, &f);
        let mut weights = vec![0.0; space.len()];
        weights[space.feature_param(f.feature_id("Cited=High").unwrap())] = 1.5;
        let model = SlimFastModel::new(space, weights);
        let good = d.source_id("good").unwrap();
        let bad = d.source_id("bad").unwrap();
        assert!(model.source_accuracy(good, &f) > 0.8);
        assert!((model.source_accuracy(bad, &f) - 0.5).abs() < 1e-9);
        // Accuracy from features alone matches, since the source indicator is zero.
        let acc = model.accuracy_from_features(&[(f.feature_id("Cited=High").unwrap(), 1.0)]);
        assert!((acc - model.source_accuracy(good, &f)).abs() < 1e-12);
    }

    #[test]
    fn predict_covers_all_observed_objects() {
        let (d, f) = instance();
        let model = SlimFastModel::zeros(ParameterSpace::new(&d, &f));
        let assignment = model.predict(&d, &f);
        assert_eq!(assignment.num_assigned(), 2);
    }

    #[test]
    fn compiled_trust_table_reproduces_posteriors_bitwise() {
        let (d, f) = instance();
        let space = ParameterSpace::new(&d, &f);
        let weights: Vec<f64> = (0..space.len()).map(|i| (i as f64 * 0.37).sin()).collect();
        let model = SlimFastModel::new(space, weights);
        let trust = model.trust_scores(&d, &f);
        assert_eq!(trust.len(), d.num_sources());
        let mut scores = Vec::new();
        for o in d.object_ids() {
            model.posterior_with_trust(&d, o, &trust, &mut scores);
            let direct = model.posterior(&d, &f, o);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct), bits(&scores));
        }
        // A source beyond the table scores 0.0 (the uninformed prior), so a stale
        // table still serves datasets that grew by new sources.
        let mut grown = d.clone();
        grown.append_named("brand-new", "o0", "true").unwrap();
        let o0 = grown.object_id("o0").unwrap();
        model.posterior_with_trust(&grown, o0, &trust, &mut scores);
        assert_eq!(scores.len(), grown.domain(o0).len());
        assert!((scores.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_loss_decreases_when_weights_match_truth() {
        let (d, f) = instance();
        let space = ParameterSpace::new(&d, &f);
        let truth = GroundTruth::from_pairs(
            d.num_objects(),
            [
                (d.object_id("o0").unwrap(), d.value_id("true").unwrap()),
                (d.object_id("o1").unwrap(), d.value_id("false").unwrap()),
            ],
        );
        let zero = SlimFastModel::zeros(space);
        let mut weights = vec![0.0; space.len()];
        weights[space.source_param(d.source_id("good").unwrap())] = 2.0;
        let good_model = SlimFastModel::new(space, weights);
        assert!(
            good_model.mean_log_loss(&d, &f, &truth) < zero.mean_log_loss(&d, &f, &truth),
            "trusting the accurate source should reduce the empirical risk"
        );
    }

    #[test]
    fn serialization_round_trips_bit_for_bit() {
        let (d, f) = instance();
        let space = ParameterSpace::new(&d, &f);
        let mut weights = vec![0.25, -1.5, 3.125, 0.0];
        weights.truncate(space.len());
        let model = SlimFastModel::new(space, weights);
        let bytes = model.to_bytes();
        let restored = SlimFastModel::from_bytes(&bytes).unwrap();
        assert_eq!(restored.space(), model.space());
        assert_eq!(restored.weights(), model.weights());
        for o in d.object_ids() {
            assert_eq!(restored.posterior(&d, &f, o), model.posterior(&d, &f, o));
        }
    }

    #[test]
    fn deserialization_rejects_corruption_and_future_versions() {
        let (d, f) = instance();
        let model = SlimFastModel::zeros(ParameterSpace::new(&d, &f));
        let good = model.to_bytes();

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            SlimFastModel::from_bytes(&bad),
            Err(slimfast_data::DataError::CorruptModel { .. })
        ));
        // Future and retired format versions: v1 blobs are no longer read.
        for version in [MODEL_FORMAT_VERSION + 1, 1] {
            let mut bad = good.clone();
            bad[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                SlimFastModel::from_bytes(&bad),
                Err(slimfast_data::DataError::UnsupportedModelVersion { found, supported })
                    if found == version && supported == MODEL_FORMAT_VERSION
            ));
        }
        // Truncation at every length and payload corruption.
        for len in 0..good.len() {
            assert!(
                SlimFastModel::from_bytes(&good[..len]).is_err(),
                "len {len}"
            );
        }
        let mut bad = good.clone();
        let mid = 8 + (good.len() - 16) / 2; // inside the checksummed payload
        bad[mid] ^= 0xff;
        assert!(matches!(
            SlimFastModel::from_bytes(&bad),
            Err(slimfast_data::DataError::CorruptModel { message }) if message.contains("checksum")
        ));
        // Empty blob.
        assert!(SlimFastModel::from_bytes(&[]).is_err());
    }

    #[test]
    fn unseen_sources_score_at_the_uninformed_prior() {
        let (d, f) = instance();
        let space = ParameterSpace::new(&d, &f);
        let model = SlimFastModel::new(space, vec![2.0, -1.0, 0.5, 0.5]);
        // A source handle beyond the fitted space has no indicator weight.
        let unseen = SourceId::new(17);
        assert_eq!(model.trust_score(unseen, &f), 0.0);
        assert!((model.source_accuracy(unseen, &f) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn posterior_of_unobserved_object_is_empty() {
        let mut b = DatasetBuilder::new();
        b.observe("s", "o0", "x").unwrap();
        b.reserve_objects(2);
        let d = b.build();
        let f = FeatureMatrix::empty(d.num_sources());
        let model = SlimFastModel::zeros(ParameterSpace::new(&d, &f));
        assert!(model.posterior(&d, &f, ObjectId::new(1)).is_empty());
        assert!(model.map_value(&d, &f, ObjectId::new(1)).is_none());
    }
}
