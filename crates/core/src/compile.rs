//! Compilation of SLiMFast's model: the columnar training plan shared by every learner,
//! plus the factor-graph lowering used by the Table 6 fidelity experiments.
//!
//! Two compilation targets live here:
//!
//! * [`CompiledProblem`] — the **data plane** of the closed-form learners. Built once
//!   per fit, it flattens the instance into contiguous example/target/feature-index
//!   arrays that `em`, `erm`, and the SLiMFast estimator all share, instead of
//!   re-deriving per-object adjacency and sparse feature vectors on every iteration.
//! * [`CompiledGraph`] — the factor-graph lowering. The paper deploys SLiMFast over
//!   DeepDive: the logistic-regression model of Equation 4 is compiled into a factor
//!   graph, weights are learned with DimmWitted's SGD, and inference runs Gibbs
//!   sampling. It exists for fidelity (Table 6 separates *compilation* time from
//!   *learning-and-inference* time) and as an independent cross-check of the
//!   closed-form path in [`crate::model`].

use std::cell::RefCell;

use slimfast_graph::{FactorGraph, FactorKind, VariableId, WeightId};

use slimfast_data::{Dataset, FeatureMatrix, GroundTruth, ObjectId, TruthAssignment};

use slimfast_optim::{kernels, StochasticObjective};

use crate::exec;
use crate::model::{ParameterSpace, SlimFastModel};

thread_local! {
    /// Per-lane class-probability scratch for the ERM objective, reused across every
    /// example, chunk, and fit on this thread. Taken out of the cell while in use so a
    /// re-entrant call degrades to a fresh allocation instead of a panic.
    static ERM_PROB_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The columnar, training-ready form of a fusion instance: every array the learners
/// touch per iteration, flattened into CSR-style contiguous storage.
///
/// A `CompiledProblem` is built **once per fit** by [`CompiledProblem::compile`] and
/// then shared (immutably) by the ERM learner, the EM learner, and the evaluation
/// harness. It replaces the per-iteration work the learners used to do — walking nested
/// adjacency lists, re-deriving `domain().position()` for every claim, and materializing
/// a `SparseVec` feature vector per observation — with index arithmetic over a handful
/// of flat arrays:
///
/// * **objects** — the observed objects (non-empty domain), ascending, with each
///   object's ground-truth label resolved to a domain position (or `-1`);
/// * **claims** — one entry per observation, grouped by object (CSR `claim_offsets`),
///   carrying the claiming source and the domain position of the claimed value;
/// * **footprints** — per *source* (not per claim), the sparse parameter vector
///   `{w_s} ∪ {w_k : f_{s,k} ≠ 0}` of Equations 3/4, stored once and referenced by
///   every claim of that source (the pre-CSR code duplicated it per claim), together
///   with the source's claim count `n_s`, the fixed half of the M-step's per-source
///   sufficient statistics (see [`crate::m_step`]);
/// * **ERM class-feature rows** — per *labelled* object, one merged parameter row per
///   domain value aggregating the footprints of the sources claiming that value
///   (`erm_row_offsets`/`erm_class_offsets` into `erm_params`/`erm_values`), so the
///   conditional-logit gradient is a handful of [`kernels::dot_csr`] calls instead of
///   per-claim footprint walks. Empty when the instance carries no labels.
///
/// The posterior of object `i` occupies `domain_offsets[i]..domain_offsets[i + 1]` of a
/// flat buffer, so the E-step shards over object ranges with disjoint writes — see
/// [`CompiledProblem::e_step`] — and stays bitwise-deterministic at any thread count.
#[derive(Debug, Clone)]
pub struct CompiledProblem {
    space: ParameterSpace,
    /// Observed objects (those with a non-empty domain), ascending by handle.
    objects: Vec<ObjectId>,
    /// Per compiled object: the domain position of its ground-truth value, or -1.
    labels: Vec<i32>,
    /// CSR offsets of each compiled object's posterior slots (domain positions).
    domain_offsets: Vec<u32>,
    /// CSR offsets of each compiled object's claims.
    claim_offsets: Vec<u32>,
    /// Per claim: the claiming source's dense index.
    claim_sources: Vec<u32>,
    /// Per claim: the domain position of the claimed value within its object's domain.
    claim_classes: Vec<u32>,
    /// CSR offsets of each source's parameter footprint.
    footprint_offsets: Vec<u32>,
    /// Flat parameter indices of all source footprints (source indicator first, then
    /// the source's feature parameters).
    footprint_params: Vec<u32>,
    /// Flat parameter values matching `footprint_params` (1.0 for the indicator).
    footprint_values: Vec<f64>,
    /// Per source: the number of claims it makes (`n_s`).
    claim_counts: Vec<f64>,
    /// Compiled-object indices that carry a usable label (the ERM example set).
    labeled: Vec<u32>,
    /// CSR offsets of each labelled example's class rows: labelled example `e` owns the
    /// class rows `erm_row_offsets[e]..erm_row_offsets[e + 1]` (one row per domain
    /// value, in domain order).
    erm_row_offsets: Vec<u32>,
    /// CSR offsets of each ERM class row into `erm_params`/`erm_values`.
    erm_class_offsets: Vec<u32>,
    /// Flat parameter indices of the ERM class-feature rows: the merged footprints of
    /// every source claiming that class for that object (Equation 4's aggregated
    /// per-class feature vector), built once per compile.
    erm_params: Vec<u32>,
    /// Flat parameter values matching `erm_params`.
    erm_values: Vec<f64>,
    /// Claim-count-balanced object chunk grid of the sharded E-step posterior pass.
    /// Computed once per compile from `claim_offsets`; depends only on the data, so
    /// E-step results stay bitwise-identical at any thread count.
    chunk_grid: exec::ChunkGrid,
}

impl CompiledProblem {
    /// Flattens a fusion instance into the columnar training plan. `O(|Ω| + |S|·|K|)`,
    /// run once per fit.
    pub fn compile(dataset: &Dataset, features: &FeatureMatrix, truth: &GroundTruth) -> Self {
        let space = ParameterSpace::new(dataset, features);

        // Per-source parameter footprints: indicator weight plus feature weights.
        let num_sources = dataset.num_sources();
        let mut footprint_offsets = Vec::with_capacity(num_sources + 1);
        let mut footprint_params = Vec::new();
        let mut footprint_values = Vec::new();
        footprint_offsets.push(0u32);
        for s in dataset.source_ids() {
            footprint_params.push(space.source_param(s) as u32);
            footprint_values.push(1.0);
            for (k, fv) in features.features_of(s) {
                footprint_params.push(space.feature_param(*k) as u32);
                footprint_values.push(*fv);
            }
            footprint_offsets.push(footprint_params.len() as u32);
        }

        let mut objects = Vec::new();
        let mut labels = Vec::new();
        let mut domain_offsets = vec![0u32];
        let mut claim_offsets = vec![0u32];
        let mut claim_sources = Vec::with_capacity(dataset.num_observations());
        let mut claim_classes = Vec::with_capacity(dataset.num_observations());
        let mut labeled = Vec::new();
        for o in dataset.object_ids() {
            let domain = dataset.domain(o);
            if domain.is_empty() {
                continue;
            }
            let label = truth
                .get(o)
                .and_then(|v| domain.iter().position(|&d| d == v));
            if label.is_some() {
                labeled.push(objects.len() as u32);
            }
            labels.push(label.map_or(-1, |idx| idx as i32));
            objects.push(o);
            for &(s, value) in dataset.observations_for_object(o) {
                let Some(class) = domain.iter().position(|&d| d == value) else {
                    // Unreachable by construction (domains collect all claimed values),
                    // kept as a guard against hand-built datasets.
                    continue;
                };
                claim_sources.push(s.index() as u32);
                claim_classes.push(class as u32);
            }
            domain_offsets.push(domain_offsets.last().unwrap() + domain.len() as u32);
            claim_offsets.push(claim_sources.len() as u32);
        }
        let mut claim_counts = vec![0.0; num_sources];
        for &s in &claim_sources {
            claim_counts[s as usize] += 1.0;
        }

        // ERM class-feature CSR: for every labelled object, one merged row per domain
        // value summing the footprints of the sources that claimed it. Zero cost for
        // unlabelled instances. Merging is first-seen order within a row (claim order),
        // so the layout is a pure function of the data.
        let mut erm_row_offsets: Vec<u32> = Vec::with_capacity(labeled.len() + 1);
        erm_row_offsets.push(0);
        let mut erm_class_offsets: Vec<u32> = vec![0];
        let mut erm_params: Vec<u32> = Vec::new();
        let mut erm_values: Vec<f64> = Vec::new();
        let mut merge_scratch: Vec<Vec<(u32, f64)>> = Vec::new();
        for &li in &labeled {
            let i = li as usize;
            let domain_len = (domain_offsets[i + 1] - domain_offsets[i]) as usize;
            if merge_scratch.len() < domain_len {
                merge_scratch.resize_with(domain_len, Vec::new);
            }
            for row in merge_scratch.iter_mut().take(domain_len) {
                row.clear();
            }
            for c in claim_offsets[i] as usize..claim_offsets[i + 1] as usize {
                let row = &mut merge_scratch[claim_classes[c] as usize];
                let s = claim_sources[c] as usize;
                for j in footprint_offsets[s] as usize..footprint_offsets[s + 1] as usize {
                    let param = footprint_params[j];
                    match row.iter_mut().find(|(p, _)| *p == param) {
                        Some(slot) => slot.1 += footprint_values[j],
                        None => row.push((param, footprint_values[j])),
                    }
                }
            }
            for row in merge_scratch.iter().take(domain_len) {
                for &(p, v) in row {
                    erm_params.push(p);
                    erm_values.push(v);
                }
                erm_class_offsets.push(erm_params.len() as u32);
            }
            erm_row_offsets.push((erm_class_offsets.len() - 1) as u32);
        }

        let chunk_grid =
            exec::ChunkGrid::claim_balanced(objects.len(), |i| claim_offsets[i] as usize);
        Self {
            space,
            objects,
            labels,
            domain_offsets,
            claim_offsets,
            claim_sources,
            claim_classes,
            footprint_offsets,
            footprint_params,
            footprint_values,
            claim_counts,
            labeled,
            erm_row_offsets,
            erm_class_offsets,
            erm_params,
            erm_values,
            chunk_grid,
        }
    }

    /// The parameter space the problem was compiled against.
    pub fn space(&self) -> ParameterSpace {
        self.space
    }

    /// Number of compiled (observed) objects.
    pub fn num_compiled_objects(&self) -> usize {
        self.objects.len()
    }

    /// Number of claims (observations whose value appears in its object's domain).
    pub fn num_claims(&self) -> usize {
        self.claim_sources.len()
    }

    /// Per source: the number of claims it makes (`n_s`), indexed by source.
    pub fn claim_counts(&self) -> &[f64] {
        &self.claim_counts
    }

    /// Number of labelled compiled objects (the ERM example count).
    pub fn num_labeled(&self) -> usize {
        self.labeled.len()
    }

    /// Total posterior slots (`Σ_o |D_o|`): the length of the flat buffers filled by
    /// [`CompiledProblem::e_step`].
    pub fn num_posterior_slots(&self) -> usize {
        *self.domain_offsets.last().unwrap_or(&0) as usize
    }

    /// The compiled objects in compilation order, with each object's posterior range in
    /// the flat E-step buffer.
    pub fn compiled_objects(
        &self,
    ) -> impl Iterator<Item = (ObjectId, std::ops::Range<usize>)> + '_ {
        self.objects.iter().enumerate().map(|(i, &o)| {
            (
                o,
                self.domain_offsets[i] as usize..self.domain_offsets[i + 1] as usize,
            )
        })
    }

    /// The trust score `σ_s = w_s + Σ_k w_k f_{s,k}` of every source under `weights`
    /// (Eq. 2/3), computed once so per-claim work in the E-step becomes a single array
    /// lookup instead of a feature dot product.
    pub fn trust_scores(&self, weights: &[f64]) -> Vec<f64> {
        let mut trust = Vec::new();
        self.trust_scores_into(weights, &mut trust);
        trust
    }

    /// Like [`CompiledProblem::trust_scores`], but refills a caller-owned buffer so the
    /// per-iteration EM loop allocates nothing in steady state.
    pub fn trust_scores_into(&self, weights: &[f64], trust: &mut Vec<f64>) {
        trust.clear();
        trust.extend((0..self.claim_counts.len()).map(|s| {
            let (params, values) = self.footprint(s);
            kernels::dot_csr(params, values, weights)
        }));
    }

    /// The E-step: fills `posteriors` (flat, indexed by the object domain offsets) with
    /// `P(T_o = d | Ω; w)` for every compiled object — labelled objects are clamped to a
    /// point mass on their label — and `correct` with the per-source target sums `T_s`
    /// (the posterior mass of the values source `s` claimed, summed over its claims),
    /// the half of the M-step's sufficient statistics that moves between iterations.
    ///
    /// The posterior pass is sharded over the compiled claim-count-balanced object grid
    /// on up to `threads` workers; the grid depends only on the data and writes are
    /// disjoint. `T_s` is then accumulated serially in claim order. Results are therefore
    /// identical at any thread count.
    pub fn e_step(
        &self,
        trust: &[f64],
        threads: usize,
        posteriors: &mut Vec<f64>,
        correct: &mut Vec<f64>,
    ) {
        let grid = &self.chunk_grid;
        posteriors.clear();
        posteriors.resize(self.num_posterior_slots(), 0.0);
        let boundaries = grid.slice_boundaries(|i| self.domain_offsets[i] as usize);
        exec::for_each_slice_mut(posteriors, &boundaries, threads, |part, slice| {
            let objects = grid.objects(part);
            let base = self.domain_offsets[objects.start] as usize;
            // Scatter the trust scores of every unlabelled object's claims first, so
            // normalisation can run as one segmented softmax over the whole chunk.
            let mut any_labeled = false;
            for i in objects.clone() {
                if self.labels[i] >= 0 {
                    any_labeled = true;
                    continue;
                }
                let row = self.domain_offsets[i] as usize - base;
                for c in self.claim_offsets[i] as usize..self.claim_offsets[i + 1] as usize {
                    slice[row + self.claim_classes[c] as usize] +=
                        trust[self.claim_sources[c] as usize];
                }
            }
            if any_labeled {
                // Mixed chunk: normalise row by row, clamping labelled objects to a
                // point mass on their label (their scores are still all zero).
                for i in objects.clone() {
                    let dr = self.domain_offsets[i] as usize - base
                        ..self.domain_offsets[i + 1] as usize - base;
                    if self.labels[i] >= 0 {
                        slice[dr.start + self.labels[i] as usize] = 1.0;
                    } else {
                        kernels::softmax_row(&mut slice[dr]);
                    }
                }
            } else {
                // Fully unlabelled chunk (the common unsupervised case): one segmented
                // softmax over the chunk's contiguous posterior slice. Per-row results
                // are bitwise-identical to the row-at-a-time path.
                kernels::softmax_rows(slice, &self.domain_offsets[objects.start..objects.end + 1]);
            }
        });
        correct.clear();
        correct.resize(self.claim_counts.len(), 0.0);
        for i in 0..self.objects.len() {
            let post_base = self.domain_offsets[i] as usize;
            for c in self.claim_offsets[i] as usize..self.claim_offsets[i + 1] as usize {
                correct[self.claim_sources[c] as usize] +=
                    posteriors[post_base + self.claim_classes[c] as usize];
            }
        }
    }

    /// The ERM objective over this problem: one conditional-logit example per labelled
    /// object (Equation 4's convex conditional log-loss).
    pub fn erm_objective(&self) -> LabeledConditionalObjective<'_> {
        LabeledConditionalObjective { problem: self }
    }

    /// The parameter footprint of one source: its indicator parameter (value 1.0)
    /// first, then its feature parameters.
    #[inline]
    pub(crate) fn footprint(&self, source: usize) -> (&[u32], &[f64]) {
        let range =
            self.footprint_offsets[source] as usize..self.footprint_offsets[source + 1] as usize;
        (
            &self.footprint_params[range.clone()],
            &self.footprint_values[range],
        )
    }

    /// The parameter row of one ERM class row (see `erm_class_offsets`).
    #[inline]
    fn erm_class_row(&self, row: usize) -> (&[u32], &[f64]) {
        let lo = self.erm_class_offsets[row] as usize;
        let hi = self.erm_class_offsets[row + 1] as usize;
        (&self.erm_params[lo..hi], &self.erm_values[lo..hi])
    }
}

/// The ERM objective: a conditional logistic regression over the labelled objects with
/// one candidate class per domain value. See [`CompiledProblem::erm_objective`].
///
/// Runs over the compile-time ERM class-feature CSR (`erm_params`/`erm_values`): each
/// class's score is one [`kernels::dot_csr`] over its pre-merged footprint row, scores
/// normalise through [`kernels::softmax_row`] into a thread-local scratch vector, and
/// the gradient walks the same flat rows — no per-example allocation and no per-claim
/// footprint re-walks.
pub struct LabeledConditionalObjective<'a> {
    problem: &'a CompiledProblem,
}

impl LabeledConditionalObjective<'_> {
    /// Shared example body: scores the example's class rows into `probs`, softmaxes,
    /// then reports gradient entries through `emit` and returns the example's loss.
    #[inline]
    fn example_body(
        &self,
        w: &[f64],
        example: usize,
        probs: &mut Vec<f64>,
        mut emit: impl FnMut(usize, f64),
    ) -> f64 {
        let p = self.problem;
        let i = p.labeled[example] as usize;
        let label = p.labels[i] as usize;
        let rows = p.erm_row_offsets[example] as usize..p.erm_row_offsets[example + 1] as usize;
        probs.clear();
        for row in rows.clone() {
            let (params, values) = p.erm_class_row(row);
            probs.push(kernels::dot_csr(params, values, w));
        }
        kernels::softmax_row(probs);
        let loss = -probs[label].clamp(1e-12, 1.0).ln();
        for (class, row) in rows.enumerate() {
            let err = probs[class] - if class == label { 1.0 } else { 0.0 };
            if err == 0.0 {
                continue;
            }
            let (params, values) = p.erm_class_row(row);
            for (param, value) in params.iter().zip(values) {
                emit(*param as usize, err * value);
            }
        }
        loss
    }
}

impl StochasticObjective for LabeledConditionalObjective<'_> {
    fn num_params(&self) -> usize {
        self.problem.space.len()
    }

    fn num_examples(&self) -> usize {
        self.problem.labeled.len()
    }

    fn example_loss_grad(
        &self,
        w: &[f64],
        example: usize,
        grad: &mut slimfast_optim::SparseVec,
    ) -> f64 {
        let mut probs = ERM_PROB_SCRATCH.with(RefCell::take);
        // `SparseVec::add` merges repeated parameters across class rows, which the
        // sequential per-example update path requires.
        let loss = self.example_body(w, example, &mut probs, |i, g| grad.add(i, g));
        ERM_PROB_SCRATCH.with(|cell| cell.replace(probs));
        loss
    }

    fn chunk_loss_grad(
        &self,
        w: &[f64],
        examples: &[usize],
        entries: &mut Vec<(usize, f64)>,
    ) -> f64 {
        let mut probs = ERM_PROB_SCRATCH.with(RefCell::take);
        let mut loss = 0.0;
        for &example in examples {
            // Raw pushes: the batch reducer merges duplicate parameters in push order.
            loss += self.example_body(w, example, &mut probs, |i, g| entries.push((i, g)));
        }
        ERM_PROB_SCRATCH.with(|cell| cell.replace(probs));
        loss
    }
}

/// The factor graph produced by compiling a fusion instance, plus the bookkeeping needed to
/// map graph entities back to datasets entities.
#[derive(Debug)]
pub struct CompiledGraph {
    /// The factor graph itself.
    pub graph: FactorGraph,
    /// Graph variable of each object (objects without observations have none).
    pub object_variables: Vec<Option<VariableId>>,
    /// Graph weight of each source-indicator parameter.
    pub source_weights: Vec<WeightId>,
    /// Graph weight of each feature parameter.
    pub feature_weights: Vec<WeightId>,
    /// The parameter space the graph was compiled from.
    pub space: ParameterSpace,
}

/// Compiles a fusion instance into a factor graph: one categorical variable per object
/// (over its observed domain, clamped to evidence when the object is labelled), one tied
/// weight per source and per feature, and one indicator factor per observation per carried
/// parameter — exactly the log-linear form of Equation 4.
pub fn compile(dataset: &Dataset, features: &FeatureMatrix, truth: &GroundTruth) -> CompiledGraph {
    let space = ParameterSpace::new(dataset, features);
    let mut graph = FactorGraph::new();

    let source_weights: Vec<WeightId> = (0..space.num_sources)
        .map(|_| graph.add_weight(0.0))
        .collect();
    let feature_weights: Vec<WeightId> = (0..space.num_features)
        .map(|_| graph.add_weight(0.0))
        .collect();

    let mut object_variables = Vec::with_capacity(dataset.num_objects());
    for o in dataset.object_ids() {
        let domain = dataset.domain(o);
        if domain.is_empty() {
            object_variables.push(None);
            continue;
        }
        let evidence = truth
            .get(o)
            .and_then(|v| domain.iter().position(|&d| d == v));
        let variable = match evidence {
            Some(idx) => graph.add_evidence(domain.len(), idx),
            None => graph.add_variable(domain.len()),
        };
        object_variables.push(Some(variable));

        for &(s, value) in dataset.observations_for_object(o) {
            let Some(value_idx) = domain.iter().position(|&d| d == value) else {
                continue;
            };
            // Source-indicator factor: fires with weight w_s when T_o takes the claimed value.
            graph.add_factor(
                FactorKind::Indicator {
                    variable,
                    value: value_idx,
                },
                source_weights[s.index()],
                1.0,
            );
            // One factor per feature of the claiming source, scaled by the feature value.
            for (k, fv) in features.features_of(s) {
                graph.add_factor(
                    FactorKind::Indicator {
                        variable,
                        value: value_idx,
                    },
                    feature_weights[k.index()],
                    *fv,
                );
            }
        }
    }

    CompiledGraph {
        graph,
        object_variables,
        source_weights,
        feature_weights,
        space,
    }
}

impl CompiledGraph {
    /// Copies the graph's learned weights back into a [`SlimFastModel`].
    pub fn to_model(&self) -> SlimFastModel {
        let mut weights = vec![0.0; self.space.len()];
        for (s, w) in self.source_weights.iter().enumerate() {
            weights[s] = self.graph.weight(*w);
        }
        for (k, w) in self.feature_weights.iter().enumerate() {
            weights[self.space.num_sources + k] = self.graph.weight(*w);
        }
        SlimFastModel::new(self.space, weights)
    }

    /// Loads weights from an existing model into the graph (e.g. to run Gibbs inference
    /// with closed-form-trained weights).
    pub fn load_model(&mut self, model: &SlimFastModel) {
        for (s, w) in self.source_weights.iter().enumerate() {
            self.graph.set_weight(*w, model.weights()[s]);
        }
        for (k, w) in self.feature_weights.iter().enumerate() {
            self.graph
                .set_weight(*w, model.weights()[self.space.num_sources + k]);
        }
    }

    /// Learns the graph weights from its evidence variables (the labelled objects) with the
    /// substrate's SGD learner.
    pub fn learn(&mut self, config: &slimfast_graph::LearningConfig) -> Vec<f64> {
        slimfast_graph::learn_weights(&mut self.graph, config)
    }

    /// Runs Gibbs sampling and converts the per-variable MAP values back into a
    /// [`TruthAssignment`] over objects.
    pub fn infer(
        &self,
        dataset: &Dataset,
        config: &slimfast_graph::GibbsConfig,
    ) -> TruthAssignment {
        let marginals = slimfast_graph::gibbs::sample(&self.graph, config);
        let mut assignment = TruthAssignment::empty(dataset.num_objects());
        for (o_idx, variable) in self.object_variables.iter().enumerate() {
            let Some(variable) = variable else { continue };
            let o = ObjectId::new(o_idx);
            let (value_idx, confidence) = marginals.map_value(*variable);
            let domain = dataset.domain(o);
            if let Some(&value) = domain.get(value_idx) {
                assignment.assign(o, value, confidence);
            }
        }
        assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slimfast_data::SplitPlan;
    use slimfast_datagen::{AccuracyModel, FeatureModel, ObservationPattern, SyntheticConfig};
    use slimfast_graph::{GibbsConfig, LearningConfig};

    use crate::config::SlimFastConfig;
    use crate::erm::train_erm;

    fn instance(seed: u64) -> slimfast_datagen::SyntheticInstance {
        SyntheticConfig {
            name: "compile".into(),
            num_sources: 40,
            num_objects: 150,
            domain_size: 2,
            pattern: ObservationPattern::Bernoulli(0.2),
            accuracy: AccuracyModel {
                mean: 0.75,
                spread: 0.1,
            },
            features: FeatureModel {
                num_predictive: 2,
                num_noise: 1,
                predictive_strength: 0.2,
            },
            copying: None,
            seed,
        }
        .generate()
    }

    #[test]
    fn compilation_counts_match_the_instance() {
        let inst = instance(1);
        let split = SplitPlan::new(0.2, 1).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let compiled = compile(&inst.dataset, &inst.features, &train);
        assert_eq!(compiled.object_variables.len(), inst.dataset.num_objects());
        assert_eq!(compiled.source_weights.len(), inst.dataset.num_sources());
        assert_eq!(compiled.feature_weights.len(), inst.features.num_features());
        // Evidence variables = labelled objects that actually carry observations.
        let evidence = compiled.graph.evidence_variables().count();
        assert_eq!(evidence, split.train.len());
        // One factor per observation for the source indicator plus one per feature value.
        assert!(compiled.graph.num_factors() >= inst.dataset.num_observations());
    }

    #[test]
    fn graph_pipeline_agrees_with_closed_form_inference() {
        let inst = instance(2);
        let split = SplitPlan::new(0.3, 3).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);

        // Train with the closed-form ERM learner, then run Gibbs with those weights.
        let model = train_erm(
            &inst.dataset,
            &inst.features,
            &train,
            &SlimFastConfig::default(),
        );
        let mut compiled = compile(&inst.dataset, &inst.features, &train);
        compiled.load_model(&model);
        let gibbs = compiled.infer(
            &inst.dataset,
            &GibbsConfig {
                burn_in: 100,
                samples: 800,
                chains: 1,
                seed: 5,
            },
        );
        let closed_form = model.predict(&inst.dataset, &inst.features);

        let mut agree = 0usize;
        let mut total = 0usize;
        for o in inst.dataset.object_ids() {
            if let (Some(a), Some(b)) = (gibbs.get(o), closed_form.get(o)) {
                total += 1;
                if a == b {
                    agree += 1;
                }
            }
        }
        assert!(total > 0);
        let agreement = agree as f64 / total as f64;
        assert!(
            agreement > 0.9,
            "Gibbs and closed-form MAP agree on only {agreement:.3}"
        );
    }

    #[test]
    fn learning_on_the_graph_substrate_recovers_signal() {
        let inst = instance(3);
        let split = SplitPlan::new(0.4, 7).draw(&inst.truth, 0).unwrap();
        let train = split.train_truth(&inst.truth);
        let mut compiled = compile(&inst.dataset, &inst.features, &train);
        let history = compiled.learn(&LearningConfig {
            epochs: 40,
            ..Default::default()
        });
        assert!(history.last().unwrap() < history.first().unwrap());
        let model = compiled.to_model();
        let accuracy = model
            .predict(&inst.dataset, &inst.features)
            .accuracy_against(&inst.truth, &split.test);
        assert!(accuracy > 0.7, "graph-trained accuracy {accuracy:.3}");
    }

    #[test]
    fn load_and_extract_weights_round_trip() {
        let inst = instance(4);
        let train = GroundTruth::empty(inst.dataset.num_objects());
        let mut compiled = compile(&inst.dataset, &inst.features, &train);
        let space = compiled.space;
        let weights: Vec<f64> = (0..space.len()).map(|i| i as f64 * 0.01 - 0.3).collect();
        let model = SlimFastModel::new(space, weights.clone());
        compiled.load_model(&model);
        let round_tripped = compiled.to_model();
        for (a, b) in round_tripped.weights().iter().zip(&weights) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
