//! Multinomial (softmax) logistic regression — the extractor model of paper
//! §4.2:
//!
//! > Pr(Y = k | X) = exp(β_k0 + β_kᵀ X) / (1 + Σ_i exp(β_i0 + β_iᵀ X))
//!
//! trained by minimizing the scikit-learn objective the authors used
//! (`LogisticRegression(solver="lbfgs", penalty="l2", C=1)`), **folded over
//! duplicate rows**: identical `(features, label)` pairs — ubiquitous on
//! templated pages — are deduplicated into unique rows with an integer
//! multiplicity `c_i` before optimization, and each unique row contributes
//! `c_i` times its loss and gradient:
//!
//! ```text
//! J(W) = Σ_i c_i · −log Pr(y_i | x_i)  +  (1 / 2C) · ‖W‖²   (intercepts unregularized)
//! ```
//!
//! With all multiplicities 1 this is exactly the per-example objective
//! (multiplying by 1.0 is an IEEE identity), and folding is deterministic
//! (first-occurrence order), so training remains byte-identical at every
//! thread count — only cheaper: each L-BFGS iteration and line-search probe
//! walks the unique rows once instead of re-walking every duplicate.
//!
//! The training set is a [`Dataset`] in CSR layout (one contiguous
//! `indices`/`values`/`row_offsets` triple), so the objective streams
//! linear memory instead of chasing one heap allocation per example, and
//! the objective's row kernel runs at the site's class count as a
//! compile-time width, keeping each row's scores and gradient
//! coefficients in registers (`loss_grad_span`).

use crate::lbfgs::{lbfgs_minimize, LbfgsConfig, LbfgsOutcome};
use crate::sgd::{sgd_minimize, SgdConfig};
use crate::sparse::SparseVec;
use ceres_runtime::{auto_chunk_coarse, Runtime};
use ceres_store::{Decode, Encode, Error as StoreError, Reader, Writer};
use std::ops::Range;

/// A labeled training set in CSR (compressed sparse row) layout.
///
/// Row `r`'s features are `indices[row_offsets[r]..row_offsets[r + 1]]`
/// (strictly increasing) with matching `values`; its label is `labels[r]`.
/// One contiguous triple replaces the former per-example `Vec<SparseVec>`
/// (a heap allocation and pointer chase per row), so the training objective
/// — which re-walks the whole set once per L-BFGS iteration *and* per
/// line-search probe — streams linear memory. Iteration order over each
/// row's `(index, value)` pairs is identical to the old layout, so every
/// float operation happens in the same order and results are bit-identical
/// (pinned by `prop_csr_loss_grad_matches_sparse_vec_reference`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    indices: Vec<u32>,
    values: Vec<f32>,
    /// `len() + 1` offsets into `indices`/`values`; starts at 0.
    row_offsets: Vec<usize>,
    labels: Vec<u32>,
    /// Number of target classes (fixed at construction).
    pub n_classes: usize,
    /// Feature-space dimensionality (fixed at construction).
    pub n_features: usize,
    /// Whether every stored value is exactly 1.0 (pure indicator rows —
    /// the common case: CERES features are binary). Tracked on push so the
    /// objective can take a multiply-free kernel: `1.0 × w == w` is an
    /// IEEE identity, so the specialization is bit-identical.
    all_unit: bool,
}

impl Default for Dataset {
    fn default() -> Self {
        Dataset::new(0, 0)
    }
}

impl Dataset {
    /// An empty dataset over `n_classes` classes and `n_features` features.
    pub fn new(n_classes: usize, n_features: usize) -> Self {
        Dataset {
            indices: Vec::new(),
            values: Vec::new(),
            row_offsets: vec![0],
            labels: Vec::new(),
            n_classes,
            n_features,
            all_unit: true,
        }
    }

    /// Append one example. The `SparseVec` invariant (strictly increasing
    /// indices) carries straight into the CSR arrays.
    pub fn push(&mut self, x: SparseVec, y: u32) {
        debug_assert!((y as usize) < self.n_classes);
        if let Some(max) = x.max_index() {
            debug_assert!((max as usize) < self.n_features, "feature index out of range");
        }
        for (i, v) in x.iter() {
            self.indices.push(i);
            self.values.push(v);
            self.all_unit &= v == 1.0;
        }
        self.row_offsets.push(self.indices.len());
        self.labels.push(y);
    }

    /// Append one row directly from index/value slices (`idx` strictly
    /// increasing, both slices equal length) — the allocation-free twin of
    /// [`Dataset::push`] used by duplicate folding and the training-set
    /// builder.
    pub fn push_row(&mut self, idx: &[u32], vals: &[f32], y: u32) {
        debug_assert_eq!(idx.len(), vals.len());
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]), "indices must strictly increase");
        debug_assert!((y as usize) < self.n_classes);
        debug_assert!(
            idx.last().is_none_or(|&i| (i as usize) < self.n_features),
            "feature index out of range"
        );
        self.indices.extend_from_slice(idx);
        self.values.extend_from_slice(vals);
        self.all_unit &= vals.iter().all(|&v| v == 1.0);
        self.row_offsets.push(self.indices.len());
        self.labels.push(y);
    }

    /// Append a row of binary indicator features from a scratch index
    /// buffer: sorts and dedups `buf` in place, streams it into the CSR
    /// arrays with unit values, and clears `buf` (capacity retained) —
    /// the `SparseVec::from_indices_buf` idiom without the intermediate
    /// `SparseVec` allocation.
    pub fn push_indicators_buf(&mut self, buf: &mut Vec<u32>, y: u32) {
        buf.sort_unstable();
        buf.dedup();
        debug_assert!((y as usize) < self.n_classes);
        debug_assert!(
            buf.last().is_none_or(|&i| (i as usize) < self.n_features),
            "feature index out of range"
        );
        self.indices.extend_from_slice(buf);
        self.values.extend(std::iter::repeat_n(1.0f32, buf.len()));
        self.row_offsets.push(self.indices.len());
        self.labels.push(y);
        buf.clear();
    }

    /// Append every row of `other` (same shape) after this dataset's rows —
    /// how the parallel training-set builder merges its per-chunk parts in
    /// chunk order.
    pub fn append(&mut self, other: &Dataset) {
        assert_eq!(self.n_classes, other.n_classes, "class count mismatch");
        assert_eq!(self.n_features, other.n_features, "feature count mismatch");
        let base = self.indices.len();
        self.indices.extend_from_slice(&other.indices);
        self.values.extend_from_slice(&other.values);
        self.labels.extend_from_slice(&other.labels);
        self.all_unit &= other.all_unit;
        self.row_offsets.extend(other.row_offsets[1..].iter().map(|o| base + o));
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total stored (index, value) pairs across all rows.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// All labels, in row order.
    pub fn labels(&self) -> &[u32] {
        &self.labels
    }

    /// Row `r` as (indices, values) slices into the CSR arrays.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.row_offsets[r], self.row_offsets[r + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Row `r` copied out as a [`SparseVec`] (allocates — tests and
    /// diagnostics only; hot paths use [`Dataset::row`]).
    pub fn sparse_row(&self, r: usize) -> SparseVec {
        let (idx, vals) = self.row(r);
        SparseVec::from_pairs(idx.iter().copied().zip(vals.iter().copied()).collect())
    }

    /// Fold duplicate `(features, label)` rows into unique rows with an
    /// integer multiplicity. Unique rows keep **first-occurrence order**
    /// (so the result is deterministic and independent of everything but
    /// the input), and equality is bitwise on values — no float surprises.
    ///
    /// Highly templated sites produce many byte-identical training rows;
    /// the optimizer then walks `counts.len()` rows per objective
    /// evaluation instead of `self.len()`.
    pub fn fold_duplicates(&self) -> FoldedDataset {
        use std::hash::{BuildHasher, Hash, Hasher};
        let mut by_hash: ceres_text::FxHashMap<u64, Vec<u32>> = ceres_text::FxHashMap::default();
        by_hash.reserve(self.len());
        let mut data = Dataset::new(self.n_classes, self.n_features);
        let mut counts: Vec<u32> = Vec::new();
        for r in 0..self.len() {
            let (idx, vals) = self.row(r);
            let y = self.labels[r];
            let mut hasher = ceres_text::FxBuildHasher::default().build_hasher();
            y.hash(&mut hasher);
            idx.hash(&mut hasher);
            for v in vals {
                v.to_bits().hash(&mut hasher);
            }
            let bucket = by_hash.entry(hasher.finish()).or_default();
            let found = bucket.iter().copied().find(|&u| {
                let (ui, uv) = data.row(u as usize);
                data.labels[u as usize] == y
                    && ui == idx
                    && uv.len() == vals.len()
                    && uv.iter().zip(vals).all(|(a, b)| a.to_bits() == b.to_bits())
            });
            match found {
                Some(u) => counts[u as usize] += 1,
                None => {
                    let u = data.len() as u32;
                    data.push_row(idx, vals, y);
                    counts.push(1);
                    bucket.push(u);
                }
            }
        }
        FoldedDataset { data, counts }
    }
}

/// Result of [`Dataset::fold_duplicates`]: the unique rows (first-occurrence
/// order) and each row's multiplicity in the source dataset.
#[derive(Debug, Clone)]
pub struct FoldedDataset {
    /// The unique rows.
    pub data: Dataset,
    /// `counts[r]` = how many source rows folded into unique row `r`
    /// (always ≥ 1; `counts.iter().sum() == source.len()`).
    pub counts: Vec<u32>,
}

/// Which optimizer trains the model (the paper uses LBFGS; SGD is kept for
/// the optimizer ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Optimizer {
    Lbfgs,
    Sgd,
}

/// Training hyperparameters. Defaults mirror the paper's scikit-learn call,
/// `LogisticRegression(solver="lbfgs", penalty="l2", C=1)`: L-BFGS started
/// cold from zero weights. The SGD knobs only matter for the optimizer
/// ablation.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Inverse regularization strength (scikit-learn's `C`). Paper: 1.0.
    pub c: f64,
    pub optimizer: Optimizer,
    pub max_iters: usize,
    /// Gradient-norm tolerance (relative to max(1, |f|)).
    pub tol: f64,
    /// SGD-only knobs.
    pub sgd_epochs: usize,
    pub sgd_lr: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            c: 1.0,
            optimizer: Optimizer::Lbfgs,
            max_iters: 100,
            tol: 1e-5,
            sgd_epochs: 30,
            sgd_lr: 0.1,
        }
    }
}

/// Statistics reported by training.
#[derive(Debug, Clone)]
pub struct TrainStats {
    pub iterations: usize,
    pub final_loss: f64,
    pub converged: bool,
    /// Source examples handed to [`LogReg::train_on`].
    pub n_examples: usize,
    /// Unique rows after duplicate folding — what the optimizer actually
    /// walked per objective evaluation.
    pub n_unique_rows: usize,
}

impl TrainStats {
    /// Duplicate-folding win: source examples per unique row (≥ 1.0).
    pub fn fold_ratio(&self) -> f64 {
        self.n_examples as f64 / self.n_unique_rows.max(1) as f64
    }
}

/// Reusable per-example score buffer for the allocation-free scoring paths
/// ([`LogReg::scores_into`], [`LogReg::predict_proba_into`],
/// [`LogReg::predict_into`]). One scratch per serving loop replaces one
/// `Vec<f64>` allocation per scored node — millions per site.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    buf: Vec<f64>,
}

impl ScoreScratch {
    /// An empty scratch (the first use sizes it).
    pub fn new() -> Self {
        Self::default()
    }

    /// The buffer, resized to `k` entries (zeroed).
    fn resized(&mut self, k: usize) -> &mut [f64] {
        self.buf.clear();
        self.buf.resize(k, 0.0);
        &mut self.buf
    }
}

/// Dot product of a CSR row with a dense weight row — the same arithmetic,
/// in the same order, as [`SparseVec::dot`], including its skip rule:
/// indices outside `dense` (features interned after the weights were sized)
/// contribute nothing.
#[inline]
fn dot_row(idx: &[u32], vals: &[f32], dense: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&i, &v) in idx.iter().zip(vals) {
        if let Some(w) = dense.get(i as usize) {
            acc += f64::from(v) * *w;
        }
    }
    acc
}

/// Argmax over a probability slice, replicating `Iterator::max_by`'s
/// last-maximum tie behavior so `_into` predictions match the allocating
/// originals exactly.
fn top_class(probs: &[f64]) -> (u32, f64) {
    let (k, p) = probs
        .iter()
        .enumerate()
        .max_by(|a, b| ceres_text::nan_lowest(*a.1, *b.1))
        // lint: allow(CL003) reason="probs is a predict_proba row; LogReg::n_classes >= 2 is a construction invariant, so the slice is never empty"
        .expect("at least two classes");
    (k as u32, *p)
}

/// A trained softmax classifier.
///
/// Weights are stored class-major: `w[k * (d + 1) .. (k + 1) * (d + 1)]` is
/// class `k`'s weight row, whose *last* element is the intercept β_k0. A
/// feature-major mirror (`wt`, intercepts split out) is rebuilt on
/// construction so scoring walks one contiguous `n_classes`-wide block per
/// stored feature instead of `n_classes` strided gathers — same additions
/// in the same order per class accumulator, so scores are bit-identical to
/// the class-major layout (see `transpose_weights_into`).
#[derive(Debug, Clone)]
pub struct LogReg {
    w: Vec<f64>,
    /// Feature-major mirror of the feature block of `w`: `wt[i * k + ki]`
    /// is class `ki`'s weight on feature `i`. Derived, never serialized.
    wt: Vec<f64>,
    /// The intercepts β_k0, split out of the transposed matrix.
    intercepts: Vec<f64>,
    n_classes: usize,
    n_features: usize,
}

/// Transpose a class-major weight matrix (row stride `d + 1`, intercept
/// last) into the feature-major layout the hot kernels walk: `wt[i*k + ki]`
/// holds class `ki`'s weight on feature `i`, intercepts split out. Pure
/// permutation of assignments — no arithmetic, so no rounding anywhere.
fn transpose_weights_into(
    w: &[f64],
    k: usize,
    d: usize,
    wt: &mut Vec<f64>,
    intercepts: &mut Vec<f64>,
) {
    let stride = d + 1;
    wt.clear();
    wt.resize(d * k, 0.0);
    intercepts.clear();
    intercepts.resize(k, 0.0);
    for ki in 0..k {
        let row = &w[ki * stride..(ki + 1) * stride];
        for (j, &v) in row[..d].iter().enumerate() {
            wt[j * k + ki] = v;
        }
        intercepts[ki] = row[d];
    }
}

impl LogReg {
    /// [`LogReg::train_on`] on a sequential runtime. Output is
    /// byte-identical to `train_on` at any thread count (the gradient's
    /// block structure is fixed by the dataset size, not the runtime).
    pub fn train(data: &Dataset, config: &TrainConfig) -> (LogReg, TrainStats) {
        Self::train_on(&Runtime::sequential(), data, config)
    }

    /// Train on `data`, running gradient accumulation on `rt`'s workers.
    ///
    /// Duplicate rows are folded first (see [`Dataset::fold_duplicates`]);
    /// the optimizer then minimizes the multiplicity-weighted objective
    /// over the unique rows — same minimizer, fewer row walks. Panics on an
    /// empty dataset (a caller bug: CERES always aborts a site earlier when
    /// annotation produced nothing).
    pub fn train_on(rt: &Runtime, data: &Dataset, config: &TrainConfig) -> (LogReg, TrainStats) {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        assert!(data.n_classes >= 2, "need at least two classes");
        let folded = data.fold_duplicates();
        let (fdata, counts) = (&folded.data, &folded.counts[..]);
        let dim = data.n_classes * (data.n_features + 1);
        let x0 = vec![0.0; dim];
        let mut scratch = SpanScratch::default();
        let objective = |w: &[f64], grad: &mut [f64]| {
            loss_grad_folded_on(rt, fdata, counts, config.c, w, grad, &mut scratch)
        };

        let (w, iterations, final_loss, converged) = match config.optimizer {
            Optimizer::Lbfgs => {
                let cfg = LbfgsConfig {
                    max_iters: config.max_iters,
                    tol: config.tol,
                    ..LbfgsConfig::default()
                };
                let LbfgsOutcome { x, f, iterations, converged } =
                    lbfgs_minimize(x0, objective, &cfg);
                (x, iterations, f, converged)
            }
            Optimizer::Sgd => {
                let cfg = SgdConfig {
                    epochs: config.sgd_epochs,
                    lr: config.sgd_lr,
                    ..SgdConfig::default()
                };
                let (x, f, iters) = sgd_minimize(x0, objective, &cfg);
                (x, iters, f, true)
            }
        };
        let stats = TrainStats {
            iterations,
            final_loss,
            converged,
            n_examples: data.len(),
            n_unique_rows: fdata.len(),
        };
        (LogReg::from_weights(w, data.n_classes, data.n_features), stats)
    }

    /// Assemble a model from a validated weight vector, building the
    /// feature-major mirror the scoring paths read.
    fn from_weights(w: Vec<f64>, n_classes: usize, n_features: usize) -> LogReg {
        let mut wt = Vec::new();
        let mut intercepts = Vec::new();
        transpose_weights_into(&w, n_classes, n_features, &mut wt, &mut intercepts);
        LogReg { w, wt, intercepts, n_classes, n_features }
    }

    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The raw class-major weight matrix (row stride `n_features + 1`,
    /// intercept last) — the model's serializable part.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Rebuild a model from its serialized parts, validating the shape
    /// invariants every inference path indexes by.
    pub fn from_parts(
        w: Vec<f64>,
        n_classes: usize,
        n_features: usize,
    ) -> Result<LogReg, StoreError> {
        if n_classes < 2 {
            return Err(StoreError::Invalid {
                context: "logreg model",
                detail: format!("n_classes {n_classes} < 2"),
            });
        }
        let dim = n_classes.saturating_mul(n_features.saturating_add(1));
        if w.len() != dim {
            return Err(StoreError::Invalid {
                context: "logreg model",
                detail: format!(
                    "weight vector has {} entries, expected {n_classes} × ({n_features} + 1)",
                    w.len()
                ),
            });
        }
        Ok(LogReg::from_weights(w, n_classes, n_features))
    }

    #[inline]
    fn row(&self, k: usize) -> &[f64] {
        let stride = self.n_features + 1;
        &self.w[k * stride..(k + 1) * stride]
    }

    /// Write class log-odds for one example into `out` (length
    /// `n_classes`) — the shared allocation-free kernel behind every
    /// scoring path. Walks the feature-major mirror: one contiguous
    /// `n_classes`-wide block per stored feature, then the intercepts.
    /// Every class accumulator starts at 0.0, adds the same `x·w` terms in
    /// the same (increasing-index) order as [`SparseVec::dot`] over the
    /// class-major row, and adds its intercept last — bit-identical to the
    /// old `x.dot(&row[..d]) + row[d]` per class.
    ///
    /// Like the training kernel ([`loss_grad_span`]), scoring runs at the
    /// model's class width: every `k` in 2..=24 takes [`Self::scores_at`]
    /// with `k` a compile-time constant, so the accumulators are a
    /// `[f64; K]` stack array and each per-class loop has a fixed trip
    /// count. Wider models take [`Self::scores_accum`], the same loops over
    /// a runtime width. Both add the same terms in the same order, so the
    /// scores are bit-identical
    /// (`class_width_scores_are_bit_identical_to_the_runtime_width_scores`).
    fn scores_write(&self, x: &SparseVec, out: &mut [f64]) {
        // One cheap pass picks the multiply-free monomorphization for
        // indicator features (the common case — see `Dataset::all_unit`).
        let unit = x.iter().all(|(_, v)| v == 1.0);
        macro_rules! by_width {
            ($($k:literal)+) => {
                match (self.n_classes, unit) {
                    $(
                        ($k, true) => self.scores_at::<true, $k>(x, out),
                        ($k, false) => self.scores_at::<false, $k>(x, out),
                    )+
                    _ => None,
                }
            };
        }
        if by_width!(2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24).is_none() {
            if unit {
                self.scores_accum::<true>(x, out);
            } else {
                self.scores_accum::<false>(x, out);
            }
        }
    }

    /// [`Self::scores_accum`] at the compile-time width `K`. Returns `None`,
    /// having touched nothing, when `out` or the weights do not have the
    /// `K`-wide shape (never, for a model built by `from_weights`), so the
    /// caller falls back to the runtime width instead of panicking.
    fn scores_at<const UNIT: bool, const K: usize>(
        &self,
        x: &SparseVec,
        out: &mut [f64],
    ) -> Option<()> {
        let out = <&mut [f64; K]>::try_from(out).ok()?;
        let bias = <&[f64; K]>::try_from(self.intercepts.as_slice()).ok()?;
        let (w_blocks, []) = self.wt.as_chunks::<K>() else { return None };
        if w_blocks.len() != self.n_features {
            return None;
        }
        let mut scores = [0.0; K];
        for (i, v) in x.iter() {
            // Skip rule of `SparseVec::dot`: indices ≥ d have no block.
            let Some(ws) = w_blocks.get(i as usize) else { continue };
            let xv = f64::from(v);
            for (s, &wv) in scores.iter_mut().zip(ws) {
                *s += if UNIT { wv } else { xv * wv };
            }
        }
        for (s, &b) in scores.iter_mut().zip(bias) {
            *s += b;
        }
        *out = scores;
        Some(())
    }

    fn scores_accum<const UNIT: bool>(&self, x: &SparseVec, out: &mut [f64]) {
        out.fill(0.0);
        let d = self.n_features;
        let k = self.n_classes;
        for (i, v) in x.iter() {
            let i = i as usize;
            // Skip rule of `SparseVec::dot`: features interned after the
            // weights were sized (index ≥ d — including exactly d, which
            // must not alias the intercept) contribute nothing.
            if i >= d {
                continue;
            }
            let ws = &self.wt[i * k..(i + 1) * k];
            let xv = f64::from(v);
            for (s, &wv) in out.iter_mut().zip(ws) {
                *s += if UNIT { wv } else { xv * wv };
            }
        }
        for (s, &b) in out.iter_mut().zip(&self.intercepts) {
            *s += b;
        }
    }

    /// Class log-odds (pre-softmax scores) for one example, written into a
    /// reusable scratch — no allocation.
    pub fn scores_into<'a>(&self, x: &SparseVec, scratch: &'a mut ScoreScratch) -> &'a [f64] {
        let out = scratch.resized(self.n_classes);
        self.scores_write(x, out);
        out
    }

    /// Posterior distribution over classes for one example, written into a
    /// reusable scratch — no allocation.
    pub fn predict_proba_into<'a>(
        &self,
        x: &SparseVec,
        scratch: &'a mut ScoreScratch,
    ) -> &'a [f64] {
        let out = scratch.resized(self.n_classes);
        self.scores_write(x, out);
        softmax_in_place(out);
        out
    }

    /// Most probable class and its probability, scored through a reusable
    /// scratch — no allocation.
    pub fn predict_into(&self, x: &SparseVec, scratch: &mut ScoreScratch) -> (u32, f64) {
        top_class(self.predict_proba_into(x, scratch))
    }

    /// Mean accuracy on a labeled dataset (CSR rows scored through one
    /// scratch — no per-example allocations).
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let mut scratch = ScoreScratch::new();
        let mut correct = 0usize;
        for r in 0..data.len() {
            let (idx, vals) = data.row(r);
            let out = scratch.resized(self.n_classes);
            for (ki, s) in out.iter_mut().enumerate() {
                let row = self.row(ki);
                *s = dot_row(idx, vals, &row[..self.n_features]) + row[self.n_features];
            }
            softmax_in_place(out);
            if top_class(out).0 == data.labels[r] {
                correct += 1;
            }
        }
        correct as f64 / data.len() as f64
    }
}

impl Encode for LogReg {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.n_classes);
        w.put_usize(self.n_features);
        w.put(&self.w);
    }
}

impl Decode for LogReg {
    fn decode(r: &mut Reader<'_>) -> Result<LogReg, StoreError> {
        const CTX: &str = "logreg model";
        let n_classes = r.get_usize(CTX)?;
        let n_features = r.get_usize(CTX)?;
        let w: Vec<f64> = r.get()?;
        LogReg::from_parts(w, n_classes, n_features)
    }
}

/// Numerically stable in-place softmax.
pub fn softmax_in_place(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        sum += *s;
    }
    for s in scores.iter_mut() {
        *s /= sum;
    }
}

/// Multiplicity-weighted unregularized negative log-likelihood over `rows`,
/// in the **feature-major (transposed) layout**: weights come in as
/// `wt[i*k + ki]` + split-out intercepts, and the gradient is accumulated
/// into `acc` — `d*k` transposed feature slots followed by `k` intercept
/// slots. One pass per row touches a contiguous `k`-wide block per stored
/// feature, replacing the old `k` strided gather-dots plus `k` scatter
/// passes.
///
/// The kernel is monomorphized over the class count: every `k` in 2..=24
/// (the literal list of the dispatch below) runs [`span_kernel`] with `k`
/// a compile-time constant, so a row's `k` scores and `k` gradient
/// coefficients live in `[f64; K]` stack arrays (registers, at the 6–18
/// classes CERES sites train at) and every per-class loop has a fixed trip
/// count the compiler unrolls and vectorizes. With a runtime `k` those
/// values went through `Vec` scratch in memory once per stored feature,
/// and that traffic was most of the training objective's time. Exact-width
/// arrays matter: a constant `k` over slices, or one zero-padded 16-lane
/// kernel for every width, recovered less of it. Wider class sets take
/// [`span_kernel_wide`], the same loops over a runtime width; there is no
/// switch between the two.
///
/// Bit-identical to the class-major kernel by construction, at every width
/// and in both kernels: every accumulator (per-class score, each gradient
/// slot) starts at 0.0 and receives exactly the same contributions in the
/// same order — increasing index within a row, row order across rows,
/// intercept added after the feature sum, the same log-sum-exp and `exp`s
/// computing the softmax coefficients from the same score values. Row `r`
/// contributes `counts[r]` times its loss and gradient; with all counts 1
/// every operation is bit-identical to the unfolded per-example objective
/// (`1.0 × x` and `x` are the same IEEE value). Pinned against the
/// per-example `SparseVec` reference, to the bit, by
/// `prop_csr_loss_grad_matches_sparse_vec_reference`, and the two kernels
/// against each other at every dispatched width by
/// `const_width_kernel_is_bit_identical_to_the_runtime_width_kernel`.
fn loss_grad_span(
    data: &Dataset,
    counts: &[u32],
    rows: Range<usize>,
    wt: &[f64],
    intercepts: &[f64],
    acc: &mut [f64],
) -> f64 {
    // One monomorphization per (width, indicator-only) pair. Pure indicator
    // datasets take the multiply-free kernel: `1.0 × w == w` and
    // `coeff × 1.0 == coeff` are IEEE identities, so skipping the
    // multiplies cannot change a bit.
    macro_rules! by_width {
        ($($k:literal)+) => {
            match (data.n_classes, data.all_unit) {
                $(
                    ($k, true) => span_kernel::<true, $k>(data, counts, rows.clone(), wt, intercepts, acc),
                    ($k, false) => span_kernel::<false, $k>(data, counts, rows.clone(), wt, intercepts, acc),
                )+
                _ => None,
            }
        };
    }
    by_width!(2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24)
        .unwrap_or_else(|| span_kernel_wide(data, counts, rows, wt, intercepts, acc))
}

/// [`loss_grad_span`] at the compile-time width `K`. Returns `None`, having
/// touched nothing, when the buffers do not have the `K`-wide shape the
/// dataset implies (never, for buffers sized by [`accumulate_on`]), so the
/// caller can fall back to [`span_kernel_wide`] instead of panicking.
fn span_kernel<const UNIT: bool, const K: usize>(
    data: &Dataset,
    counts: &[u32],
    rows: Range<usize>,
    wt: &[f64],
    intercepts: &[f64],
    acc: &mut [f64],
) -> Option<f64> {
    let d = data.n_features;
    debug_assert_eq!(counts.len(), data.len());
    let Ok(bias) = <&[f64; K]>::try_from(intercepts) else { return None };
    let (w_blocks, []) = wt.as_chunks::<K>() else { return None };
    let (gt, gi) = acc.split_last_chunk_mut::<K>()?;
    let (g_blocks, []) = gt.as_chunks_mut::<K>() else { return None };
    if w_blocks.len() != d || g_blocks.len() != d {
        return None;
    }

    let mut loss = 0.0;
    for r in rows {
        let (idx, vals) = data.row(r);
        let y = data.labels[r] as usize;
        let c = f64::from(counts[r]);
        let mut scores = [0.0; K];
        for (&i, &v) in idx.iter().zip(vals) {
            // Skip rule of `SparseVec::dot`: indices ≥ d (features interned
            // after the weights were sized) have no block and contribute
            // nothing.
            let Some(ws) = w_blocks.get(i as usize) else { continue };
            let xv = f64::from(v);
            for (s, &wv) in scores.iter_mut().zip(ws) {
                *s += if UNIT { wv } else { xv * wv };
            }
        }
        for (s, &b) in scores.iter_mut().zip(bias) {
            *s += b; // intercept after the feature sum, as in `dot + row[d]`
        }
        // log-sum-exp for the normalizer.
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lse = max + scores.iter().map(|s| (s - max).exp()).sum::<f64>().ln();
        loss += c * (lse - scores[y]);

        let coeffs: [f64; K] =
            std::array::from_fn(|ki| c * ((scores[ki] - lse).exp() - f64::from(ki == y)));
        for (&i, &v) in idx.iter().zip(vals) {
            let Some(gs) = g_blocks.get_mut(i as usize) else { continue };
            let xv = f64::from(v);
            for (g, &co) in gs.iter_mut().zip(&coeffs) {
                *g += if UNIT { co } else { co * xv };
            }
        }
        for (g, &co) in gi.iter_mut().zip(&coeffs) {
            *g += co; // intercept "feature" is the constant 1
        }
    }
    Some(loss)
}

/// [`loss_grad_span`] over a runtime class count: the fallback for class
/// sets wider than 24, with the row's scores and coefficients in two
/// `k`-long buffers allocated once per call. It always multiplies by the
/// feature value; on indicator rows that is a multiply by exactly 1.0,
/// which leaves every bit of the multiply-free kernel's result unchanged.
fn span_kernel_wide(
    data: &Dataset,
    counts: &[u32],
    rows: Range<usize>,
    wt: &[f64],
    intercepts: &[f64],
    acc: &mut [f64],
) -> f64 {
    let k = data.n_classes;
    let d = data.n_features;
    debug_assert_eq!(wt.len(), d * k);
    debug_assert_eq!(intercepts.len(), k);
    debug_assert_eq!(acc.len(), d * k + k);
    debug_assert_eq!(counts.len(), data.len());
    let (gt, gi) = acc.split_at_mut(d * k);
    let mut scores = vec![0.0; k];
    let mut coeffs = vec![0.0; k];

    let mut loss = 0.0;
    for r in rows {
        let (idx, vals) = data.row(r);
        let y = data.labels[r] as usize;
        let c = f64::from(counts[r]);
        scores.fill(0.0);
        for (&i, &v) in idx.iter().zip(vals) {
            let i = i as usize;
            if i >= d {
                continue;
            }
            let xv = f64::from(v);
            for (s, &wv) in scores.iter_mut().zip(&wt[i * k..(i + 1) * k]) {
                *s += xv * wv;
            }
        }
        for (s, &b) in scores.iter_mut().zip(intercepts) {
            *s += b;
        }
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let lse = max + scores.iter().map(|s| (s - max).exp()).sum::<f64>().ln();
        loss += c * (lse - scores[y]);

        for (ki, (co, s)) in coeffs.iter_mut().zip(&scores).enumerate() {
            *co = c * ((s - lse).exp() - f64::from(ki == y));
        }
        for (&i, &v) in idx.iter().zip(vals) {
            let i = i as usize;
            if i >= d {
                continue;
            }
            let xv = f64::from(v);
            for (g, &co) in gt[i * k..(i + 1) * k].iter_mut().zip(&coeffs) {
                *g += co * xv;
            }
        }
        for (g, &co) in gi.iter_mut().zip(&coeffs) {
            *g += co;
        }
    }
    loss
}

/// One row span's data loss, its gradient accumulated into a transposed
/// accumulator: [`loss_grad_span`] in training, [`span_kernel_wide`] as the
/// runtime-width reference the tests compare it against.
type SpanFn = fn(&Dataset, &[u32], Range<usize>, &[f64], &[f64], &mut [f64]) -> f64;

/// Reusable buffers for one objective evaluation: the transposed weights
/// and the packed transposed-gradient accumulator (`d*k` feature slots then
/// `k` intercept slots). One of these lives for a whole optimizer run, so
/// the per-evaluation transpose is the only O(dim) work added — the same
/// order as the `grad.fill(0.0)` each evaluation already pays.
#[derive(Debug, Default)]
struct SpanScratch {
    wt: Vec<f64>,
    intercepts: Vec<f64>,
    acc: Vec<f64>,
}

/// Deterministic block structure for parallel gradient accumulation over
/// rows `0..n`. Boundaries depend only on the row count — never the
/// thread count — so the per-block partial sums, reduced in block-index
/// order, give bit-identical loss and gradient at any thread count. The
/// minimum block size keeps tiny datasets on the single-block (serial)
/// path where per-block buffers would cost more than they save. Each
/// block pays a zero + reduce of a full `d*k`-sized partial per objective
/// eval, so the target count is kept small: at d≈4k, k≈10 the partial is
/// ~345 KB and 32 blocks made the bookkeeping rival the row sweeps.
const GRAD_TARGET_BLOCKS: usize = 4;
const GRAD_MIN_BLOCK: usize = 64;

fn grad_blocks(n: usize) -> Vec<(usize, usize)> {
    if n == 0 {
        return Vec::new();
    }
    let block = n.div_ceil(GRAD_TARGET_BLOCKS).max(GRAD_MIN_BLOCK);
    (0..n).step_by(block).map(|b| (b, (b + block).min(n))).collect()
}

/// Accumulate the data loss/gradient of every row into the class-major
/// `grad` on `rt`'s workers. The weights are transposed once into
/// `scratch`, each fixed block produces a partial (loss, transposed
/// gradient) reduced sequentially in block order, and the transposed total
/// is scattered back into `grad` — a pure permutation of additions, so the
/// result is bit-identical to accumulating class-major directly: every
/// slot starts at 0.0 in both layouts and receives the same contributions
/// in the same order. One block short-circuits the fan-out, running the
/// kernel straight into the scratch accumulator.
fn accumulate_on(
    rt: &Runtime,
    data: &Dataset,
    counts: &[u32],
    w: &[f64],
    grad: &mut [f64],
    scratch: &mut SpanScratch,
    span: SpanFn,
) -> f64 {
    let k = data.n_classes;
    let d = data.n_features;
    let stride = d + 1;
    debug_assert_eq!(w.len(), k * stride);
    transpose_weights_into(w, k, d, &mut scratch.wt, &mut scratch.intercepts);
    scratch.acc.clear();
    scratch.acc.resize(d * k + k, 0.0);
    let blocks = grad_blocks(data.len());
    let loss = if blocks.len() <= 1 {
        span(data, counts, 0..data.len(), &scratch.wt, &scratch.intercepts, &mut scratch.acc)
    } else {
        let wt = &scratch.wt;
        let intercepts = &scratch.intercepts;
        let parts = rt.par_map_chunked(
            &blocks,
            auto_chunk_coarse(blocks.len(), rt.threads()),
            |&(a, b)| {
                let mut part = vec![0.0; d * k + k];
                let l = span(data, counts, a..b, wt, intercepts, &mut part);
                (l, part)
            },
        );
        let mut loss = 0.0;
        for (l, part) in &parts {
            loss += l;
            for (g, p) in scratch.acc.iter_mut().zip(part) {
                *g += p;
            }
        }
        loss
    };
    // Scatter the transposed totals into the class-major gradient. The
    // scratch accumulator folded from 0.0, so it can never hold -0.0 and
    // `grad_slot += total` is the bitwise value the class-major layout
    // would have accumulated in place.
    for ki in 0..k {
        let grow = &mut grad[ki * stride..(ki + 1) * stride];
        for (j, g) in grow[..d].iter_mut().enumerate() {
            *g += scratch.acc[j * k + ki];
        }
        grow[d] += scratch.acc[d * k + ki];
    }
    loss
}

/// L2 penalty (1/2C)·‖W‖², skipping intercepts; returns the loss term and
/// accumulates the gradient term.
fn add_l2_penalty(data: &Dataset, c: f64, w: &[f64], grad: &mut [f64]) -> f64 {
    let stride = data.n_features + 1;
    let lambda = 1.0 / c;
    let mut loss = 0.0;
    for ki in 0..data.n_classes {
        for j in 0..data.n_features {
            let v = w[ki * stride + j];
            loss += 0.5 * lambda * v * v;
            grad[ki * stride + j] += lambda * v;
        }
    }
    loss
}

/// The regularized, multiplicity-weighted objective and its gradient, with
/// gradient accumulation parallelized over `rt` — the L-BFGS inner loop.
/// Bit-identical at any thread count (fixed blocks, block-order reduction).
fn loss_grad_folded_on(
    rt: &Runtime,
    data: &Dataset,
    counts: &[u32],
    c: f64,
    w: &[f64],
    grad: &mut [f64],
    scratch: &mut SpanScratch,
) -> f64 {
    grad.fill(0.0);
    let loss = accumulate_on(rt, data, counts, w, grad, scratch, loss_grad_span);
    loss + add_l2_penalty(data, c, w, grad)
}

/// Regularized per-example (all multiplicities 1) negative log-likelihood
/// and gradient on a sequential runtime — what the gradient-check and CSR
/// bit-identity tests evaluate against the references.
#[cfg(test)]
pub(crate) fn loss_grad(data: &Dataset, c: f64, w: &[f64], grad: &mut [f64]) -> f64 {
    loss_grad_on(&Runtime::sequential(), data, c, w, grad)
}

/// [`loss_grad`] with gradient accumulation parallelized over `rt` (all
/// multiplicities 1) — kept for the thread-invariance pins.
#[cfg(test)]
pub(crate) fn loss_grad_on(
    rt: &Runtime,
    data: &Dataset,
    c: f64,
    w: &[f64],
    grad: &mut [f64],
) -> f64 {
    let ones = vec![1u32; data.len()];
    let mut scratch = SpanScratch::default();
    loss_grad_folded_on(rt, data, &ones, c, w, grad, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn xor_free_dataset() -> Dataset {
        // Three linearly separable classes on two indicator features.
        let mut data = Dataset::new(3, 2);
        for _ in 0..20 {
            data.push(SparseVec::from_pairs(vec![(0, 1.0)]), 0);
            data.push(SparseVec::from_pairs(vec![(1, 1.0)]), 1);
            data.push(SparseVec::from_pairs(vec![(0, 1.0), (1, 1.0)]), 2);
        }
        data
    }

    #[test]
    fn learns_separable_classes() {
        let data = xor_free_dataset();
        let (model, stats) = LogReg::train(&data, &TrainConfig::default());
        assert!(stats.final_loss.is_finite());
        assert!(model.accuracy(&data) > 0.99, "accuracy {}", model.accuracy(&data));
        // xor_free_dataset repeats three rows 20 times each.
        assert_eq!(stats.n_examples, 60);
        assert_eq!(stats.n_unique_rows, 3);
        assert!((stats.fold_ratio() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let data = xor_free_dataset();
        let (model, _) = LogReg::train(&data, &TrainConfig::default());
        let mut scratch = ScoreScratch::new();
        for r in 0..data.len() {
            let x = data.sparse_row(r);
            let p = model.predict_proba_into(&x, &mut scratch);
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    /// The feature-major scoring mirror must reproduce the class-major
    /// formula (`x.dot(&row[..d]) + row[d]` per class) to the bit,
    /// including the skip rule for late-interned feature indices ≥ d.
    #[test]
    fn transposed_scores_match_class_major_reference_bit_for_bit() {
        let data = xor_free_dataset();
        let (model, _) = LogReg::train(&data, &TrainConfig::default());
        let probes = [
            SparseVec::from_pairs(vec![(0, 1.0)]),
            SparseVec::from_pairs(vec![(0, -0.5), (1, 2.0)]),
            // Indices ≥ n_features (= 2): skipped, never aliasing the
            // intercept slot.
            SparseVec::from_pairs(vec![(1, 1.0), (2, 7.0), (9, -3.0)]),
            SparseVec::new(),
        ];
        let mut scratch = ScoreScratch::new();
        for x in &probes {
            let got = model.scores_into(x, &mut scratch);
            let reference: Vec<f64> = (0..model.n_classes())
                .map(|ki| {
                    let row = model.row(ki);
                    x.dot(&row[..model.n_features()]) + row[model.n_features()]
                })
                .collect();
            assert_eq!(got, reference, "scores diverged for {x:?}");
        }
    }

    #[test]
    fn sgd_also_learns() {
        let data = xor_free_dataset();
        let cfg = TrainConfig { optimizer: Optimizer::Sgd, ..TrainConfig::default() };
        let (model, _) = LogReg::train(&data, &cfg);
        assert!(model.accuracy(&data) > 0.95);
    }

    #[test]
    fn stronger_regularization_shrinks_weights() {
        let data = xor_free_dataset();
        let strong = LogReg::train(&data, &TrainConfig { c: 0.01, ..TrainConfig::default() }).0;
        let weak = LogReg::train(&data, &TrainConfig { c: 100.0, ..TrainConfig::default() }).0;
        let norm = |m: &LogReg| m.w.iter().map(|v| v * v).sum::<f64>();
        assert!(norm(&strong) < norm(&weak));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut data = Dataset::new(3, 4);
        data.push(SparseVec::from_pairs(vec![(0, 1.0), (3, 0.5)]), 0);
        data.push(SparseVec::from_pairs(vec![(1, 2.0)]), 1);
        data.push(SparseVec::from_pairs(vec![(2, 1.0), (1, -1.0)]), 2);
        data.push(SparseVec::from_pairs(vec![(0, -0.5), (2, 0.25)]), 1);

        let dim = 3 * 5;
        // A deterministic non-trivial weight point.
        let w: Vec<f64> = (0..dim).map(|i| ((i * 7 % 11) as f64 - 5.0) * 0.1).collect();
        let mut grad = vec![0.0; dim];
        let f0 = loss_grad(&data, 1.0, &w, &mut grad);
        assert!(f0.is_finite());

        let eps = 1e-6;
        let mut scratch = vec![0.0; dim];
        for i in 0..dim {
            let mut wp = w.clone();
            wp[i] += eps;
            let fp = loss_grad(&data, 1.0, &wp, &mut scratch);
            let mut wm = w.clone();
            wm[i] -= eps;
            let fm = loss_grad(&data, 1.0, &wm, &mut scratch);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-4,
                "grad mismatch at {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn folded_gradient_matches_finite_differences() {
        // Same check against the multiplicity-weighted objective: duplicate
        // a few rows, fold, and difference the folded loss.
        let mut data = Dataset::new(3, 4);
        for _ in 0..3 {
            data.push(SparseVec::from_pairs(vec![(0, 1.0), (3, 0.5)]), 0);
        }
        data.push(SparseVec::from_pairs(vec![(1, 2.0)]), 1);
        data.push(SparseVec::from_pairs(vec![(1, 2.0)]), 1);
        data.push(SparseVec::from_pairs(vec![(2, 1.0), (1, -1.0)]), 2);
        let folded = data.fold_duplicates();
        assert_eq!(folded.data.len(), 3);
        assert_eq!(folded.counts, vec![3, 2, 1]);

        let dim = 3 * 5;
        let w: Vec<f64> = (0..dim).map(|i| ((i * 7 % 11) as f64 - 5.0) * 0.1).collect();
        let rt = Runtime::sequential();
        let mut scratch = SpanScratch::default();
        let eval = |w: &[f64], grad: &mut [f64], scratch: &mut SpanScratch| {
            loss_grad_folded_on(&rt, &folded.data, &folded.counts, 1.0, w, grad, scratch)
        };
        let mut grad = vec![0.0; dim];
        let f0 = eval(&w, &mut grad, &mut scratch);
        assert!(f0.is_finite());
        let eps = 1e-6;
        let mut sink = vec![0.0; dim];
        for i in 0..dim {
            let mut wp = w.clone();
            wp[i] += eps;
            let fp = eval(&wp, &mut sink, &mut scratch);
            let mut wm = w.clone();
            wm[i] -= eps;
            let fm = eval(&wm, &mut sink, &mut scratch);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-4,
                "folded grad mismatch at {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn softmax_is_stable_for_large_scores() {
        let mut s = vec![1000.0, 1001.0, 999.0];
        softmax_in_place(&mut s);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[1] > s[0] && s[0] > s[2]);
    }

    #[test]
    fn trained_model_round_trips_bit_for_bit() {
        let data = xor_free_dataset();
        let (model, _) = LogReg::train(&data, &TrainConfig::default());
        let mut w = ceres_store::Writer::new();
        model.encode(&mut w);
        let bytes = w.into_bytes();
        let back = LogReg::decode(&mut ceres_store::Reader::new(&bytes)).expect("decode");
        assert_eq!(back.n_classes(), model.n_classes());
        assert_eq!(back.n_features(), model.n_features());
        assert_eq!(back.weights(), model.weights());
        // Identical weights ⇒ identical posteriors, bit for bit.
        let (mut sa, mut sb) = (ScoreScratch::new(), ScoreScratch::new());
        for r in 0..data.len() {
            let x = data.sparse_row(r);
            assert_eq!(back.predict_proba_into(&x, &mut sa), model.predict_proba_into(&x, &mut sb));
        }
    }

    #[test]
    fn model_decode_rejects_shape_lies() {
        let data = xor_free_dataset();
        let (model, _) = LogReg::train(&data, &TrainConfig::default());
        let mut w = ceres_store::Writer::new();
        model.encode(&mut w);
        let mut bytes = w.into_bytes();
        // n_classes is the first varint; bump it so the weight count no
        // longer matches the declared shape.
        bytes[0] += 1;
        assert!(LogReg::decode(&mut ceres_store::Reader::new(&bytes)).is_err());
        assert!(LogReg::from_parts(vec![0.0; 5], 2, 3).is_err());
        assert!(LogReg::from_parts(vec![0.0; 8], 1, 3).is_err());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let data = Dataset::new(2, 1);
        let _ = LogReg::train(&data, &TrainConfig::default());
    }

    #[test]
    fn csr_layout_round_trips_rows() {
        let rows = [
            SparseVec::from_pairs(vec![(0, 1.0), (5, -2.5)]),
            SparseVec::new(),
            SparseVec::from_pairs(vec![(3, 0.25)]),
        ];
        let mut data = Dataset::new(2, 6);
        for (r, x) in rows.iter().enumerate() {
            data.push(x.clone(), (r % 2) as u32);
        }
        assert_eq!(data.len(), 3);
        assert_eq!(data.nnz(), 3);
        assert_eq!(data.labels(), &[0, 1, 0]);
        for (r, x) in rows.iter().enumerate() {
            assert_eq!(&data.sparse_row(r), x, "row {r}");
        }
        // Empty rows stay addressable.
        assert_eq!(data.row(1), (&[][..], &[][..]));
    }

    #[test]
    fn append_concatenates_in_order() {
        let mut a = Dataset::new(2, 4);
        a.push(SparseVec::from_pairs(vec![(0, 1.0)]), 0);
        let mut b = Dataset::new(2, 4);
        b.push(SparseVec::from_pairs(vec![(1, 2.0), (3, 3.0)]), 1);
        b.push(SparseVec::new(), 0);
        let mut whole = Dataset::new(2, 4);
        whole.push(SparseVec::from_pairs(vec![(0, 1.0)]), 0);
        whole.push(SparseVec::from_pairs(vec![(1, 2.0), (3, 3.0)]), 1);
        whole.push(SparseVec::new(), 0);
        a.append(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn push_indicators_buf_matches_sparse_vec_push() {
        let mut via_buf = Dataset::new(2, 10);
        let mut buf = vec![5, 1, 5, 2];
        via_buf.push_indicators_buf(&mut buf, 1);
        assert!(buf.is_empty(), "buffer must be drained for reuse");
        let mut via_push = Dataset::new(2, 10);
        via_push.push(SparseVec::from_indices(vec![5, 1, 5, 2]), 1);
        assert_eq!(via_buf, via_push);
    }

    #[test]
    fn fold_keeps_first_occurrence_order_and_masses() {
        let mut data = Dataset::new(2, 4);
        let a = SparseVec::from_pairs(vec![(0, 1.0)]);
        let b = SparseVec::from_pairs(vec![(1, 1.0)]);
        // Interleaved duplicates; (a, 1) differs from (a, 0) by label only.
        for x in [&a, &b, &a, &a, &b] {
            data.push(x.clone(), 0);
        }
        data.push(a.clone(), 1);
        let folded = data.fold_duplicates();
        assert_eq!(folded.data.len(), 3);
        assert_eq!(folded.counts, vec![3, 2, 1]);
        assert_eq!(folded.data.sparse_row(0), a);
        assert_eq!(folded.data.sparse_row(1), b);
        assert_eq!(folded.data.sparse_row(2), a);
        assert_eq!(folded.data.labels(), &[0, 0, 1]);
        assert_eq!(folded.counts.iter().sum::<u32>() as usize, data.len());
        // Determinism: folding again gives the identical structure.
        let again = data.fold_duplicates();
        assert_eq!(again.data, folded.data);
        assert_eq!(again.counts, folded.counts);
        // Values are compared bitwise: 1.0 vs -1.0 at the same index must
        // not fold together.
        let mut signs = Dataset::new(2, 2);
        signs.push(SparseVec::from_pairs(vec![(0, 1.0)]), 0);
        signs.push(SparseVec::from_pairs(vec![(0, -1.0)]), 0);
        assert_eq!(signs.fold_duplicates().data.len(), 2);
    }

    #[test]
    fn folded_objective_equals_unfolded_objective() {
        // The folded loss/gradient must equal the plain per-example
        // objective numerically (folding reorders float additions, so
        // tight-tolerance, not bitwise).
        let mut data = Dataset::new(3, 5);
        for i in 0..120usize {
            let x =
                SparseVec::from_pairs(vec![((i % 4) as u32, 1.0), (4, (i % 3) as f32 * 0.5 - 0.5)]);
            data.push(x, (i % 3) as u32);
        }
        let folded = data.fold_duplicates();
        assert!(folded.data.len() < data.len(), "fixture must actually fold");
        let dim = 3 * 6;
        let w: Vec<f64> = (0..dim).map(|i| ((i * 3 % 7) as f64 - 3.0) * 0.1).collect();
        let mut g_ref = vec![0.0; dim];
        let l_ref = loss_grad(&data, 1.0, &w, &mut g_ref);
        let mut g_fold = vec![0.0; dim];
        let mut scratch = SpanScratch::default();
        let l_fold = loss_grad_folded_on(
            &Runtime::sequential(),
            &folded.data,
            &folded.counts,
            1.0,
            &w,
            &mut g_fold,
            &mut scratch,
        );
        assert!((l_ref - l_fold).abs() <= 1e-9 * l_ref.abs().max(1.0), "{l_ref} vs {l_fold}");
        for (i, (a, b)) in g_ref.iter().zip(&g_fold).enumerate() {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "grad[{i}]: {a} vs {b}");
        }
    }

    /// A dataset big enough to cross the multi-block threshold of
    /// `grad_blocks` (> 2 × `GRAD_MIN_BLOCK` examples).
    fn blocky_dataset() -> Dataset {
        blocky_dataset_k(3)
    }

    /// [`blocky_dataset`] over `k` classes.
    fn blocky_dataset_k(k: usize) -> Dataset {
        let mut data = Dataset::new(k, 6);
        for i in 0..500usize {
            let a = (i * 7 % 13) as f32 * 0.25 - 1.0;
            let b = (i * 11 % 17) as f32 * 0.125;
            let x =
                SparseVec::from_pairs(vec![((i % 6) as u32, a), (((i + 2) % 6) as u32, b + 1.0)]);
            data.push(x, (i % k) as u32);
        }
        data
    }

    /// `blocky_dataset` with heavy duplication: every row repeated enough
    /// that the folded row count still crosses the multi-block threshold.
    fn duplicated_blocky_dataset() -> Dataset {
        let base = blocky_dataset();
        let mut data = Dataset::new(base.n_classes, base.n_features);
        for r in 0..base.len() {
            for _ in 0..1 + (r % 3) {
                let (idx, vals) = base.row(r);
                data.push_row(idx, vals, base.labels()[r]);
            }
        }
        data
    }

    #[test]
    fn blocked_gradient_is_bit_identical_at_every_thread_count() {
        for k in [3, 10, 18] {
            let data = blocky_dataset_k(k);
            assert!(grad_blocks(data.len()).len() > 1, "fixture must exercise multiple blocks");
            let dim = k * 7;
            let w: Vec<f64> = (0..dim).map(|i| ((i * 5 % 9) as f64 - 4.0) * 0.05).collect();
            let mut ref_grad = vec![0.0; dim];
            let ref_loss = loss_grad_on(&Runtime::sequential(), &data, 1.0, &w, &mut ref_grad);
            for threads in [2, 4, 8] {
                let rt = Runtime::new(threads);
                let mut grad = vec![0.0; dim];
                let loss = loss_grad_on(&rt, &data, 1.0, &w, &mut grad);
                assert_eq!(
                    loss.to_bits(),
                    ref_loss.to_bits(),
                    "loss diverged at k={k}, threads={threads}"
                );
                assert!(
                    grad.iter().zip(&ref_grad).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "gradient diverged at k={k}, threads={threads}"
                );
            }
        }
    }

    /// A seeded random dataset over `k` classes and 40 features whose
    /// folded form holds more than `2 × GRAD_MIN_BLOCK` unique rows, many of
    /// them with a multiplicity above 1. `unit` rows are pure indicators;
    /// otherwise values are drawn from a few non-unit weights.
    fn random_folded_dataset(seed: u64, k: usize, unit: bool) -> FoldedDataset {
        let mut state = seed;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let d = 40;
        let mut data = Dataset::new(k, d);
        for _ in 0..300 {
            let mut idx: Vec<u32> = (0..next(8)).map(|_| next(d as u64) as u32).collect();
            idx.sort_unstable();
            idx.dedup();
            let pairs = idx
                .into_iter()
                .map(|i| (i, if unit { 1.0 } else { [0.5, -1.25, 2.0, 1.0][next(4) as usize] }));
            let x = SparseVec::from_pairs(pairs.collect());
            let y = next(k as u64) as u32;
            for _ in 0..1 + next(3) {
                data.push(x.clone(), y);
            }
        }
        assert_eq!(data.all_unit, unit, "fixture must take the intended kernel");
        data.fold_duplicates()
    }

    /// Scoring at the class width must equal the runtime-width loop to the
    /// bit, for the raw scores and the posteriors, on indicator rows and
    /// weighted rows, with indices at and past `n_features` skipped.
    #[test]
    fn class_width_scores_are_bit_identical_to_the_runtime_width_scores() {
        let d = 30;
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        };
        // Every width of the dispatch `match`, and one beyond it, which
        // takes the runtime width on both sides.
        for k in (2..=24).chain([29]) {
            let dim = k * (d + 1);
            let w: Vec<f64> = (0..dim).map(|i| ((i * 17 % 29) as f64 - 14.0) * 0.07).collect();
            let model = LogReg::from_parts(w, k, d).unwrap();
            let mut scratch = ScoreScratch::new();
            let mut reference = vec![0.0; k];
            let (mut skipped, mut weighted) = (false, false);
            for row in 0..40 {
                let unit = row % 2 == 0;
                // Indices run to d + 4: d itself must not alias the
                // intercept, and anything beyond must be skipped.
                let pairs: Vec<(u32, f32)> = (0..next(10))
                    .map(|_| {
                        let v = if unit { 1.0 } else { [0.5, -1.25, 3.0, 1.0][next(4) as usize] };
                        (next(d as u64 + 5) as u32, v)
                    })
                    .collect();
                let x = SparseVec::from_pairs(pairs);
                skipped |= x.iter().any(|(i, _)| i as usize >= d);
                let all_unit = x.iter().all(|(_, v)| v == 1.0);
                weighted |= !all_unit;
                if all_unit {
                    model.scores_accum::<true>(&x, &mut reference);
                } else {
                    model.scores_accum::<false>(&x, &mut reference);
                }
                let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();
                let got = model.scores_into(&x, &mut scratch);
                assert_eq!(bits(got), bits(&reference), "scores, k={k} row={row}");
                softmax_in_place(&mut reference);
                let got = model.predict_proba_into(&x, &mut scratch);
                assert_eq!(bits(got), bits(&reference), "posteriors, k={k} row={row}");
            }
            assert!(skipped && weighted, "fixture must cover skipped and weighted rows");
        }
    }

    #[test]
    fn const_width_kernel_is_bit_identical_to_the_runtime_width_kernel() {
        // Every width of the dispatch `match`, and one beyond it, which
        // takes the runtime-width kernel on both sides.
        for k in (2..=24).chain([29]) {
            for unit in [true, false] {
                let folded = random_folded_dataset(k as u64 * 2 + u64::from(unit), k, unit);
                let (data, counts) = (&folded.data, &folded.counts[..]);
                assert!(grad_blocks(data.len()).len() > 1, "fixture must span several blocks");
                assert!(counts.iter().any(|&c| c > 1), "fixture must fold");
                let dim = k * (data.n_features + 1);
                let w: Vec<f64> = (0..dim).map(|i| ((i * 13 % 23) as f64 - 11.0) * 0.03).collect();
                let eval = |rt: &Runtime, span: SpanFn| {
                    let mut grad = vec![0.0; dim];
                    let mut scratch = SpanScratch::default();
                    let loss = accumulate_on(rt, data, counts, &w, &mut grad, &mut scratch, span);
                    (loss, grad)
                };
                let (ref_loss, ref_grad) = eval(&Runtime::sequential(), span_kernel_wide);
                for threads in [1, 2, 8] {
                    let (loss, grad) = eval(&Runtime::new(threads), loss_grad_span);
                    assert_eq!(
                        loss.to_bits(),
                        ref_loss.to_bits(),
                        "loss diverged at k={k}, unit={unit}, threads={threads}"
                    );
                    for (i, (a, b)) in grad.iter().zip(&ref_grad).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "grad[{i}] diverged at k={k}, unit={unit}, threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_gradient_matches_the_serial_kernel_numerically() {
        // Block-order reduction reassociates float additions, so exact bit
        // equality with the flat serial loop is not promised — but the
        // values must agree to tight tolerance.
        let data = blocky_dataset();
        let dim = 3 * 7;
        let w: Vec<f64> = (0..dim).map(|i| ((i * 5 % 9) as f64 - 4.0) * 0.05).collect();
        let mut serial = vec![0.0; dim];
        let ls = loss_grad(&data, 1.0, &w, &mut serial);
        let mut blocked = vec![0.0; dim];
        let lb = loss_grad_on(&Runtime::new(4), &data, 1.0, &w, &mut blocked);
        assert!((ls - lb).abs() <= 1e-9 * ls.abs().max(1.0), "loss {ls} vs {lb}");
        for (i, (a, b)) in serial.iter().zip(&blocked).enumerate() {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "grad[{i}]: {a} vs {b}");
        }
    }

    #[test]
    fn train_on_is_thread_count_invariant() {
        let data = blocky_dataset();
        let cfg = TrainConfig::default();
        let (reference, ref_stats) = LogReg::train(&data, &cfg);
        for threads in [2, 8] {
            let (model, stats) = LogReg::train_on(&Runtime::new(threads), &data, &cfg);
            assert_eq!(model.weights(), reference.weights(), "weights diverged at {threads}");
            assert_eq!(stats.iterations, ref_stats.iterations);
            assert_eq!(stats.final_loss.to_bits(), ref_stats.final_loss.to_bits());
        }
        assert!(reference.accuracy(&data) > 0.5);
    }

    #[test]
    fn folded_training_is_thread_count_invariant() {
        // Duplicate-heavy data: folding must engage, shrink the walked row
        // count, and stay byte-identical at threads {1, 2, 8}.
        let data = duplicated_blocky_dataset();
        let cfg = TrainConfig::default();
        let (reference, ref_stats) = LogReg::train(&data, &cfg);
        assert_eq!(ref_stats.n_examples, data.len());
        assert_eq!(ref_stats.n_unique_rows, blocky_dataset().len());
        assert!(ref_stats.fold_ratio() > 1.5, "fold ratio {}", ref_stats.fold_ratio());
        assert!(
            grad_blocks(ref_stats.n_unique_rows).len() > 1,
            "folded fixture must still exercise multiple blocks"
        );
        for threads in [1, 2, 8] {
            let (model, stats) = LogReg::train_on(&Runtime::new(threads), &data, &cfg);
            assert_eq!(model.weights(), reference.weights(), "weights diverged at {threads}");
            assert_eq!(stats.iterations, ref_stats.iterations);
            assert_eq!(stats.final_loss.to_bits(), ref_stats.final_loss.to_bits());
            assert_eq!(stats.n_unique_rows, ref_stats.n_unique_rows);
        }
    }

    #[test]
    fn grad_blocks_cover_the_span_exactly_once() {
        for n in [0, 1, 63, 64, 129, 500, 4096] {
            let blocks = grad_blocks(n);
            let mut expect = 0;
            for &(a, b) in &blocks {
                assert_eq!(a, expect, "gap before block ({a}, {b}) in 0..{n}");
                assert!(b > a);
                expect = b;
            }
            assert_eq!(expect, n, "0..{n} not fully covered");
        }
    }

    /// The pre-CSR objective, verbatim: per-example `Vec<SparseVec>` rows,
    /// `SparseVec::dot` / `add_scaled_into` kernels, serial loop, L2 tail.
    /// The CSR path must reproduce it bit for bit.
    fn reference_loss_grad(
        examples: &[SparseVec],
        labels: &[u32],
        k: usize,
        d: usize,
        c: f64,
        w: &[f64],
        grad: &mut [f64],
    ) -> f64 {
        let stride = d + 1;
        grad.fill(0.0);
        let mut loss = 0.0;
        let mut scores = vec![0.0; k];
        for (x, &y) in examples.iter().zip(labels) {
            for (ki, s) in scores.iter_mut().enumerate() {
                let row = &w[ki * stride..(ki + 1) * stride];
                *s = x.dot(row) + row[d];
            }
            let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let lse = max + scores.iter().map(|s| (s - max).exp()).sum::<f64>().ln();
            loss += lse - scores[y as usize];
            for ki in 0..k {
                let p = (scores[ki] - lse).exp();
                let indicator = f64::from(ki as u32 == y);
                let coeff = p - indicator;
                let grow = &mut grad[ki * stride..(ki + 1) * stride];
                x.add_scaled_into(&mut grow[..d], coeff);
                grow[d] += coeff;
            }
        }
        // Penalty accumulated apart and added once — as `add_l2_penalty`
        // always did.
        let lambda = 1.0 / c;
        let mut penalty = 0.0;
        for ki in 0..k {
            for j in 0..d {
                let v = w[ki * stride + j];
                penalty += 0.5 * lambda * v * v;
                grad[ki * stride + j] += lambda * v;
            }
        }
        loss + penalty
    }

    proptest! {
        /// CSR streaming changes the memory layout, never the arithmetic:
        /// loss and every gradient component must match the per-example
        /// `Vec<SparseVec>` reference to the bit.
        #[test]
        fn prop_csr_loss_grad_matches_sparse_vec_reference(
            raw in proptest::collection::vec(
                (proptest::collection::vec((0u32..12, -2.0f32..2.0), 0..6), 0u32..3),
                1..40,
            ),
            wseed in 0u32..1000,
        ) {
            let (k, d) = (3usize, 12usize);
            let examples: Vec<SparseVec> =
                raw.iter().map(|(pairs, _)| SparseVec::from_pairs(pairs.clone())).collect();
            let labels: Vec<u32> = raw.iter().map(|&(_, y)| y).collect();
            let mut data = Dataset::new(k, d);
            for (x, &y) in examples.iter().zip(&labels) {
                data.push(x.clone(), y);
            }
            let dim = k * (d + 1);
            let w: Vec<f64> = (0..dim)
                .map(|i| (((i as u32).wrapping_mul(31).wrapping_add(wseed) % 17) as f64 - 8.0) * 0.07)
                .collect();
            let mut g_ref = vec![0.0; dim];
            let l_ref = reference_loss_grad(&examples, &labels, k, d, 1.0, &w, &mut g_ref);
            let mut g_csr = vec![0.0; dim];
            let l_csr = loss_grad(&data, 1.0, &w, &mut g_csr);
            prop_assert_eq!(l_csr.to_bits(), l_ref.to_bits());
            for (i, (a, b)) in g_csr.iter().zip(&g_ref).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "grad[{}] diverged", i);
            }
        }

        /// Folding is deterministic and lossless: first-occurrence order,
        /// multiplicities summing to the source length, and every unique
        /// row bit-equal to its first source occurrence.
        #[test]
        fn prop_fold_is_deterministic_and_lossless(
            raw in proptest::collection::vec(
                (proptest::collection::vec(0u32..6, 0..4), 0u32..2),
                1..60,
            ),
        ) {
            let mut data = Dataset::new(2, 6);
            for (idx, y) in &raw {
                data.push(SparseVec::from_indices(idx.clone()), *y);
            }
            let folded = data.fold_duplicates();
            prop_assert_eq!(folded.counts.len(), folded.data.len());
            prop_assert_eq!(folded.counts.iter().map(|&c| c as usize).sum::<usize>(), data.len());
            let again = data.fold_duplicates();
            prop_assert_eq!(&again.data, &folded.data);
            prop_assert_eq!(again.counts, folded.counts.clone());
            // Each source row must appear among the unique rows.
            for r in 0..data.len() {
                let x = data.sparse_row(r);
                let y = data.labels()[r];
                prop_assert!(
                    (0..folded.data.len()).any(|u| folded.data.labels()[u] == y
                        && folded.data.sparse_row(u) == x),
                    "source row {} lost by folding", r
                );
            }
        }
    }
}
