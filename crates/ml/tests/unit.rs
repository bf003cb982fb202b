//! Unit tests for the ML substrate: logistic regression on a separable toy
//! problem, sparse/dense dot-product agreement, clustering determinism.

use ceres_ml::{
    agglomerative_cluster, Dataset, LogReg, Optimizer, ScoreScratch, SparseVec, TrainConfig,
};

/// Three linearly separable classes, each keyed by a disjoint feature block.
fn separable_dataset() -> Dataset {
    let mut data = Dataset::new(3, 9);
    for rep in 0..20u32 {
        for class in 0..3u32 {
            let base = class * 3;
            // Vary the secondary feature per repetition so examples differ.
            let idx = vec![base, base + 1 + (rep % 2)];
            data.push(SparseVec::from_indices(idx), class);
        }
    }
    data
}

#[test]
fn logreg_learns_linearly_separable_toy_set() {
    let data = separable_dataset();
    for optimizer in [Optimizer::Lbfgs, Optimizer::Sgd] {
        let cfg = TrainConfig { optimizer, ..TrainConfig::default() };
        let (model, stats) = LogReg::train(&data, &cfg);
        assert!(
            model.accuracy(&data) > 0.99,
            "{optimizer:?} failed to separate a separable set: {stats:?}"
        );
        // Confident on a canonical member of each class.
        let mut scratch = ScoreScratch::new();
        for class in 0..3u32 {
            let x = SparseVec::from_indices(vec![class * 3, class * 3 + 1]);
            let (pred, p) = model.predict_into(&x, &mut scratch);
            assert_eq!(pred, class);
            assert!(p > 0.5, "class {class} probability {p:.3} too diffuse");
        }
    }
}

#[test]
fn logreg_training_is_deterministic() {
    let data = separable_dataset();
    let cfg = TrainConfig::default();
    let (a, _) = LogReg::train(&data, &cfg);
    let (b, _) = LogReg::train(&data, &cfg);
    let x = SparseVec::from_indices(vec![0, 1]);
    let (mut sa, mut sb) = (ScoreScratch::new(), ScoreScratch::new());
    assert_eq!(a.predict_proba_into(&x, &mut sa), b.predict_proba_into(&x, &mut sb));
}

#[test]
fn sparse_dot_matches_dense() {
    let dense_x = [0.0, 1.5, 0.0, -2.0, 0.25, 0.0, 3.0];
    let pairs: Vec<(u32, f32)> = dense_x
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0.0)
        .map(|(i, &v)| (i as u32, v as f32))
        .collect();
    let sparse = SparseVec::from_pairs(pairs);
    let w = [0.5, -1.0, 2.0, 0.75, 4.0, -0.125, 1.0 / 3.0];
    let dense_dot: f64 = dense_x.iter().zip(&w).map(|(&x, &wi)| x * wi).sum();
    assert!(
        (sparse.dot(&w) - dense_dot).abs() < 1e-9,
        "sparse {} vs dense {}",
        sparse.dot(&w),
        dense_dot
    );
    // Empty vector dots to zero against anything.
    assert_eq!(SparseVec::new().dot(&w), 0.0);
}

/// Pins the intended skip semantics of `SparseVec::dot` /
/// `add_scaled_into` for late-interned features: a feature interned into a
/// live dictionary *after* a model's weights were sized (so its index is ≥
/// the model's `n_features`) must contribute nothing to any scoring path —
/// not shift probabilities, not alias another weight slot, not panic.
#[test]
fn late_interned_features_do_not_change_predictions() {
    let data = separable_dataset();
    let (model, _) = LogReg::train(&data, &TrainConfig::default());
    assert_eq!(model.n_features(), 9);

    let seen = SparseVec::from_indices(vec![0, 1]);
    // Same vector plus features a live dictionary interned after training
    // froze the weight shape — including index 9, one past the last real
    // feature (the slot a careless kernel would alias to the intercept).
    let with_late = SparseVec::from_pairs(vec![(0, 1.0), (1, 1.0), (9, 1.0), (40, 2.5)]);

    let (mut sa, mut sb) = (ScoreScratch::new(), ScoreScratch::new());
    assert_eq!(model.scores_into(&seen, &mut sa), model.scores_into(&with_late, &mut sb));
    assert_eq!(
        model.predict_proba_into(&seen, &mut sa),
        model.predict_proba_into(&with_late, &mut sb)
    );
    assert_eq!(model.predict_into(&seen, &mut sa), model.predict_into(&with_late, &mut sb));

    // The raw kernels skip too: dot ignores the out-of-range pair, and
    // add_scaled_into leaves an accumulator sized to the weight row alone.
    let w = [1.0, 2.0, 3.0];
    let v = SparseVec::from_pairs(vec![(1, 1.0), (3, 100.0)]);
    assert_eq!(v.dot(&w), 2.0);
    let mut acc = vec![0.0; 3];
    v.add_scaled_into(&mut acc, 1.0);
    assert_eq!(acc, vec![0.0, 1.0, 0.0]);
}

#[test]
fn sparse_add_scaled_matches_dense_axpy() {
    let sparse = SparseVec::from_pairs(vec![(1, 2.0), (4, -1.0)]);
    let mut acc = vec![1.0; 6];
    sparse.add_scaled_into(&mut acc, 0.5);
    assert_eq!(acc, vec![1.0, 2.0, 1.0, 1.0, 0.5, 1.0]);
}

#[test]
fn clustering_is_deterministic_and_respects_k() {
    let items: Vec<f64> = vec![0.0, 0.1, 0.2, 10.0, 10.1, 20.0, 20.2, 20.4];
    let weights = vec![1u64; items.len()];
    let dist = |a: &f64, b: &f64| (a - b).abs();

    let a = agglomerative_cluster(&items, &weights, 3, dist);
    let b = agglomerative_cluster(&items, &weights, 3, dist);
    assert_eq!(a.assignment, b.assignment, "same input must yield same clustering");
    assert_eq!(a.n_clusters, 3);

    // The three obvious groups must land in three distinct clusters.
    assert_eq!(a.assignment[0], a.assignment[1]);
    assert_eq!(a.assignment[0], a.assignment[2]);
    assert_eq!(a.assignment[3], a.assignment[4]);
    assert_eq!(a.assignment[5], a.assignment[6]);
    assert_eq!(a.assignment[5], a.assignment[7]);
    assert_ne!(a.assignment[0], a.assignment[3]);
    assert_ne!(a.assignment[3], a.assignment[5]);

    // Cluster weights account for every item.
    assert_eq!(a.cluster_weights.iter().sum::<u64>(), items.len() as u64);
}

#[test]
fn clustering_handles_degenerate_sizes() {
    let dist = |a: &u32, b: &u32| f64::from(a.abs_diff(*b));
    let empty = agglomerative_cluster::<u32, _>(&[], &[], 3, dist);
    assert_eq!(empty.n_clusters, 0);
    let single = agglomerative_cluster(&[7u32], &[5], 3, dist);
    assert_eq!(single.n_clusters, 1);
    assert_eq!(single.cluster_weights, vec![5]);
}
