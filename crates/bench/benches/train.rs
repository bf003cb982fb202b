//! Criterion micro-bench for the training hot path: CSR dataset build +
//! L-BFGS fit at three sizes, on synthetic binary-indicator data with
//! heavy row duplication (~8–16× fold ratio). That stresses duplicate
//! folding far harder than the pipeline does: the benchmark workloads
//! fold 1.010× (`site_train`), 1.005× (`serve_harvest` set-up) and 1.057×
//! (`longtail_crawl`, heaviest single site 1.34×), so the fit numbers
//! here overstate the folding win on real sites.

use ceres_ml::{Dataset, LogReg, TrainConfig};
use ceres_synth::rng::derive_rng;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::Rng;

/// (examples, features, distinct row templates). Few templates relative to
/// the example count ⇒ high fold ratio (≈8×, 10×, 16×).
const SIZES: [(usize, usize, usize); 3] = [(500, 400, 60), (2000, 1200, 200), (8000, 3000, 500)];

/// Row index-sets for `templates` distinct rows over `features` features.
fn row_templates(features: usize, templates: usize) -> Vec<(Vec<u32>, u32)> {
    let mut rng = derive_rng(7, "bench-train-templates");
    (0..templates)
        .map(|_| {
            let nnz = rng.gen_range(4..24);
            let idx: Vec<u32> = (0..nnz).map(|_| rng.gen_range(0..features as u32)).collect();
            (idx, rng.gen_range(0..3))
        })
        .collect()
}

fn build_dataset(examples: usize, features: usize, templates: &[(Vec<u32>, u32)]) -> Dataset {
    let mut rng = derive_rng(7, "bench-train-rows");
    let mut data = Dataset::new(3, features);
    let mut buf: Vec<u32> = Vec::new();
    for _ in 0..examples {
        let (idx, y) = &templates[rng.gen_range(0..templates.len())];
        buf.extend_from_slice(idx);
        data.push_indicators_buf(&mut buf, *y);
    }
    data
}

fn bench_train(c: &mut Criterion) {
    let mut g = c.benchmark_group("train");
    g.sample_size(10);
    for (examples, features, templates) in SIZES {
        let tpl = row_templates(features, templates);
        g.throughput(Throughput::Elements(examples as u64));

        g.bench_function(BenchmarkId::new("dataset_build", examples), |b| {
            b.iter(|| black_box(build_dataset(examples, features, &tpl)))
        });

        let data = build_dataset(examples, features, &tpl);
        let fold = data.fold_duplicates();
        assert!(fold.data.len() < data.len(), "fixture must fold ({examples} examples)");
        let cfg = TrainConfig { max_iters: 25, ..TrainConfig::default() };
        g.bench_function(BenchmarkId::new("fit_lbfgs", examples), |b| {
            b.iter(|| black_box(LogReg::train(&data, &cfg)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_train);
criterion_main!(benches);
