//! The determinism contract, live: stream the same site through a
//! `SiteSession` at 1, 2, and N threads, verify the three `SiteRun`s are
//! identical, and print the wall times. `CERES_THREADS` (or
//! `CeresConfig::threads`) picks the fan-out — including how many ingest
//! micro-batches parse concurrently — and the output never depends on it.
//!
//! ```text
//! cargo run --release --example thread_scaling [scale]
//! ```

use ceres::prelude::*;
use ceres::synth::swde::{movie_vertical, SwdeConfig};
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.05);
    eprintln!("generating one movie-vertical site at scale {scale}…");
    let (v, _) = movie_vertical(SwdeConfig { seed: 42, scale });
    let site = &v.sites[0];

    let available = Runtime::from_env().threads();
    let mut baseline: Option<SiteRun> = None;
    for threads in [1, 2, available.max(2)] {
        let cfg = CeresConfig::new(42).with_threads(threads);
        let t0 = Instant::now();
        // Ingest: one push per page, parsed in ordered pool blocks; train
        // once; serve the site's own pages.
        let mut session = SiteSession::builder(&v.kb).config(cfg).build();
        for p in &site.pages {
            session.push_page(p.id.clone(), p.html.clone());
        }
        let trained = session.finish_training();
        let n_pages = trained.n_training_pages();
        let extractions = trained.extract_training_pages();
        let run = trained.into_site_run(extractions, n_pages);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "threads={threads:<2}  {:>8.1} ms   {} extractions, {} clusters, trained={}",
            ms,
            run.extractions.len(),
            run.stats.n_clusters,
            run.stats.trained
        );
        match &baseline {
            None => baseline = Some(run),
            Some(b) => {
                assert_eq!(b.stats, run.stats);
                assert_eq!(b.extractions, run.extractions);
                assert_eq!(b.topic_records, run.topic_records);
                assert_eq!(b.annotation_records, run.annotation_records);
            }
        }
    }
    println!("all runs byte-identical ✓");
}
