//! Criterion benches for the CERES pipeline stages on a realistic site:
//! topic identification (Algorithm 1), relation annotation (Algorithm 2)
//! and page-view construction. End-to-end site runs are measured by the
//! repository benchmark (`benchmark/`), not here.

use ceres_core::annotate::{annotate_relations, AnnotationMode};
use ceres_core::page::PageView;
use ceres_core::topic::identify_topics;
use ceres_core::CeresConfig;
use ceres_synth::movie_pages::{render_film_page, MoviePathology, MovieRenderCtx};
use ceres_synth::movie_world::{KbBias, MovieWorld, MovieWorldConfig};
use ceres_synth::rng::derive_rng;
use ceres_synth::SiteStyle;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

struct Fixture {
    kb: ceres_kb::Kb,
    views: Vec<PageView>,
}

fn fixture(n_pages: usize) -> Fixture {
    let world = MovieWorld::generate(MovieWorldConfig {
        seed: 5,
        n_people: 500,
        n_films: (n_pages * 2).max(80),
        n_series: 4,
        title_collision_share: 0.02,
    });
    let kb = world.build_kb(&KbBias::default()).kb;
    let mut rng = derive_rng(5, "bench-site");
    let style = SiteStyle::random(&mut rng, "en", "pp");
    let pathology = MoviePathology::default();
    let ctx =
        MovieRenderCtx { world: &world, style: &style, site_name: "bench", pathology: &pathology };
    let views: Vec<PageView> = (0..n_pages)
        .map(|i| {
            let page = render_film_page(&ctx, i, &mut rng);
            PageView::build(&page.id, &page.html, &kb)
        })
        .collect();
    Fixture { kb, views }
}

/// Stage benches: Algorithm 1 and Algorithm 2 on 60 pages.
fn bench_stages(c: &mut Criterion) {
    let fx = fixture(60);
    let refs: Vec<&PageView> = fx.views.iter().collect();
    let cfg = CeresConfig::new(5);

    c.bench_function("pipeline/topic_identification_60p", |b| {
        b.iter(|| black_box(identify_topics(&refs, &fx.kb, &cfg.topic)))
    });

    let topics = identify_topics(&refs, &fx.kb, &cfg.topic);
    c.bench_function("pipeline/relation_annotation_60p", |b| {
        b.iter(|| {
            black_box(annotate_relations(
                &refs,
                &fx.kb,
                &topics,
                &cfg.annotate,
                AnnotationMode::Full,
            ))
        })
    });
}

/// Page-view construction (parse + match) — extraction's fixed cost.
fn bench_pageview(c: &mut Criterion) {
    let world = MovieWorld::generate(MovieWorldConfig {
        seed: 6,
        n_people: 300,
        n_films: 100,
        n_series: 3,
        title_collision_share: 0.02,
    });
    let kb = world.build_kb(&KbBias::default()).kb;
    let mut rng = derive_rng(6, "pv");
    let style = SiteStyle::random(&mut rng, "en", "pv");
    let pathology = MoviePathology::default();
    let ctx =
        MovieRenderCtx { world: &world, style: &style, site_name: "bench", pathology: &pathology };
    let htmls: Vec<String> = (0..20).map(|i| render_film_page(&ctx, i, &mut rng).html).collect();
    c.bench_function("pipeline/page_view_build_20p", |b| {
        b.iter(|| {
            for (i, h) in htmls.iter().enumerate() {
                black_box(PageView::build(&format!("p{i}"), h, &kb));
            }
        })
    });
}

criterion_group!(benches, bench_stages, bench_pageview);
criterion_main!(benches);
