//! The batched, memoized KB match path: `Kb::match_batch` must be
//! result-identical to per-field `Kb::match_norm` (same inputs, identical
//! `ValueId` slices in field order) across shard counts and with or
//! without a `MatchCache` in front, and the views built through the
//! folded batch path must be byte-identical at every thread count.

use ceres::kb::{Kb, KbBuilder, MatchCache, MatcherConfig, Ontology};
use ceres::prelude::*;
use ceres::synth::swde::{movie_vertical, SwdeConfig};
use ceres::text::normalize;
use proptest::prelude::*;

/// A KB with entities, aliases, literals, and deliberate ambiguity, built
/// at the given shard count.
fn fixture_kb(n_shards: usize) -> Kb {
    let mut o = Ontology::new();
    let film = o.register_type("Film");
    let person = o.register_type("Person");
    let directed = o.register_pred("film.directedBy", film, true);
    let genre = o.register_pred("film.genre", film, true);
    let mut b =
        KbBuilder::new(o).with_config(MatcherConfig { n_shards, ..MatcherConfig::default() });
    for i in 0..40 {
        let f = b.entity(film, &format!("Film Title {i}"));
        let p = b.entity(person, &format!("Director Person {i}"));
        // Fuzzy alias ("Person N, Director" token-sorts like the name)
        // and a shared ambiguous alias.
        b.alias(p, &format!("Person {i}, Director"));
        b.alias(f, "Pilot");
        let g = b.literal(if i % 2 == 0 { "Drama" } else { "Comedy" });
        b.triple(f, directed, p);
        b.triple(f, genre, g);
    }
    b.build()
}

/// Probe strings drawn from the KB vocabulary (exact hits, fuzzy hits,
/// ambiguity) mixed with junk and empties. One alternation branch per
/// probe family; `[0-9]|[1-3][0-9]` spans exactly the fixture's 0..40
/// entity indices.
fn probe_strategy() -> impl Strategy<Value = Vec<String>> {
    let one = "(Film Title ([0-9]|[1-3][0-9])\
               |director person ([0-9]|[1-3][0-9])\
               |person ([0-9]|[1-3][0-9]) director\
               |Pilot\
               |Drama\
               |\
               |[a-z ]{0,12})";
    proptest::collection::vec(one, 0..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `match_batch(norms)[i] == match_norm(norms[i])` — identical
    /// ValueId slices in field order, across shard counts, raw and
    /// through caches of several capacities (eviction included).
    #[test]
    fn match_batch_equals_per_field_match_norm(raw in probe_strategy()) {
        let norms: Vec<String> = raw.iter().map(|s| normalize(s)).collect();
        for n_shards in [1usize, 16, 64] {
            let kb = fixture_kb(n_shards);
            let per_field: Vec<&[ValueId]> = norms.iter().map(|n| kb.match_norm(n)).collect();
            let batch = kb.match_batch(&norms);
            prop_assert_eq!(&batch, &per_field, "n_shards={} uncached", n_shards);
            for capacity in [1usize, 4, 1024] {
                let mut cache = MatchCache::new(&kb, capacity);
                // Two rounds: the second replays every lookup warm.
                for round in 0..2 {
                    let cached = cache.match_batch(&norms);
                    prop_assert_eq!(
                        &cached, &per_field,
                        "n_shards={} capacity={} round={}", n_shards, capacity, round
                    );
                }
                let seq: Vec<&[ValueId]> = norms.iter().map(|n| cache.match_norm(n)).collect();
                prop_assert_eq!(&seq, &per_field, "n_shards={} capacity={} seq", n_shards, capacity);
            }
        }
    }
}

/// The views-path fold: `PageView::build` (unique-text folding + batch
/// matching, with and without a shared cache) must reproduce the naive
/// per-field matcher loop field-for-field.
#[test]
fn built_views_equal_naive_per_field_matching() {
    let (v, _) = movie_vertical(SwdeConfig { seed: 9, scale: 0.02 });
    let site = &v.sites[0];
    let mut cache = MatchCache::new(&v.kb, 256);
    for (id, html) in site.pages.iter().map(|p| (&p.id, &p.html)).take(12) {
        let built = ceres::core::page::PageView::build(id, html, &v.kb);
        let cached = ceres::core::page::PageView::build_with_cache(id, html, &v.kb, &mut cache);
        assert_eq!(built.fields.len(), cached.fields.len(), "page {id}");
        let doc = parse_html(html);
        for (fi, node) in doc.text_fields().into_iter().enumerate() {
            let norm = normalize(&doc.own_text(node));
            let want = v.kb.match_norm(&norm);
            assert_eq!(built.fields[fi].norm, norm, "page {id} field {fi}");
            assert_eq!(built.fields[fi].matches, want, "page {id} field {fi} (folded)");
            assert_eq!(cached.fields[fi].matches, want, "page {id} field {fi} (cached)");
        }
    }
}

/// `run_site` byte-identity at threads {1, 2, 8} with folding enabled:
/// the one-call pipeline and a hand-driven streaming session
/// (micro-batched ingest with per-batch caches) must produce identical
/// extractions at every thread count.
#[test]
fn run_site_output_is_thread_invariant_with_folding() {
    let (v, _) = movie_vertical(SwdeConfig { seed: 31, scale: 0.02 });
    let site = &v.sites[0];
    let pages: Vec<(String, String)> =
        site.pages.iter().map(|p| (p.id.clone(), p.html.clone())).collect();

    let run_at = |threads: usize| {
        let cfg = CeresConfig::new(5).with_threads(threads);
        run_site(&v.kb, &pages, None, &cfg, AnnotationMode::Full)
    };
    let stream_at = |threads: usize| {
        let cfg = CeresConfig::new(5).with_threads(threads);
        let mut session = SiteSession::builder(&v.kb).config(cfg).build();
        session.ingest(pages.iter().cloned());
        let trained = session.finish_training();
        trained.extract_training_pages()
    };

    let serial = run_at(1);
    assert!(serial.stats.trained, "fixture must train: {:?}", serial.stats);
    assert!(!serial.extractions.is_empty());
    let serial_stream = stream_at(1);
    for threads in [2usize, 8] {
        let run = run_at(threads);
        assert_eq!(serial.extractions, run.extractions, "run_site diverged at t={threads}");
        assert_eq!(serial.stats, run.stats, "run_site stats diverged at t={threads}");
        let streamed = stream_at(threads);
        assert_eq!(serial_stream, streamed, "streaming session diverged at t={threads}");
    }
    // The one-call and hand-driven forms agree with each other, too.
    assert_eq!(serial.extractions, serial_stream, "run_site vs streaming session");
}
