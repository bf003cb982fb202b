//! Quickstart: run CERES end-to-end on a handmade fourteen-page website
//! through the streaming session API (ingest → train → serve).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Demonstrates the core promise of the paper: seed the extractor with a
//! *partial* knowledge base, let it annotate and train itself, and harvest
//! facts about entities the KB has never heard of — including from a page
//! that arrives only *after* training is frozen.

use ceres::prelude::*;

fn main() {
    // --- 1. A seed KB knowing 8 of the site's 14 films ---
    let mut onto = Ontology::new();
    let film = onto.register_type("Film");
    let person = onto.register_type("Person");
    let directed = onto.register_pred("directedBy", film, true);
    let genre_p = onto.register_pred("genre", film, true);

    let cast_p = onto.register_pred("cast", film, true);
    let mut kb = KbBuilder::new(onto);
    let genres = ["Drama", "Comedy", "Action"];
    for i in 0..8 {
        let f = kb.entity(film, &format!("Movie Number {i}"));
        let d = kb.entity(person, &format!("Director Number {i}"));
        kb.triple(f, directed, d);
        let g = kb.literal(genres[i % 3]);
        kb.triple(f, genre_p, g);
        for j in 0..3 {
            let a = kb.entity(person, &format!("Star {i} {j}"));
            kb.triple(f, cast_p, a);
        }
    }
    let kb = kb.build();
    println!("Seed KB: {} triples over {} values", kb.n_triples(), kb.n_values());

    // --- 2. A templated website: 14 film pages, 6 beyond the KB ---
    let pages: Vec<(String, String)> = (0..14)
        .map(|i| {
            let g = genres[i % 3];
            (
                format!("page-{i}"),
                format!(
                    "<html><body><div class=nav><a>Home</a><a>Help</a></div>\
                     <h1 class=title>Movie Number {i}</h1>\
                     <div class=info>\
                     <div class=row><span class=label>Director:</span>\
                     <span class=val>Director Number {i}</span></div>\
                     <div class=row><span class=label>Genre:</span>\
                     <span class=val>{g}</span></div>\
                     </div>\
                     <div class=cast><h2>Cast</h2><ul>\
                     <li>Star {i} 0</li><li>Star {i} 1</li><li>Star {i} 2</li>\
                     </ul></div>\
                     <div class=footer><span>terms</span><span>privacy</span>\
                     <span>contact</span></div></body></html>"
                ),
            )
        })
        .collect();

    // --- 3. Ingest: push pages into a session (parsed in bounded,
    //        ordered blocks on the runtime's worker pool) ---
    let mut session = SiteSession::builder(&kb).config(CeresConfig::new(42)).build();
    session.ingest(pages);

    // --- 4. Train once: freeze per-cluster models + template signatures ---
    let trained = session.finish_training();
    println!(
        "Annotated {} pages ({} annotations), trained on {} examples, {} features",
        trained.stats().n_annotated_pages,
        trained.stats().n_annotations,
        trained.stats().n_train_examples,
        trained.stats().n_features,
    );

    // --- 5. Serve: extract from the site's own pages... ---
    let extractions = trained.extract_training_pages();
    println!("\nExtractions (subject | predicate | object | confidence):");
    let mut shown = 0;
    for e in &extractions {
        let pred = match &e.label {
            ExtractLabel::Name => "name".to_string(),
            ExtractLabel::Pred(p) => kb.ontology().pred_name(*p).to_string(),
        };
        println!("  {:22} | {:10} | {:20} | {:.2}", e.subject, pred, e.object, e.confidence);
        shown += 1;
    }
    let beyond_kb = extractions
        .iter()
        .filter(|e| {
            e.page_id.trim_start_matches("page-").parse::<usize>().map(|i| i >= 8).unwrap_or(false)
        })
        .count();
    println!("\n{shown} extractions total; {beyond_kb} from films the seed KB does not contain.");
    assert!(beyond_kb > 0, "expected long-tail extractions");

    // --- 6. ...and from a page the trained site has never seen, without
    //        re-training: the template signatures place it in its cluster
    //        and that cluster's frozen model extracts it ---
    let genre = "Drama";
    let late_page = format!(
        "<html><body><div class=nav><a>Home</a><a>Help</a></div>\
         <h1 class=title>A Film From The Future</h1>\
         <div class=info>\
         <div class=row><span class=label>Director:</span>\
         <span class=val>Director Yet Unborn</span></div>\
         <div class=row><span class=label>Genre:</span>\
         <span class=val>{genre}</span></div>\
         </div>\
         <div class=cast><h2>Cast</h2><ul>\
         <li>Future Star 0</li><li>Future Star 1</li><li>Future Star 2</li>\
         </ul></div>\
         <div class=footer><span>terms</span><span>privacy</span>\
         <span>contact</span></div></body></html>"
    );
    let late = trained.extract_page("page-late", &late_page);
    println!("\nServed after training, page-late yields {} extractions:", late.len());
    for e in &late {
        let pred = match &e.label {
            ExtractLabel::Name => "name".to_string(),
            ExtractLabel::Pred(p) => kb.ontology().pred_name(*p).to_string(),
        };
        println!("  {:22} | {:10} | {:20} | {:.2}", e.subject, pred, e.object, e.confidence);
    }
    assert!(
        late.iter().any(|e| e.object == "Director Yet Unborn"),
        "the frozen model must extract from the late-arriving page"
    );
}
