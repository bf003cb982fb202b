//! Regenerate every table and figure of the paper's evaluation section,
//! and exercise the train/serve process split on the synthetic fixture.
//!
//! ```text
//! repro [--scale S] [--seed N] [targets…]
//!
//! targets: all | table1 … table9 | fig2 | fig4 | fig5 | fig6 | ablations
//! default: all (at --scale 0.1)
//!
//! repro train [--scale S] [--seed N] [--threads T] [--site NAME|IDX] [--out PATH]
//! repro serve --artifact PATH [--scale S] [--seed N] [--threads T]
//!             [--site NAME|IDX] [--pages train|eval|all] [--verify | --fault-inject]
//! ```
//!
//! `train` builds the deterministic movie-vertical fixture, trains a
//! [`SiteSession`] on the protocol's annotation half, and writes the
//! frozen [`TrainedSite`] as a versioned artifact. `serve` — typically a
//! *different process* — rebuilds the same fixture (same `--scale`/
//! `--seed`), loads the artifact, and extracts from the chosen pages;
//! `--verify` additionally re-runs the whole session in-process and
//! asserts the served extractions are byte-identical.
//!
//! `--fault-inject` swaps the serve phase for the fault-isolation smoke:
//! the selected pages are armed with a seeded
//! [`FaultPlan`](ceres_synth::hostile::FaultPlan), the hostile corpus and
//! a mid-crawl template redesign are appended, and everything is served
//! through the outcome-typed [`TrainedSite::try_extract_batch`]. The run
//! prints quarantine counts by reason plus the drift watchdog's verdict
//! and exits non-zero unless every fault was contained, every expected
//! guard fired, and the watchdog flagged the redesign. Injected panics
//! only detonate in builds with `--features fault-inject`; without the
//! feature the same corpus must quarantine 0 panics.

use ceres_core::session::{SiteSession, TrainedSite};
use ceres_core::{CeresConfig, Extraction};
use ceres_eval::experiments as exp;
use ceres_eval::harness::{protocol_pages, EvalProtocol};
use ceres_synth::swde::{movie_vertical, SwdeConfig, SwdeVertical};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train") => return train_cmd(&args[1..]),
        Some("serve") => return serve_cmd(&args[1..]),
        _ => {}
    }
    // `--stats` anywhere switches to the per-stage profile report.
    if args.iter().any(|a| a == "--stats") {
        let rest: Vec<String> = args.iter().filter(|a| *a != "--stats").cloned().collect();
        return stats_cmd(&rest);
    }
    if args.iter().any(|a| a == "help" || a == "--help" || a == "-h") {
        println!(
            "repro [--scale S] [--seed N] [--threads T] [targets…]\n\
             targets: all | table1 table2 table3 table4 table5 table6 table7 table8 table9\n\
             \u{20}        | fig2 fig4 fig5 fig6 | ablations\n\
             --threads 0 (default) = auto: CERES_THREADS env, then the machine\n\
             \n\
             repro train [--scale S] [--seed N] [--threads T] [--site NAME|IDX] [--out PATH]\n\
             \u{20}   train once on the fixture's annotation half, write a TrainedSite artifact\n\
             repro serve --artifact PATH [--scale S] [--seed N] [--threads T]\n\
             \u{20}       [--site NAME|IDX] [--pages train|eval|all] [--verify | --fault-inject]\n\
             \u{20}   load the artifact in this process and extract; --verify diffs against\n\
             \u{20}   an in-process train+serve run (exit 1 on any divergence);\n\
             \u{20}   --fault-inject serves a poisoned stream through the outcome-typed\n\
             \u{20}   path and exits 1 unless every fault is contained and quarantined\n\
             \u{20}   (injected panics need a build with --features fault-inject)\n\
             repro --stats [--scale S] [--seed N] [--threads T] [--site NAME|IDX]\n\
             \u{20}   run one site end-to-end and print the per-stage wall-time profile"
        );
        return;
    }
    let (cfg, targets) = ceres_bench::parse_args(&args);
    let want = |t: &str| targets.iter().any(|x| x == t || x == "all");
    eprintln!(
        "# repro: seed={} scale={} threads={} targets={targets:?}",
        cfg.seed,
        cfg.scale,
        ceres_runtime::Runtime::with_threads(cfg.threads).threads()
    );

    let t0 = std::time::Instant::now();
    let section = |title: &str, body: String| {
        println!("==============================================================");
        println!("{title}   [t+{:.1}s]", t0.elapsed().as_secs_f64());
        println!("==============================================================");
        println!("{body}");
    };

    if want("table1") {
        section("TABLE 1", exp::table1(&cfg));
    }
    if want("table2") {
        section("TABLE 2", exp::table2(&cfg));
    }
    if want("table3") {
        section("TABLE 3", exp::table3(&cfg));
    }
    if want("table4") {
        section("TABLE 4", exp::table4(&cfg));
    }
    if want("table5") || want("table6") || want("table7") {
        let imdb = exp::build_imdb(&cfg);
        if want("table5") {
            section("TABLE 5", exp::table5(&cfg, &imdb));
        }
        if want("table6") {
            section("TABLE 6", exp::table6(&cfg, &imdb));
        }
        if want("table7") {
            section("TABLE 7", exp::table7(&cfg, &imdb));
        }
    }
    if want("table8") || want("table9") || want("fig6") {
        let cc = exp::build_commoncrawl(&cfg);
        if want("table8") {
            section("TABLE 8", exp::table8(&cfg, &cc));
        }
        if want("table9") {
            section("TABLE 9", exp::table9(&cfg, &cc));
        }
        if want("fig6") {
            section("FIGURE 6", exp::fig6(&cfg, &cc));
        }
    }
    if want("fig2") {
        section("FIGURE 2", exp::fig2(&cfg));
    }
    if want("fig4") {
        section("FIGURE 4", exp::fig4(&cfg));
    }
    if want("fig5") {
        section("FIGURE 5", exp::fig5(&cfg));
    }
    if want("ablations") {
        section("ABLATIONS", exp::ablations(&cfg));
    }
    eprintln!("# repro finished in {:.1}s", t0.elapsed().as_secs_f64());
}

// --- train / serve: the cross-process artifact lifecycle -----------------

/// Flags shared by `train` and `serve` (fixture identity + runtime).
struct ArtifactArgs {
    scale: f64,
    seed: u64,
    threads: usize,
    site: String,
    out: String,
    artifact: Option<String>,
    pages: String,
    verify: bool,
    fault_inject: bool,
}

impl Default for ArtifactArgs {
    fn default() -> Self {
        ArtifactArgs {
            // The bench fixture scale (what CI's round-trip smoke uses).
            scale: 0.05,
            seed: 42,
            threads: 0,
            site: "0".to_string(),
            out: "site.ceres".to_string(),
            artifact: None,
            pages: "eval".to_string(),
            verify: false,
            fault_inject: false,
        }
    }
}

fn parse_artifact_args(cmd: &str, args: &[String]) -> ArtifactArgs {
    // Each command only accepts its own flags — `repro train --verify`
    // must fail loudly, not silently verify nothing.
    let allowed: &[&str] = match cmd {
        "train" => &["--scale", "--seed", "--threads", "--site", "--out"],
        "stats" => &["--scale", "--seed", "--threads", "--site"],
        _ => &[
            "--scale",
            "--seed",
            "--threads",
            "--site",
            "--artifact",
            "--pages",
            "--verify",
            "--fault-inject",
        ],
    };
    let mut a = ArtifactArgs::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if !allowed.contains(&flag) {
            eprintln!("repro {cmd}: unknown flag {flag} (see `repro help`)");
            std::process::exit(2);
        }
        let value = |a: &mut usize| -> String {
            *a += 1;
            args.get(*a).cloned().unwrap_or_else(|| {
                eprintln!("repro {cmd}: flag {flag} needs a value");
                std::process::exit(2);
            })
        };
        // Malformed numbers are rejected, not silently defaulted — a typo'd
        // --scale would otherwise train a different fixture than asked for.
        fn parse_or_die<T: std::str::FromStr>(cmd: &str, flag: &str, raw: &str) -> T {
            raw.parse().unwrap_or_else(|_| {
                eprintln!("repro {cmd}: cannot parse {flag} value {raw:?}");
                std::process::exit(2);
            })
        }
        match flag {
            "--scale" => a.scale = parse_or_die(cmd, flag, &value(&mut i)),
            "--seed" => a.seed = parse_or_die(cmd, flag, &value(&mut i)),
            "--threads" => a.threads = parse_or_die(cmd, flag, &value(&mut i)),
            "--site" => a.site = value(&mut i),
            "--out" => a.out = value(&mut i),
            "--artifact" => a.artifact = Some(value(&mut i)),
            "--pages" => a.pages = value(&mut i),
            "--verify" => a.verify = true,
            "--fault-inject" => a.fault_inject = true,
            _ => unreachable!("flag was checked against the allowed list"),
        }
        i += 1;
    }
    a
}

/// Build the deterministic fixture and index the requested site.
fn fixture_site(a: &ArtifactArgs) -> (SwdeVertical, usize) {
    let (v, _) = movie_vertical(SwdeConfig { seed: a.seed, scale: a.scale });
    let idx = match a.site.parse::<usize>() {
        Ok(i) if i < v.sites.len() => i,
        _ => match v.sites.iter().position(|s| s.name == a.site) {
            Some(i) => i,
            None => {
                let names: Vec<&str> = v.sites.iter().map(|s| s.name.as_str()).collect();
                eprintln!("repro: no site {:?} in the fixture (sites: {names:?})", a.site);
                std::process::exit(2);
            }
        },
    };
    (v, idx)
}

/// `repro --stats`: run one fixture site end-to-end (train on the
/// protocol's annotation half, extract from the eval half) and print the
/// per-stage wall-time profile — the profiling entry point the README's
/// parallelism workflow starts from.
fn stats_cmd(args: &[String]) {
    let a = parse_artifact_args("stats", args);
    let (v, site_idx) = fixture_site(&a);
    let site = &v.sites[site_idx];
    let (train_pages, eval_pages) = protocol_pages(site, EvalProtocol::SplitHalves);
    let cfg = CeresConfig::new(a.seed).with_threads(a.threads);
    let threads = ceres_runtime::Runtime::with_threads(cfg.threads).threads();
    eprintln!(
        "# repro --stats: site={} train_pages={} eval_pages={} scale={} seed={} threads={}",
        site.name,
        train_pages.len(),
        eval_pages.as_ref().map_or(0, Vec::len),
        a.scale,
        a.seed,
        threads
    );

    let run = ceres_core::pipeline::run_site(
        &v.kb,
        &train_pages,
        eval_pages.as_deref(),
        &cfg,
        ceres_core::AnnotationMode::Full,
    );

    let profile = &run.profile;
    let total = profile.total_ms().max(f64::EPSILON);
    println!("stage      wall_ms      share  pool_jobs");
    for (name, st) in profile.stages() {
        println!("{name:<9} {:>10.2} {:>9.1}% {:>10}", st.ms, st.ms / total * 100.0, st.pool_jobs);
    }
    println!("total     {:>10.2}", profile.total_ms());
    println!(
        "{} clusters, {} train examples, {} extractions at threads={threads}",
        run.stats.n_clusters,
        run.stats.n_train_examples,
        run.extractions.len()
    );
    println!(
        "train fold: {} examples -> {} unique rows (ratio {:.2}x)",
        run.fold.n_examples,
        run.fold.n_unique_rows,
        run.fold.fold_ratio()
    );
    if threads == 1 {
        eprintln!("# threads=1 runs stages inline; pass --threads N>1 to see pool-job attribution");
    }
}

fn train_cmd(args: &[String]) {
    let a = parse_artifact_args("train", args);
    let (v, site_idx) = fixture_site(&a);
    let site = &v.sites[site_idx];
    let (train_pages, _) = protocol_pages(site, EvalProtocol::SplitHalves);
    let cfg = CeresConfig::new(a.seed).with_threads(a.threads);
    eprintln!(
        "# repro train: site={} pages={} scale={} seed={} threads={}",
        site.name,
        train_pages.len(),
        a.scale,
        a.seed,
        ceres_runtime::Runtime::with_threads(cfg.threads).threads()
    );

    let t0 = std::time::Instant::now();
    let mut session = SiteSession::builder(&v.kb).config(cfg).build();
    session.ingest(train_pages);
    let trained = session.finish_training();
    let train_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = std::time::Instant::now();
    let file = std::fs::File::create(&a.out).unwrap_or_else(|e| {
        eprintln!("repro train: cannot create {}: {e}", a.out);
        std::process::exit(1);
    });
    let mut sink = std::io::BufWriter::new(file);
    if let Err(e) = trained.save(&mut sink) {
        eprintln!("repro train: saving {} failed: {e}", a.out);
        std::process::exit(1);
    }
    drop(sink);
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Reporting "0 bytes" when the stat fails would be a lie about a file
    // we just claimed to have written; the file vanishing (or turning
    // unreadable) between write and stat is a hard error.
    let bytes = match std::fs::metadata(&a.out) {
        Ok(m) => m.len(),
        Err(e) => {
            eprintln!(
                "repro train: artifact {} was written but cannot be stat'd afterwards: {e}",
                a.out
            );
            std::process::exit(1);
        }
    };

    let stats = trained.stats();
    println!(
        "trained {} on {} pages: {} clusters, {} train examples → {} ({} bytes)",
        site.name, stats.n_annotation_pages, stats.n_clusters, stats.n_train_examples, a.out, bytes
    );
    eprintln!("# train {train_ms:.1} ms, save {save_ms:.1} ms");
}

fn serve_cmd(args: &[String]) {
    let a = parse_artifact_args("serve", args);
    let Some(artifact_path) = a.artifact.as_deref() else {
        eprintln!("repro serve: --artifact PATH is required");
        std::process::exit(2);
    };
    if a.verify && a.fault_inject {
        eprintln!(
            "repro serve: --verify and --fault-inject are mutually exclusive \
             (the poisoned stream has no fail-fast reference run)"
        );
        std::process::exit(2);
    }
    let (v, site_idx) = fixture_site(&a);
    let site = &v.sites[site_idx];
    let (train_pages, eval_pages) = protocol_pages(site, EvalProtocol::SplitHalves);
    // A panic here would blame the protocol; the actual failure mode is a
    // fixture site too small to split (e.g. a tiny --scale), which the
    // operator can fix.
    let Some(eval_pages) = eval_pages else {
        eprintln!(
            "repro serve: site {} has no eval half under the split-halves protocol \
             ({} pages total) — grow --scale or pick a larger site",
            site.name,
            site.pages.len()
        );
        std::process::exit(1);
    };
    let pages: Vec<(String, String)> = match a.pages.as_str() {
        "train" => train_pages.clone(),
        "eval" => eval_pages.clone(),
        "all" => train_pages.iter().chain(eval_pages.iter()).cloned().collect(),
        other => {
            eprintln!("repro serve: --pages must be train|eval|all, got {other:?}");
            std::process::exit(2);
        }
    };
    if pages.is_empty() {
        eprintln!(
            "repro serve: --pages {} selected no pages on site {} \
             ({} train / {} eval available) — nothing to extract from",
            a.pages,
            site.name,
            train_pages.len(),
            eval_pages.len()
        );
        std::process::exit(1);
    }

    let t0 = std::time::Instant::now();
    let file = std::fs::File::open(artifact_path).unwrap_or_else(|e| {
        eprintln!("repro serve: cannot open {artifact_path}: {e}");
        std::process::exit(1);
    });
    let rt = ceres_runtime::Runtime::with_threads(
        CeresConfig::new(a.seed).with_threads(a.threads).threads,
    );
    let mut loaded = match TrainedSite::load_on(&v.kb, rt, std::io::BufReader::new(file)) {
        Ok(site) => site,
        Err(e) => {
            eprintln!("repro serve: loading {artifact_path} failed: {e}");
            std::process::exit(1);
        }
    };
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    if a.fault_inject {
        eprintln!(
            "# repro serve --fault-inject: site={} artifact={artifact_path} \
             base_pages={} ({}) load {load_ms:.1} ms",
            site.name,
            pages.len(),
            a.pages
        );
        return fault_inject_serve(&a, &mut loaded, &pages);
    }

    let t0 = std::time::Instant::now();
    let extractions = loaded.extract_batch(&pages);
    let extract_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "# repro serve: site={} artifact={artifact_path} pages={} ({}) \
         load {load_ms:.1} ms, extract {extract_ms:.1} ms",
        site.name,
        pages.len(),
        a.pages
    );
    print_extractions(&v, &extractions);

    if a.verify {
        // The single-process reference: train in *this* process on the
        // same fixture, serve the same pages, demand byte-identity.
        let cfg = CeresConfig::new(a.seed).with_threads(a.threads);
        let mut session = SiteSession::builder(&v.kb).config(cfg).build();
        session.ingest(train_pages);
        let reference = session.finish_training().extract_batch(&pages);
        if extractions == reference {
            println!(
                "verify: OK — {} extractions byte-identical to the in-process run",
                extractions.len()
            );
        } else {
            eprintln!(
                "verify: MISMATCH — artifact served {} extractions, \
                 in-process run produced {}",
                extractions.len(),
                reference.len()
            );
            for (i, (got, want)) in extractions.iter().zip(&reference).enumerate() {
                if got != want {
                    eprintln!("  first divergence at {i}: {got:?} != {want:?}");
                    break;
                }
            }
            std::process::exit(1);
        }
    }
}

/// `repro serve --fault-inject`: serve a deliberately poisoned stream —
/// the fixture pages armed with a seeded [`ceres_synth::hostile::FaultPlan`], the hostile
/// corpus, and a trailing mid-crawl template redesign — through the
/// outcome-typed path, then assert containment:
///
/// * the process reaches this line at all (no abort);
/// * every injected panic (builds with `--features fault-inject`) lands as
///   a `panicked` quarantine in exactly its own slot — and without the
///   feature, zero pages report `panicked`;
/// * the corpus's guard violations quarantine under their expected
///   reasons;
/// * the drift watchdog flags the redesign.
///
/// Exit 0 with a final `fault-inject: OK` line, or exit 1 with the first
/// violated invariant — CI greps the counters out of stdout.
fn fault_inject_serve(a: &ArtifactArgs, loaded: &mut TrainedSite, pages: &[(String, String)]) {
    use ceres_core::session::{ExtractOutcome, PageError};
    use ceres_synth::hostile;

    let fail = |msg: String| {
        eprintln!("fault-inject: FAIL — {msg}");
        std::process::exit(1);
    };

    // Arm ~1 in 8 of the fixture pages with the panic marker.
    let mut serve_pages = pages.to_vec();
    let plan = hostile::FaultPlan::new(a.seed, serve_pages.len(), (serve_pages.len() / 8).max(1));
    plan.arm_pages(&mut serve_pages);
    let n_fixture = serve_pages.len();
    // The ingest pathologies, served cold…
    let corpus = hostile::hostile_corpus(a.seed);
    serve_pages.extend(corpus.iter().map(|p| (p.id.clone(), p.html.clone())));
    // …and a site redesign at the end of the stream: drift-watchdog food.
    serve_pages.extend((0..12).map(hostile::drifted_page));

    // Tighten the drift window so the 12-page redesign is judgeable at
    // smoke scale (a loaded site starts from DriftConfig::default()).
    loaded.set_drift(ceres_core::DriftConfig {
        window: 16,
        min_samples: 8,
        max_unassigned_rate: 0.5,
    });

    // Contained panics still run the global panic hook; without this the
    // smoke's stderr is one full backtrace per injected fault. The
    // outcomes carry every payload, so the hook adds nothing here.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let t0 = std::time::Instant::now();
    let outcomes = loaded.try_extract_batch(&serve_pages);
    let serve_ms = t0.elapsed().as_secs_f64() * 1e3;
    std::panic::set_hook(quiet);
    let mut watchdog = loaded.drift_watchdog();
    let signal = watchdog.observe_batch(&outcomes);

    if outcomes.len() != serve_pages.len() {
        fail(format!("{} pages in, {} outcomes out", serve_pages.len(), outcomes.len()));
    }
    let mut ok = 0usize;
    let mut unassigned = 0usize;
    let mut extractions = 0usize;
    let mut by_reason: Vec<(&str, usize)> = PageError::KINDS.iter().map(|k| (*k, 0)).collect();
    for outcome in &outcomes {
        match outcome {
            ExtractOutcome::Ok(ex) => {
                ok += 1;
                extractions += ex.len();
            }
            ExtractOutcome::Unassigned { .. } => unassigned += 1,
            ExtractOutcome::Failed(e) => {
                if let Some(slot) = by_reason.iter_mut().find(|(k, _)| *k == e.kind()) {
                    slot.1 += 1;
                }
            }
        }
    }
    let quarantined: usize = by_reason.iter().map(|(_, n)| n).sum();
    let panicked = by_reason.iter().find(|(k, _)| *k == "panicked").map_or(0, |(_, n)| *n);

    // Every poisoned slot — and only poisoned slots — detonates when the
    // hook is compiled in; without it the marker must be inert.
    let injected = if cfg!(feature = "fault-inject") { plan.n_poisoned() } else { 0 };
    for i in 0..n_fixture {
        let blown = matches!(&outcomes[i], ExtractOutcome::Failed(PageError::Panicked { .. }));
        let expected = cfg!(feature = "fault-inject") && plan.is_poisoned(i);
        if blown != expected {
            fail(format!(
                "page {} ({}) {} — expected the opposite",
                i,
                serve_pages[i].0,
                if blown { "panicked" } else { "did not panic" }
            ));
        }
    }
    if panicked != injected {
        fail(format!("{injected} panics injected but {panicked} contained"));
    }
    // The corpus's guard violations must quarantine under their slugs.
    for want in ["oversized", "parse-depth", "empty-dom"] {
        if !by_reason.iter().any(|(k, n)| *k == want && *n >= 1) {
            fail(format!("no page quarantined as {want}"));
        }
    }
    if !signal.retrain_suggested() {
        fail(format!("redesign tail did not trip the drift watchdog ({signal:?})"));
    }

    println!(
        "fault-inject: pages={} ok={ok} unassigned={unassigned} quarantined={quarantined}",
        serve_pages.len()
    );
    let reasons = by_reason.iter().map(|(k, n)| format!("{k}={n}")).collect::<Vec<_>>().join(" ");
    println!("fault-inject: quarantine {reasons}");
    println!("fault-inject: injected={injected} contained={panicked}");
    println!(
        "fault-inject: drift retrain_suggested={} window_rate={:.2}",
        signal.retrain_suggested(),
        watchdog.window_unassigned_rate()
    );
    println!("fault-inject: extractions={extractions}");
    eprintln!("# fault-inject: served {} pages in {serve_ms:.1} ms", serve_pages.len());
    println!("fault-inject: OK");
}

/// Deterministic extraction dump: one tab-separated line per triple.
fn print_extractions(v: &SwdeVertical, extractions: &[Extraction]) {
    for e in extractions {
        let label = match e.label {
            ceres_core::extract::ExtractLabel::Name => "NAME",
            ceres_core::extract::ExtractLabel::Pred(p) => v.kb.ontology().pred_name(p),
        };
        println!("{}\t{}\t{}\t{}\t{:.6}", e.page_id, label, e.subject, e.object, e.confidence);
    }
}
