//! The persistence contract of the trained-site artifact:
//!
//! 1. a `TrainedSite` saved in one process and loaded in another serves
//!    **byte-identical** extractions to the in-memory session, at threads
//!    {1, 2, 8} on both the save and the load side (the file on disk is
//!    the process boundary — the codec stores no addresses, and CI's
//!    round-trip smoke additionally runs the two halves as literally
//!    separate `repro train` / `repro serve` processes);
//! 2. corrupted / truncated / version-bumped / wrong-KB bytes fail with a
//!    descriptive typed error — the loader never panics on any input
//!    (pinned deterministically and by proptest over mutated artifacts).

use ceres::eval::harness::{protocol_pages, EvalProtocol};
use ceres::prelude::*;
use ceres::store::Error as StoreError;
use ceres::synth::swde::{movie_vertical, SwdeConfig};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

type Pages = Vec<(String, String)>;

fn fixture() -> (ceres::synth::swde::SwdeVertical, Pages, Pages) {
    let (v, _) = movie_vertical(SwdeConfig { seed: 77, scale: 0.02 });
    let (train, eval) = protocol_pages(&v.sites[0], EvalProtocol::SplitHalves);
    let eval = eval.expect("split halves has an eval half");
    (v, train, eval)
}

fn train_at<'kb>(kb: &'kb Kb, train: &Pages, threads: usize) -> TrainedSite<'kb> {
    let mut session =
        SiteSession::builder(kb).config(CeresConfig::new(77).with_threads(threads)).build();
    session.ingest(train.iter().cloned());
    session.finish_training()
}

#[test]
fn loaded_artifact_serves_byte_identically_across_the_thread_matrix() {
    let (v, train, eval) = fixture();
    let kb = &v.kb;
    let reference_site = train_at(kb, &train, 1);
    let reference = reference_site.extract_batch(&eval);
    assert!(
        !reference.is_empty() && reference_site.stats().trained,
        "fixture must train and extract"
    );
    let bytes = reference_site.to_bytes().expect("save");

    // The artifact bytes themselves are thread-count invariant: training
    // at any parallelism serializes to the identical file.
    for threads in THREAD_COUNTS {
        let other = train_at(kb, &train, threads).to_bytes().expect("save");
        assert_eq!(other, bytes, "artifact bytes differ when trained at {threads} threads");
    }

    // Round trip through a real file (the process boundary): loading at
    // any thread count serves the eval half byte-identically — f64
    // confidences included.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("ceres-artifact-test-{}.ceres", std::process::id()));
    std::fs::write(&path, &bytes).expect("write artifact file");
    let mut loaded_records = Vec::new();
    for threads in THREAD_COUNTS {
        let file = std::fs::File::open(&path).expect("open artifact file");
        let loaded =
            TrainedSite::load_on(kb, Runtime::new(threads), file).expect("load artifact from file");
        assert_eq!(
            loaded.extract_batch(&eval),
            reference,
            "loaded artifact diverged at {threads} threads"
        );
        // One-at-a-time serving agrees with the batch path too.
        for (id, html) in eval.iter().take(3) {
            assert_eq!(loaded.extract_page(id, html), reference_site.extract_page(id, html));
        }
        // Training-side records crossed the boundary; the corpus did not.
        assert_eq!(loaded.stats(), reference_site.stats());
        assert_eq!(loaded.n_training_pages(), 0);
        let run = loaded.into_site_run(Vec::new(), 0);
        loaded_records.push((threads, run.topic_records, run.annotation_records));
    }
    let _ = std::fs::remove_file(&path);
    let reference_run = reference_site.into_site_run(Vec::new(), 0);
    for (threads, topics, annotations) in loaded_records {
        assert_eq!(topics, reference_run.topic_records, "topic records at {threads} threads");
        assert_eq!(
            annotations, reference_run.annotation_records,
            "annotation records at {threads} threads"
        );
    }
}

#[test]
fn bumped_format_version_fails_descriptively() {
    let (v, train, _) = fixture();
    let kb = &v.kb;
    let bytes = train_at(kb, &train, 1).to_bytes().expect("save");
    // Byte 8 is the format-version varint, right after the 8-byte magic.
    let mut bumped = bytes.clone();
    bumped[8] = 0x7f;
    let Err(err) = TrainedSite::load(kb, &bumped[..]) else {
        panic!("future format version must be refused");
    };
    assert!(matches!(err, StoreError::UnsupportedVersion { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("version") && msg.contains("not supported"), "{msg}");
}

#[test]
fn corrupted_sections_and_truncations_fail_without_panicking() {
    let (v, train, _) = fixture();
    let kb = &v.kb;
    let bytes = train_at(kb, &train, 1).to_bytes().expect("save");

    // Every prefix truncation errors cleanly (sampled stride keeps the
    // test fast; proptest below covers arbitrary cut points).
    for cut in (0..bytes.len()).step_by(977) {
        assert!(TrainedSite::load(kb, &bytes[..cut]).is_err(), "cut at {cut}");
    }

    // A flipped byte anywhere in a section payload trips its checksum
    // with a section-naming message.
    let mut corrupt = bytes.clone();
    let mid = bytes.len() / 2;
    corrupt[mid] ^= 0x20;
    let Err(err) = TrainedSite::load(kb, &corrupt[..]) else {
        panic!("corrupted payload must be refused");
    };
    let msg = err.to_string();
    assert!(!msg.is_empty(), "error must describe the failure: {msg}");

    // Garbage that is not an artifact at all.
    assert!(TrainedSite::load(kb, &b"not an artifact, sorry"[..]).is_err());
    assert!(TrainedSite::load(kb, &[][..]).is_err());
}

#[test]
fn wrong_kb_is_refused_by_fingerprint() {
    let (v, train, _) = fixture();
    let bytes = train_at(&v.kb, &train, 1).to_bytes().expect("save");
    // A different seed produces a different KB with the *same* ontology
    // shape and near-identical counts — only a content-covering
    // fingerprint catches the swap.
    let (other, _) = movie_vertical(SwdeConfig { seed: 78, scale: 0.02 });
    let Err(err) = TrainedSite::load(&other.kb, &bytes[..]) else {
        panic!("foreign KB must be refused");
    };
    assert!(err.to_string().contains("different KB"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fuzz the loader: single-byte mutations and truncations of a valid
    /// artifact must always yield Ok or a typed error — executing the
    /// load *is* the assertion (a panic fails the test).
    #[test]
    fn prop_mutated_artifacts_never_panic_the_loader(
        flip_at in 0usize..60_000,
        flip_bits in 1u8..255,
        cut_frac in 0.0f64..1.0,
    ) {
        // One shared fixture per process would be nicer, but the shim's
        // proptest! body re-enters per case; a OnceLock keeps it cheap.
        static FIXTURE: std::sync::OnceLock<(ceres::synth::swde::SwdeVertical, Vec<u8>)> =
            std::sync::OnceLock::new();
        let (v, bytes) = FIXTURE.get_or_init(|| {
            let (v, train, _) = fixture();
            let bytes = train_at(&v.kb, &train, 1).to_bytes().expect("save");
            (v, bytes)
        });
        let kb = &v.kb;

        let mut mutated = bytes.clone();
        let at = flip_at % mutated.len();
        mutated[at] ^= flip_bits;
        let _ = TrainedSite::load(kb, &mutated[..]);

        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let _ = TrainedSite::load(kb, &bytes[..cut.min(bytes.len())]);

        // Mutation + truncation combined.
        let _ = TrainedSite::load(kb, &mutated[..cut.min(mutated.len())]);
    }
}
