//! Wiring between synthetic sites and the extraction systems.

use ceres_core::baseline::{run_baseline, BaselineConfig};
use ceres_core::extract::{ExtractLabel, Extraction};
use ceres_core::page::PageView;
use ceres_core::pipeline::{run_site, AnnotationMode, SiteRun};
use ceres_core::vertex::{apply_rules, learn_rules, LabeledPage};
use ceres_core::CeresConfig;
use ceres_kb::Kb;
use ceres_runtime::Runtime;
use ceres_synth::Site;

/// The systems of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    CeresFull,
    CeresTopic,
    CeresBaseline,
    VertexPlusPlus,
}

impl SystemKind {
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::CeresFull => "CERES-Full",
            SystemKind::CeresTopic => "CERES-Topic",
            SystemKind::CeresBaseline => "CERES-Baseline",
            SystemKind::VertexPlusPlus => "Vertex++",
        }
    }
}

/// Which pages are annotated vs extracted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalProtocol {
    /// SWDE/IMDb: even pages annotate, odd pages evaluate (50/50).
    SplitHalves,
    /// CommonCrawl: the whole site is annotated and harvested.
    WholeSite,
}

/// `(page id, html)` pairs.
pub type PageSet = Vec<(String, String)>;

/// Page id/html pairs for a protocol.
pub fn protocol_pages(site: &Site, protocol: EvalProtocol) -> (PageSet, Option<PageSet>) {
    match protocol {
        EvalProtocol::SplitHalves => {
            let (train, eval) = site.split_halves();
            (
                train.iter().map(|p| (p.id.clone(), p.html.clone())).collect(),
                Some(eval.iter().map(|p| (p.id.clone(), p.html.clone())).collect()),
            )
        }
        EvalProtocol::WholeSite => {
            (site.pages.iter().map(|p| (p.id.clone(), p.html.clone())).collect(), None)
        }
    }
}

/// Ids of the pages extractions are scored against.
pub fn eval_page_ids(site: &Site, protocol: EvalProtocol) -> Vec<&str> {
    match protocol {
        EvalProtocol::SplitHalves => site.split_halves().1.iter().map(|p| p.id.as_str()).collect(),
        EvalProtocol::WholeSite => site.pages.iter().map(|p| p.id.as_str()).collect(),
    }
}

/// Ids of the annotation-half pages (annotation/topic scoring).
pub fn annotation_page_ids(site: &Site, protocol: EvalProtocol) -> Vec<&str> {
    match protocol {
        EvalProtocol::SplitHalves => site.split_halves().0.iter().map(|p| p.id.as_str()).collect(),
        EvalProtocol::WholeSite => site.pages.iter().map(|p| p.id.as_str()).collect(),
    }
}

/// Run a distantly-supervised system (FULL / TOPIC / BASELINE) on a site.
///
/// The CERES systems go through [`run_site`]: the protocol's training
/// half is ingested into a streaming session, training is frozen once,
/// and the evaluation half is served by the resulting
/// [`ceres_core::session::TrainedSite`] — the same train-once/extract-many
/// path a production deployment uses.
pub fn run_ceres_on_site(
    kb: &Kb,
    site: &Site,
    protocol: EvalProtocol,
    cfg: &CeresConfig,
    system: SystemKind,
) -> SiteRun {
    let (train, eval) = protocol_pages(site, protocol);
    let mode = match system {
        SystemKind::CeresFull => AnnotationMode::Full,
        SystemKind::CeresTopic => AnnotationMode::TopicOnly,
        SystemKind::CeresBaseline => {
            return run_baseline(kb, &train, eval.as_deref(), cfg, &BaselineConfig::default())
        }
        SystemKind::VertexPlusPlus => {
            return run_vertex_on_site(kb, site, protocol, 2, cfg.threads)
        }
    };
    run_site(kb, &train, eval.as_deref(), cfg, mode)
}

/// Run VERTEX++ with gold ("manual") labels on `n_annotated` training
/// pages — the paper's protocol ("Vertex++ required two pages per site").
/// Per-page work fans out on `threads` (`None` = `CERES_THREADS`, then the
/// machine); callers already parallel at the site level should pass
/// `Some(1)` to avoid nested oversubscription. Output is identical for
/// every value.
pub fn run_vertex_on_site(
    kb: &Kb,
    site: &Site,
    protocol: EvalProtocol,
    n_annotated: usize,
    threads: Option<usize>,
) -> SiteRun {
    let (train_pages, eval_pages): (Vec<&ceres_synth::Page>, Vec<&ceres_synth::Page>) =
        match protocol {
            EvalProtocol::SplitHalves => site.split_halves(),
            EvalProtocol::WholeSite => (site.pages.iter().collect(), site.pages.iter().collect()),
        };

    // Choose the first training pages that carry gold facts.
    let mut views: Vec<PageView> = Vec::new();
    let mut labels: Vec<Vec<(usize, ExtractLabel)>> = Vec::new();
    for page in &train_pages {
        if views.len() >= n_annotated {
            break;
        }
        if page.gold.facts.is_empty() {
            continue;
        }
        let view = PageView::build(&page.id, &page.html, kb);
        let mut page_labels = Vec::new();
        for fact in &page.gold.facts {
            let Some(fi) = view.fields.iter().position(|f| f.gt_id == Some(fact.gt_id)) else {
                continue;
            };
            let label = if fact.pred == "name" {
                ExtractLabel::Name
            } else {
                match kb.ontology().pred_by_name(&fact.pred) {
                    Some(p) => ExtractLabel::Pred(p),
                    None => continue, // predicate outside the ontology
                }
            };
            page_labels.push((fi, label));
        }
        if !page_labels.is_empty() {
            views.push(view);
            labels.push(page_labels);
        }
    }

    let mut run = SiteRun::default();
    run.stats.n_annotation_pages = views.len();
    run.stats.n_extraction_pages = eval_pages.len();
    if views.is_empty() {
        return run;
    }
    let examples: Vec<LabeledPage<'_>> = views
        .iter()
        .zip(labels.iter())
        .map(|(page, l)| LabeledPage { page, labels: l.clone() })
        .collect();
    let rules = learn_rules(&examples);
    run.stats.trained = !rules.is_empty();

    // Per-page parse + rule application fans out on the runtime; the
    // ordered merge keeps extraction order byte-identical to the serial
    // loop for every thread count.
    let rt = Runtime::with_threads(threads);
    let per_page: Vec<Vec<Extraction>> = rt.par_map(&eval_pages, |page| {
        let view = PageView::build(&page.id, &page.html, kb);
        apply_rules(&rules, &view)
    });
    run.extractions = per_page.into_iter().flatten().collect();
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_synth::swde::{nba_vertical, SwdeConfig};

    #[test]
    fn vertex_runs_on_synthetic_site() {
        let (v, _) = nba_vertical(SwdeConfig { seed: 2, scale: 0.01 });
        let run = run_vertex_on_site(&v.kb, &v.sites[0], EvalProtocol::SplitHalves, 2, None);
        assert!(run.stats.trained);
        assert!(!run.extractions.is_empty());
    }

    #[test]
    fn protocol_split_partitions_pages() {
        let (v, _) = nba_vertical(SwdeConfig { seed: 2, scale: 0.01 });
        let site = &v.sites[1];
        let (train, eval) = protocol_pages(site, EvalProtocol::SplitHalves);
        assert_eq!(train.len() + eval.as_ref().unwrap().len(), site.pages.len());
        let (whole, none) = protocol_pages(site, EvalProtocol::WholeSite);
        assert_eq!(whole.len(), site.pages.len());
        assert!(none.is_none());
    }
}
