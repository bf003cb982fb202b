//! The traced rebuild of the train/extract path.
//!
//! Every layer is called through its public function and wrapped in a
//! span: the page build with the session's ingest chunking, template
//! clustering with the cluster-size filter, topic identification and
//! relation annotation per cluster, the annotated-page budget, per-cluster
//! example building and training, membership extraction for the
//! whole-site protocol, and template assignment for unseen pages. The
//! rebuilt output must equal the session API's output exactly.

use crate::clock::{now, timed};
use crate::trace::Tracer;
use ceres_core::annotate::annotate_relations;
use ceres_core::examples::{build_training_on, ClassMap};
use ceres_core::extract::{extract_page, Extraction};
use ceres_core::features::FeatureSpace;
use ceres_core::page::PageView;
use ceres_core::pipeline::AnnotationMode;
use ceres_core::template::{cluster_site, Clustering};
use ceres_core::topic::identify_topics;
use ceres_core::{CeresConfig, ExtractOutcome, GuardConfig};
use ceres_dom::parse_html;
use ceres_kb::{Kb, MatchCache};
use ceres_ml::LogReg;
use ceres_runtime::{auto_chunk_coarse, Runtime};
use ceres_text::{fold_unique, normalize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Capacity of the per-batch match cache a session's ingest uses (a
/// capacity can change timing, never results).
pub const INGEST_MATCH_CACHE_CAP: usize = 1 << 12;

/// Named counters accumulated over a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }
}

/// A page-build span whose DOM parse and KB match are measured out of
/// band afterwards, on the same inputs.
pub struct BuildProbe<'a> {
    span: usize,
    htmls: Vec<&'a str>,
    /// Built through one shared per-batch match cache (ingest) rather
    /// than one uncached build per page (serve).
    shared_cache: bool,
}

/// One trained cluster.
pub struct Model {
    pub model: LogReg,
    pub space: FeatureSpace,
    pub class_map: ClassMap,
}

/// A site trained by the rebuild.
pub struct RebuiltSite {
    pub clustering: Clustering,
    pub plans: Vec<Vec<usize>>,
    plan_of_cluster: Vec<Option<usize>>,
    pub models: Vec<Option<Model>>,
}

impl RebuiltSite {
    fn model_of(&self, cluster: Option<usize>) -> Option<&Model> {
        let pi = cluster.and_then(|ci| self.plan_of_cluster.get(ci).copied().flatten())?;
        self.models.get(pi).and_then(Option::as_ref)
    }
}

/// Ingest `pages` as a session does: micro-batches of the session's size,
/// one match cache per batch, views in input order.
pub fn ingest<'a>(
    tr: &mut Tracer,
    kb: &Kb,
    pages: &'a [(String, String)],
    probes: &mut Vec<BuildProbe<'a>>,
) -> Vec<PageView> {
    let batch = auto_chunk_coarse(usize::MAX, 1);
    let mut views = Vec::with_capacity(pages.len());
    for chunk in pages.chunks(batch) {
        let span = tr.open("page.build");
        let mut cache = MatchCache::new(kb, INGEST_MATCH_CACHE_CAP);
        for (id, html) in chunk {
            views.push(PageView::build_with_cache(id, html, kb, &mut cache));
        }
        tr.close(span);
        probes.push(BuildProbe {
            span,
            htmls: chunk.iter().map(|(_, h)| h.as_str()).collect(),
            shared_cache: true,
        });
    }
    views
}

/// Train on `views` as `SiteSession::finish_training` does.
pub fn train(
    tr: &mut Tracer,
    rt: &Runtime,
    kb: &Kb,
    views: &[PageView],
    cfg: &CeresConfig,
    c: &mut Counters,
) -> RebuiltSite {
    let refs: Vec<&PageView> = views.iter().collect();
    let clustering = tr.leaf("template.cluster", || cluster_site(&refs, &cfg.template));
    c.add("template.clusters", clustering.n_clusters() as f64);

    // Cluster-size filter: only clusters big enough get a plan.
    let mut plan_of_cluster = vec![None; clustering.n_clusters()];
    let mut plans: Vec<Vec<usize>> = Vec::new();
    for (ci, cluster) in clustering.clusters.iter().enumerate() {
        if !cluster.is_empty() && cluster.len() >= cfg.template.min_cluster_size {
            plan_of_cluster[ci] = Some(plans.len());
            plans.push(cluster.clone());
        }
    }
    let pages_of = |plan: &[usize]| -> Vec<&PageView> { plan.iter().map(|&i| &views[i]).collect() };

    let mut annotations = Vec::with_capacity(plans.len());
    for plan in &plans {
        let pages = pages_of(plan);
        let topics = tr.leaf("topic", || identify_topics(&pages, kb, &cfg.topic));
        let anns = tr.leaf("annotate", || {
            annotate_relations(&pages, kb, &topics, &cfg.annotate, AnnotationMode::Full)
        });
        c.add("topic.pages", pages.len() as f64);
        c.add("topic.with_topic", topics.assignments.iter().filter(|a| a.is_some()).count() as f64);
        annotations.push(anns);
    }

    // The annotated-page budget, granted in cluster order before training.
    let mut budget = cfg.max_annotated_pages.unwrap_or(usize::MAX);
    for anns in &mut annotations {
        let granted = anns.len().min(budget);
        anns.truncate(granted);
        budget -= granted;
        c.add("annotate.pages", anns.len() as f64);
        c.add("annotate.labels", anns.iter().map(|a| a.labels.len()).sum::<usize>() as f64);
    }

    let mut models = Vec::with_capacity(plans.len());
    for (plan, anns) in plans.iter().zip(&annotations) {
        models.push(train_cluster(tr, rt, &pages_of(plan), anns, cfg, c));
    }
    RebuiltSite { clustering, plans, plan_of_cluster, models }
}

fn train_cluster(
    tr: &mut Tracer,
    rt: &Runtime,
    pages: &[&PageView],
    anns: &[ceres_core::annotate::PageAnnotation],
    cfg: &CeresConfig,
    c: &mut Counters,
) -> Option<Model> {
    if anns.len() < 2 {
        return None;
    }
    let class_map = ClassMap::from_annotations(anns);
    if class_map.preds().is_empty() {
        return None;
    }
    let (mut space, data) = tr.leaf("examples", || {
        let mut space = FeatureSpace::new(pages, cfg.features.clone());
        let data = build_training_on(
            rt,
            pages,
            anns,
            &mut space,
            &class_map,
            cfg.negative_ratio,
            cfg.seed,
            cfg.list_exclusion,
        );
        (space, data)
    });
    if data.is_empty() {
        return None;
    }
    c.add("examples.rows", data.len() as f64);
    c.add("examples.nnz", data.nnz() as f64);
    c.add("features.dict_size", data.n_features as f64);
    let (model, stats) = tr.leaf("ml.train", || LogReg::train_on(rt, &data, &cfg.train));
    c.add("ml.models", 1.0);
    c.add("ml.iterations", stats.iterations as f64);
    c.add("ml.converged", f64::from(u8::from(stats.converged)));
    space.freeze();
    Some(Model { model, space, class_map })
}

/// Whole-site harvest: every trained cluster's member pages, cluster
/// order then page order.
pub fn extract_members(
    tr: &mut Tracer,
    site: &RebuiltSite,
    views: &[PageView],
    cfg: &CeresConfig,
    c: &mut Counters,
) -> Vec<Extraction> {
    let mut out = Vec::new();
    for (plan, model) in site.plans.iter().zip(&site.models) {
        let Some(m) = model else { continue };
        for &i in plan {
            let facts = tr.leaf("extract", || {
                extract_page(&views[i], &m.model, &m.space, &m.class_map, &cfg.extract)
            });
            c.add("extract.pages", 1.0);
            c.add("extract.facts", facts.len() as f64);
            out.extend(facts);
        }
    }
    out
}

/// Serve one unseen page: build its view (guarded when `guards` is set,
/// as the outcome-typed serve path does), assign it to a template
/// cluster, and apply that cluster's model.
#[allow(clippy::too_many_arguments)]
pub fn serve_page<'a>(
    tr: &mut Tracer,
    kb: &Kb,
    site: &RebuiltSite,
    cfg: &CeresConfig,
    guards: Option<&GuardConfig>,
    id: &str,
    html: &'a str,
    probes: &mut Vec<BuildProbe<'a>>,
    c: &mut Counters,
) -> ExtractOutcome {
    let span = tr.open("page.build");
    let built = match guards {
        Some(g) => PageView::try_build(id, html, kb, g),
        None => Ok(PageView::build(id, html, kb)),
    };
    tr.close(span);
    // An oversized page is refused before parsing; every other build parsed.
    if !matches!(built, Err(ceres_core::PageError::OversizedPage { .. })) {
        probes.push(BuildProbe { span, htmls: vec![html], shared_cache: false });
    }
    let view = match built {
        Ok(view) => view,
        Err(why) => return ExtractOutcome::Failed(why),
    };
    let assignment = tr.leaf("template.assign", || site.clustering.assign_scored(&view));
    c.add("template.assign_calls", 1.0);
    match site.model_of(assignment.cluster) {
        Some(m) => {
            let facts = tr.leaf("extract", || {
                extract_page(&view, &m.model, &m.space, &m.class_map, &cfg.extract)
            });
            c.add("extract.pages", 1.0);
            c.add("extract.facts", facts.len() as f64);
            ExtractOutcome::Ok(facts)
        }
        None => {
            c.add("template.unassigned", 1.0);
            ExtractOutcome::Unassigned { best_sim: assignment.best_sim }
        }
    }
}

/// Measure the DOM parse and KB match of every probed build out of band,
/// attaching them as detached children of their build spans. Returns the
/// probe's wall time (not part of the traced path).
pub fn run_probes(tr: &mut Tracer, kb: &Kb, probes: Vec<BuildProbe<'_>>, c: &mut Counters) -> f64 {
    let t_all = now();
    for p in probes {
        let t_parse = now();
        let mut parse_ms = 0.0;
        let mut norms: Vec<Vec<String>> = Vec::with_capacity(p.htmls.len());
        for html in &p.htmls {
            let (ms, doc) = timed(|| parse_html(html));
            parse_ms += ms;
            c.add("dom.nodes", doc.len() as f64);
            norms.push(doc.text_fields().iter().map(|&n| normalize(&doc.own_text(n))).collect());
        }
        tr.detached("dom.parse", p.span, t_parse, parse_ms);

        // Texts folded per page, as the page build folds them; a shared
        // cache resolves each distinct text of its batch once.
        let folds: Vec<Vec<&str>> = norms.iter().map(|n| fold_unique(n).uniq).collect();
        let requests: Vec<Vec<&str>> = if p.shared_cache {
            let mut seen: HashSet<&str> = HashSet::new();
            vec![folds.iter().flatten().copied().filter(|t| seen.insert(t)).collect()]
        } else {
            folds.clone()
        };
        let t_match = now();
        let mut match_ms = 0.0;
        let mut matched: HashMap<&str, bool> = HashMap::new();
        for req in &requests {
            let (ms, found) = timed(|| kb.match_batch(req));
            match_ms += ms;
            for (text, values) in req.iter().zip(found) {
                matched.insert(text, !values.is_empty());
            }
            c.add("kb.batch_unique_texts", req.len() as f64);
        }
        tr.detached("kb.match", p.span, t_match, match_ms);
        for (page, fold) in norms.iter().zip(&folds) {
            c.add("kb.texts", page.len() as f64);
            c.add("kb.unique_texts", fold.len() as f64);
            let hits = page.iter().filter(|t| matched.get(t.as_str()).copied().unwrap_or(false));
            c.add("kb.matched_texts", hits.count() as f64);
        }
    }
    crate::clock::ms_since(t_all)
}
