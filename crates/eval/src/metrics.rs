//! Scoring: P/R/F1 counters, gold lookup, triple-level and page-hit
//! protocols, annotation and topic scoring.

use ceres_core::extract::{ExtractLabel, Extraction};
use ceres_core::pipeline::{AnnotationRecord, TopicRecord};
use ceres_kb::Kb;
use ceres_synth::{PageGold, PageKind, Site};
use ceres_text::{normalize, FxHashMap, FxHashSet};

/// Precision/recall/F1 from true-positive, false-positive, false-negative
/// counts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prf {
    pub tp: usize,
    pub fp: usize,
    pub fn_: usize,
}

impl Prf {
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            0.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    pub fn add(&mut self, other: Prf) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

/// Gold lookup for a site: page id → gold record.
pub struct GoldIndex<'a> {
    by_page: FxHashMap<&'a str, &'a PageGold>,
}

impl<'a> GoldIndex<'a> {
    pub fn new(site: &'a Site) -> Self {
        GoldIndex { by_page: site.pages.iter().map(|p| (p.id.as_str(), &p.gold)).collect() }
    }

    pub fn gold(&self, page_id: &str) -> Option<&'a PageGold> {
        self.by_page.get(page_id).copied()
    }

    /// Is an extraction correct? Triple-level (§5.1.3: "a triple is
    /// considered to be correct if it expresses a fact asserted on the page
    /// from which it was extracted"): the page's gold must contain the
    /// (pred, object) pair up to normalization; NAME extractions must match
    /// the gold topic.
    pub fn extraction_correct(&self, kb: &Kb, e: &Extraction) -> bool {
        let Some(gold) = self.gold(&e.page_id) else { return false };
        if gold.kind == PageKind::NonDetail {
            return false;
        }
        match &e.label {
            ExtractLabel::Name => {
                gold.topic.as_deref().map(|t| normalize(t) == normalize(&e.object)).unwrap_or(false)
            }
            ExtractLabel::Pred(p) => {
                let pred_name = kb.ontology().pred_name(*p);
                let obj_norm = normalize(&e.object);
                gold.facts.iter().any(|f| f.pred == pred_name && normalize(&f.object) == obj_norm)
            }
        }
    }

    /// Node-level annotation correctness for Table 6: the annotated node's
    /// own gold predicate must equal the annotation's predicate.
    pub fn annotation_correct(&self, r: &AnnotationRecord) -> bool {
        let Some(gold) = self.gold(&r.page_id) else { return false };
        let Some(gt) = r.gt_id else { return false };
        gold.pred_of(gt) == Some(r.pred.as_str())
    }
}

/// Triple-level per-predicate scorer (Tables 4, 5; Figures 4, 6).
#[derive(Debug, Default)]
pub struct TripleScorer {
    /// pred name → counts.
    pub per_pred: FxHashMap<String, Prf>,
}

impl TripleScorer {
    /// Score `extractions` over `eval_pages`. `pred_filter`, when set,
    /// restricts both extractions and gold to the listed predicate names
    /// (`"name"` included for topic names).
    pub fn score(
        kb: &Kb,
        gold: &GoldIndex<'_>,
        eval_page_ids: &[&str],
        extractions: &[Extraction],
        pred_filter: Option<&[&str]>,
    ) -> TripleScorer {
        let keep = |pred: &str| pred_filter.is_none_or(|f| f.contains(&pred));
        let mut scorer = TripleScorer::default();

        // Extracted triple set per page (dedup identical assertions).
        let mut claimed: FxHashSet<(String, String, String)> = FxHashSet::default();
        for e in extractions {
            let pred_name = match &e.label {
                ExtractLabel::Name => "name".to_string(),
                ExtractLabel::Pred(p) => kb.ontology().pred_name(*p).to_string(),
            };
            if !keep(&pred_name) {
                continue;
            }
            let key = (e.page_id.clone(), pred_name.clone(), normalize(&e.object));
            if !claimed.insert(key) {
                continue; // duplicate assertion counts once
            }
            let entry = scorer.per_pred.entry(pred_name).or_default();
            if gold.extraction_correct(kb, e) {
                entry.tp += 1;
            } else {
                entry.fp += 1;
            }
        }

        // Missed gold triples.
        for &pid in eval_page_ids {
            let Some(g) = gold.gold(pid) else { continue };
            if g.kind == PageKind::NonDetail {
                continue;
            }
            for (pred, obj) in g.triple_set() {
                if !keep(pred) {
                    continue;
                }
                let key = (pid.to_string(), pred.to_string(), normalize(obj));
                if !claimed.contains(&key) {
                    scorer.per_pred.entry(pred.to_string()).or_default().fn_ += 1;
                }
            }
        }
        scorer
    }

    pub fn overall(&self) -> Prf {
        let mut total = Prf::default();
        // lint: allow(CL001) reason="Prf::add sums integer tp/fp/fn counts, which is commutative — any visit order produces identical totals"
        for p in self.per_pred.values() {
            total.add(*p);
        }
        total
    }

    pub fn prf(&self, pred: &str) -> Option<Prf> {
        self.per_pred.get(pred).copied()
    }
}

/// Page-hit scorer implementing the Hao et al. protocol used by Table 3:
/// one prediction per predicate per page (the highest-confidence one);
/// credit if it is correct; recall over pages asserting the predicate.
#[derive(Debug, Default)]
pub struct PageHitScorer {
    pub per_pred: FxHashMap<String, Prf>,
}

impl PageHitScorer {
    pub fn score(
        kb: &Kb,
        gold: &GoldIndex<'_>,
        eval_page_ids: &[&str],
        extractions: &[Extraction],
        preds: &[&str],
    ) -> PageHitScorer {
        // Highest-confidence extraction per (page, pred).
        let mut best: FxHashMap<(String, String), &Extraction> = FxHashMap::default();
        for e in extractions {
            let pred_name = match &e.label {
                ExtractLabel::Name => "name".to_string(),
                ExtractLabel::Pred(p) => kb.ontology().pred_name(*p).to_string(),
            };
            if !preds.contains(&pred_name.as_str()) {
                continue;
            }
            let key = (e.page_id.clone(), pred_name);
            match best.get(&key) {
                Some(prev) if prev.confidence >= e.confidence => {}
                _ => {
                    best.insert(key, e);
                }
            }
        }

        let mut scorer = PageHitScorer::default();
        for &pid in eval_page_ids {
            let Some(g) = gold.gold(pid) else { continue };
            if g.kind == PageKind::NonDetail {
                // Extractions from non-detail pages are pure false
                // positives; handled below through `best` keys.
                continue;
            }
            let asserted: FxHashSet<&str> = g.triple_set().iter().map(|&(p, _)| p).collect();
            for &pred in preds {
                let hit = best.get(&(pid.to_string(), pred.to_string()));
                let gold_has = asserted.contains(pred);
                let entry = scorer.per_pred.entry(pred.to_string()).or_default();
                match (hit, gold_has) {
                    (Some(e), true) => {
                        if gold.extraction_correct(kb, e) {
                            entry.tp += 1;
                        } else {
                            entry.fp += 1;
                            entry.fn_ += 1;
                        }
                    }
                    (Some(_), false) => entry.fp += 1,
                    (None, true) => entry.fn_ += 1,
                    (None, false) => {}
                }
            }
        }
        // Predictions on non-detail pages are false positives.
        // lint: allow(CL001) reason="each (page, pred) key increments its own pred's integer fp exactly once; += over disjoint keys is order-free"
        for (pid, pred) in best.keys() {
            if let Some(g) = gold.gold(pid) {
                if g.kind == PageKind::NonDetail {
                    scorer.per_pred.entry(pred.clone()).or_default().fp += 1;
                }
            }
        }
        scorer
    }

    /// The vertical-level F1 used by Table 3: mean of per-predicate F1s.
    pub fn mean_f1(&self, preds: &[&str]) -> f64 {
        if preds.is_empty() {
            return 0.0;
        }
        let sum: f64 = preds.iter().map(|p| self.per_pred.get(*p).map_or(0.0, |x| x.f1())).sum();
        sum / preds.len() as f64
    }
}

/// Score topic identification (Table 7). Precision over pages where a topic
/// was proposed; recall over detail pages whose gold topic is matchable in
/// the KB (the "strong keys" subset of the paper).
pub fn score_topics(kb: &Kb, gold: &GoldIndex<'_>, records: &[TopicRecord]) -> Prf {
    let mut prf = Prf::default();
    for r in records {
        let Some(g) = gold.gold(&r.page_id) else { continue };
        let gold_topic = match (&g.kind, &g.topic) {
            (PageKind::Detail, Some(t)) => Some(t),
            _ => None,
        };
        let in_kb =
            gold_topic.map(|t| kb.match_text(t).iter().any(|&v| kb.is_entity(v))).unwrap_or(false);
        match (&r.topic, gold_topic) {
            (Some(found), Some(t)) => {
                // An episode's canonical name may carry a disambiguating
                // suffix ("Pilot #12"); match on the prefix of normalized
                // forms.
                let f = normalize(found);
                let tn = normalize(t);
                if f == tn || f.starts_with(&format!("{tn} ")) {
                    prf.tp += 1;
                } else {
                    prf.fp += 1;
                    if in_kb {
                        prf.fn_ += 1;
                    }
                }
            }
            (Some(_), None) => prf.fp += 1,
            (None, Some(_)) if in_kb => prf.fn_ += 1,
            _ => {}
        }
    }
    prf
}

/// Score annotations (Table 6) per predicate. Recall denominator: gold
/// facts on annotation pages that the seed KB knows (the annotatable set).
pub fn score_annotations(
    kb: &Kb,
    gold: &GoldIndex<'_>,
    annotation_page_ids: &[&str],
    records: &[AnnotationRecord],
) -> FxHashMap<String, Prf> {
    let mut per_pred: FxHashMap<String, Prf> = FxHashMap::default();
    // Node-level precision + collect correctly annotated (page, pred, obj).
    let mut covered: FxHashSet<(String, String, String)> = FxHashSet::default();
    for r in records {
        let entry = per_pred.entry(r.pred.clone()).or_default();
        if gold.annotation_correct(r) {
            entry.tp += 1;
            if let (Some(g), Some(gt)) = (gold.gold(&r.page_id), r.gt_id) {
                if let Some(fact) = g.facts.iter().find(|f| f.gt_id == gt) {
                    covered.insert((r.page_id.clone(), r.pred.clone(), normalize(&fact.object)));
                }
            }
        } else {
            entry.fp += 1;
        }
    }
    // Recall: KB-known gold facts not covered.
    for &pid in annotation_page_ids {
        let Some(g) = gold.gold(pid) else { continue };
        let (PageKind::Detail, Some(topic)) = (g.kind, g.topic.as_deref()) else { continue };
        let topic_vals: Vec<_> =
            kb.match_text(topic).iter().copied().filter(|&v| kb.is_entity(v)).collect();
        if topic_vals.is_empty() {
            continue;
        }
        for (pred, obj) in g.triple_set() {
            if pred == "name" {
                continue;
            }
            let Some(pred_id) = kb.ontology().pred_by_name(pred) else { continue };
            let obj_vals = kb.match_text(obj);
            let kb_known = topic_vals
                .iter()
                .any(|&t| obj_vals.iter().any(|&o| kb.preds_between(t, o).contains(&pred_id)));
            if !kb_known {
                continue;
            }
            let key = (pid.to_string(), pred.to_string(), normalize(obj));
            if !covered.contains(&key) {
                per_pred.entry(pred.to_string()).or_default().fn_ += 1;
            }
        }
    }
    per_pred
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_synth::{GoldFact, Page};

    #[test]
    fn prf_arithmetic() {
        let p = Prf { tp: 8, fp: 2, fn_: 8 };
        assert!((p.precision() - 0.8).abs() < 1e-12);
        assert!((p.recall() - 0.5).abs() < 1e-12);
        let f1 = p.f1();
        assert!((f1 - 2.0 * 0.8 * 0.5 / 1.3).abs() < 1e-12);
        let zero = Prf::default();
        assert_eq!(zero.precision(), 0.0);
        assert_eq!(zero.f1(), 0.0);
    }

    fn site_with_one_page() -> Site {
        Site {
            name: "s".into(),
            focus: "f".into(),
            pages: vec![Page {
                id: "p0".into(),
                html: String::new(),
                gold: PageGold {
                    kind: PageKind::Detail,
                    topic: Some("The Film".into()),
                    topic_type: Some("Film".into()),
                    facts: vec![
                        GoldFact { gt_id: 0, pred: "name".into(), object: "The Film".into() },
                        GoldFact { gt_id: 1, pred: "genre".into(), object: "Drama".into() },
                    ],
                },
            }],
        }
    }

    #[test]
    fn gold_index_checks_extractions() {
        use ceres_kb::{KbBuilder, Ontology};
        let mut o = Ontology::new();
        let film = o.register_type("Film");
        let genre = o.register_pred("genre", film, true);
        let kb = KbBuilder::new(o).build();

        let site = site_with_one_page();
        let gold = GoldIndex::new(&site);
        let ok = Extraction {
            page_id: "p0".into(),
            gt_id: Some(1),
            subject: "The Film".into(),
            label: ExtractLabel::Pred(genre),
            object: "DRAMA!".into(), // normalization-robust
            confidence: 0.9,
        };
        assert!(gold.extraction_correct(&kb, &ok));
        let bad = Extraction { object: "Comedy".into(), ..ok.clone() };
        assert!(!gold.extraction_correct(&kb, &bad));
        let name_ok =
            Extraction { label: ExtractLabel::Name, object: "the   film".into(), ..ok.clone() };
        assert!(gold.extraction_correct(&kb, &name_ok));
    }

    #[test]
    fn page_hit_scoring_counts_pages_not_mentions() {
        use ceres_kb::{KbBuilder, Ontology};
        let mut o = Ontology::new();
        let film = o.register_type("Film");
        let genre = o.register_pred("genre", film, true);
        let kb = KbBuilder::new(o).build();
        let site = site_with_one_page();
        let gold = GoldIndex::new(&site);
        // Two genre extractions from the same page: only the best counts.
        let exs = vec![
            Extraction {
                page_id: "p0".into(),
                gt_id: Some(1),
                subject: String::new(),
                label: ExtractLabel::Pred(genre),
                object: "Drama".into(),
                confidence: 0.9,
            },
            Extraction {
                page_id: "p0".into(),
                gt_id: None,
                subject: String::new(),
                label: ExtractLabel::Pred(genre),
                object: "Wrong".into(),
                confidence: 0.6,
            },
        ];
        let scorer = PageHitScorer::score(&kb, &gold, &["p0"], &exs, &["genre", "name"]);
        let g = scorer.per_pred.get("genre").unwrap();
        assert_eq!((g.tp, g.fp, g.fn_), (1, 0, 0));
        // No name extraction: recall miss on name.
        let n = scorer.per_pred.get("name").unwrap();
        assert_eq!((n.tp, n.fp, n.fn_), (0, 0, 1));
        assert!(scorer.mean_f1(&["genre", "name"]) > 0.4);
    }

    #[test]
    fn triple_scoring_dedups_and_tracks_misses() {
        use ceres_kb::{KbBuilder, Ontology};
        let mut o = Ontology::new();
        let film = o.register_type("Film");
        let genre = o.register_pred("genre", film, true);
        let kb = KbBuilder::new(o).build();
        let site = site_with_one_page();
        let gold = GoldIndex::new(&site);
        let exs = vec![
            Extraction {
                page_id: "p0".into(),
                gt_id: Some(1),
                subject: String::new(),
                label: ExtractLabel::Pred(genre),
                object: "Drama".into(),
                confidence: 0.9,
            };
            3 // duplicated extraction counts once
        ];
        let scorer = TripleScorer::score(&kb, &gold, &["p0"], &exs, None);
        let g = scorer.prf("genre").unwrap();
        assert_eq!((g.tp, g.fp), (1, 0));
        // `name` was never extracted → one miss.
        let n = scorer.prf("name").unwrap();
        assert_eq!(n.fn_, 1);
    }
}
