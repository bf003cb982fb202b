//! Extraction (§4.3): apply the trained classifier to every text field of
//! every page; the NAME-classified field supplies the subject, every
//! relation-classified field above the confidence threshold yields a
//! triple.

use crate::config::ExtractConfig;
use crate::examples::{ClassMap, CLASS_NAME, CLASS_OTHER};
use crate::features::{FeatureScratch, FeatureSpace};
use crate::page::PageView;
use ceres_kb::PredId;
use ceres_ml::LogReg;
use ceres_text::nan_lowest;

/// What an extraction asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractLabel {
    /// The field names the page topic.
    Name,
    Pred(PredId),
}

/// One extracted assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    pub page_id: String,
    /// Ground-truth id of the source field (evaluation only).
    pub gt_id: Option<u32>,
    /// The topic-name text of the page ("" when no name node was found).
    pub subject: String,
    pub label: ExtractLabel,
    pub object: String,
    pub confidence: f64,
}

// The serve path runs on whatever a loaded artifact computes; a poisoned
// posterior must *lose* every argmax below, not panic it — hence
// `ceres_text::nan_lowest` (NaN below every real, `-0.0 == 0.0` so the
// index tiebreak stays in charge) rather than `partial_cmp().unwrap()` or
// `f64::total_cmp`.

/// Run extraction over one page. The feature space must be frozen — it is
/// only read (`&FeatureSpace`), so concurrent extraction tasks share it.
pub fn extract_page(
    page: &PageView,
    model: &LogReg,
    space: &FeatureSpace,
    class_map: &ClassMap,
    cfg: &ExtractConfig,
) -> Vec<Extraction> {
    let mut out = Vec::new();
    if page.fields.is_empty() {
        return out;
    }
    // One scratch and one segment memo for the whole page: every field's
    // vectorization reuses the same name/index buffers and the structural
    // segments earlier fields already emitted, and every prediction writes
    // into the same score scratch. Posteriors land in one flat
    // `n_fields × n_classes` buffer.
    let mut scratch = FeatureScratch::new();
    let mut frozen = space.frozen_page(page);
    let mut scores = ceres_ml::ScoreScratch::new();
    let k = model.n_classes();
    let mut probs = vec![0.0f64; page.fields.len() * k];
    for (fi, f) in page.fields.iter().enumerate() {
        let x = frozen.row(f.node, &mut scratch);
        probs[fi * k..(fi + 1) * k].copy_from_slice(model.predict_proba_into(&x, &mut scores));
    }
    let row = |fi: usize| &probs[fi * k..(fi + 1) * k];

    // Name node: the field with the highest NAME probability. `max_by` is
    // `None` only on an empty iterator, and the empty-fields case already
    // returned above — but the serve path takes the total branch rather
    // than asserting it.
    let Some((name_field, name_prob)) = (0..page.fields.len())
        .map(|i| (i, row(i)[CLASS_NAME as usize]))
        .max_by(|a, b| nan_lowest(a.1, b.1).then(b.0.cmp(&a.0)))
    else {
        return out;
    };
    let subject = if name_prob >= cfg.name_threshold {
        let f = &page.fields[name_field];
        out.push(Extraction {
            page_id: page.page_id.clone(),
            gt_id: f.gt_id,
            subject: f.text.clone(),
            label: ExtractLabel::Name,
            object: f.text.clone(),
            confidence: name_prob,
        });
        f.text.clone()
    } else {
        String::new()
    };

    for (fi, f) in page.fields.iter().enumerate() {
        if fi == name_field && name_prob >= cfg.name_threshold {
            continue;
        }
        // A model always has ≥ 2 classes, so the row is never empty; if it
        // somehow were, skipping the field beats panicking the page.
        let Some((class, p)) = row(fi)
            .iter()
            .enumerate()
            .max_by(|a, b| nan_lowest(*a.1, *b.1))
            .map(|(c, &p)| (c as u32, p))
        else {
            continue;
        };
        if class == CLASS_OTHER || class == CLASS_NAME || p < cfg.threshold {
            continue;
        }
        let Some(pred) = class_map.pred_of(class) else { continue };
        out.push(Extraction {
            page_id: page.page_id.clone(),
            gt_id: f.gt_id,
            subject: subject.clone(),
            label: ExtractLabel::Pred(pred),
            object: f.text.clone(),
            confidence: p,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::PageAnnotation;
    use crate::config::FeatureConfig;
    use crate::examples::build_training_on;
    use ceres_kb::{Kb, KbBuilder, Ontology};
    use ceres_ml::TrainConfig;
    use ceres_runtime::Runtime;

    /// End-to-end mini check: train on annotated pages, extract from a
    /// fresh page of the same template.
    #[test]
    fn learns_template_and_extracts_unseen_values() {
        let mut o = Ontology::new();
        let film = o.register_type("Film");
        let person = o.register_type("Person");
        let directed = o.register_pred("directedBy", film, true);
        let mut b = KbBuilder::new(o);
        // Films 0..6 are in the KB; film 9 is not (long tail).
        let mut film_ids = Vec::new();
        for i in 0..6 {
            let f = b.entity(film, &format!("Movie Number {i}"));
            let p = b.entity(person, &format!("Director Number {i}"));
            b.triple(f, directed, p);
            film_ids.push(f);
        }
        let kb: Kb = b.build();

        let html = |i: usize| {
            format!(
                "<html><body><h1 class=title>Movie Number {i}</h1>\
                 <div class=info><div class=row><span class=label>Director:</span>\
                 <span class=value>Director Number {i}</span></div></div>\
                 <div class=footer><span>c1</span><span>c2</span><span>c3</span>\
                 <span>c4</span><span>c5</span><span>c6</span></div></body></html>"
            )
        };
        let pages: Vec<PageView> =
            (0..6).map(|i| PageView::build(&format!("p{i}"), &html(i), &kb)).collect();

        // Hand-build annotations (bypassing Algorithm 1/2 — tested
        // elsewhere) to isolate the train→extract path.
        let annotations: Vec<PageAnnotation> = (0..6)
            .map(|i| {
                let page = &pages[i];
                let name_field =
                    page.fields.iter().position(|f| f.text.starts_with("Movie")).unwrap();
                let dir_field =
                    page.fields.iter().position(|f| f.text.starts_with("Director N")).unwrap();
                PageAnnotation {
                    page_idx: i,
                    topic: film_ids[i],
                    name_field,
                    labels: vec![(dir_field, directed)],
                }
            })
            .collect();

        let class_map = crate::examples::ClassMap::from_annotations(&annotations);
        let refs: Vec<&PageView> = pages.iter().collect();
        let mut space = FeatureSpace::new(&refs, FeatureConfig::default());
        let data = build_training_on(
            &Runtime::sequential(),
            &refs,
            &annotations,
            &mut space,
            &class_map,
            3,
            7,
            true,
        );
        let (model, _) = ceres_ml::LogReg::train(&data, &TrainConfig::default());
        space.freeze();

        // A page about an unknown movie (not in KB).
        let unseen = PageView::build(
            "p9",
            "<html><body><h1 class=title>Totally New Film</h1>\
             <div class=info><div class=row><span class=label>Director:</span>\
             <span class=value>Fresh Face</span></div></div>\
             <div class=footer><span>c1</span><span>c2</span><span>c3</span>\
             <span>c4</span><span>c5</span><span>c6</span></div></body></html>",
            &kb,
        );
        let ex = extract_page(&unseen, &model, &space, &class_map, &ExtractConfig::default());
        let name = ex.iter().find(|e| e.label == ExtractLabel::Name).expect("name found");
        assert_eq!(name.object, "Totally New Film");
        let dir = ex
            .iter()
            .find(|e| matches!(e.label, ExtractLabel::Pred(p) if p == directed))
            .expect("director extracted");
        assert_eq!(dir.object, "Fresh Face");
        assert_eq!(dir.subject, "Totally New Film");
        assert!(dir.confidence >= 0.5);
        // The footer junk is not extracted.
        assert!(ex.iter().all(|e| !e.object.starts_with('c')));
    }

    #[test]
    fn nan_loses_every_argmax_and_zero_signs_stay_equal() {
        use std::cmp::Ordering;
        assert_eq!(nan_lowest(f64::NAN, 0.0), Ordering::Less);
        assert_eq!(nan_lowest(0.0, f64::NAN), Ordering::Greater);
        assert_eq!(nan_lowest(f64::NAN, f64::NAN), Ordering::Equal);
        assert_eq!(nan_lowest(1.0, 2.0), Ordering::Less);
        // Unlike `total_cmp`: the index tiebreak decides, not the zero sign.
        assert_eq!(nan_lowest(-0.0, 0.0), Ordering::Equal);
        // A poisoned posterior row still argmaxes to a real entry.
        let probs = [f64::NAN, 0.3, f64::NAN, 0.1];
        let best = probs.iter().enumerate().max_by(|a, b| nan_lowest(*a.1, *b.1)).map(|(i, _)| i);
        assert_eq!(best, Some(1));
    }
}
