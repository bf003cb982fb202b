//! Dataset containers: pages, per-page gold, sites.

/// One node-level gold assertion: the text field `data-gt=<gt_id>` expresses
/// `(topic, pred, object)` — or, for `pred == "name"`, names the topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldFact {
    pub gt_id: u32,
    /// Ontology predicate name, or `"name"` for the topic-name field.
    pub pred: String,
    /// The object exactly as rendered on the page.
    pub object: String,
}

/// What kind of page this is (the template-clustering experiments need
/// non-detail pages in the mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// A detail page about one topic entity.
    Detail,
    /// A chart/index/entry page with no single topic (box-office charts,
    /// search indexes).
    NonDetail,
}

/// Ground truth for one page.
#[derive(Debug, Clone)]
pub struct PageGold {
    pub kind: PageKind,
    /// Canonical topic name in the world (for detail pages).
    pub topic: Option<String>,
    /// World entity type of the topic (`"Film"`, `"Person"`, …).
    pub topic_type: Option<String>,
    /// Node-level facts. Empty for non-detail pages.
    pub facts: Vec<GoldFact>,
}

impl PageGold {
    pub fn non_detail() -> Self {
        PageGold { kind: PageKind::NonDetail, topic: None, topic_type: None, facts: Vec::new() }
    }

    /// Distinct (pred, object) assertions — the triple-level gold used for
    /// extraction scoring (a fact duplicated across nodes counts once).
    pub fn triple_set(&self) -> Vec<(&str, &str)> {
        let mut v: Vec<(&str, &str)> =
            self.facts.iter().map(|f| (f.pred.as_str(), f.object.as_str())).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Gold predicate for a node, if any.
    pub fn pred_of(&self, gt_id: u32) -> Option<&str> {
        self.facts.iter().find(|f| f.gt_id == gt_id).map(|f| f.pred.as_str())
    }
}

/// One rendered page.
#[derive(Debug, Clone)]
pub struct Page {
    /// Site-unique page id (url-ish).
    pub id: String,
    pub html: String,
    pub gold: PageGold,
}

/// One website: a set of pages sharing templates.
#[derive(Debug, Clone)]
pub struct Site {
    pub name: String,
    /// Human description ("Danish films").
    pub focus: String,
    pub pages: Vec<Page>,
}

impl Site {
    /// Split pages into (annotation/training, evaluation) halves — even
    /// indexes train, odd evaluate; deterministic and independent of page
    /// generation order randomness.
    pub fn split_halves(&self) -> (Vec<&Page>, Vec<&Page>) {
        let train = self.pages.iter().step_by(2).collect();
        let eval = self.pages.iter().skip(1).step_by(2).collect();
        (train, eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(i: usize) -> Page {
        Page {
            id: format!("p{i}"),
            html: String::new(),
            gold: PageGold {
                kind: PageKind::Detail,
                topic: Some(format!("t{i}")),
                topic_type: Some("Film".to_string()),
                facts: vec![
                    GoldFact { gt_id: 0, pred: "name".into(), object: format!("t{i}") },
                    GoldFact { gt_id: 1, pred: "genre".into(), object: "Drama".into() },
                    GoldFact { gt_id: 2, pred: "genre".into(), object: "Drama".into() },
                ],
            },
        }
    }

    #[test]
    fn split_halves_partitions() {
        let site = Site { name: "s".into(), focus: "f".into(), pages: (0..9).map(page).collect() };
        let (train, eval) = site.split_halves();
        assert_eq!(train.len(), 5);
        assert_eq!(eval.len(), 4);
        let all: std::collections::HashSet<&str> =
            train.iter().chain(eval.iter()).map(|p| p.id.as_str()).collect();
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn triple_set_dedups() {
        let p = page(0);
        let triples = p.gold.triple_set();
        assert_eq!(triples.len(), 2); // name + one genre (duplicate collapsed)
    }

    #[test]
    fn pred_of_finds_node_gold() {
        let p = page(0);
        assert_eq!(p.gold.pred_of(1), Some("genre"));
        assert_eq!(p.gold.pred_of(99), None);
    }
}
