//! Output digests: a streaming FNV-1a (the `ceres-store` hasher) over the
//! canonical form of extractions and serve outcomes, so two runs agree on
//! their output exactly when their digests agree.

use ceres_core::extract::{ExtractLabel, Extraction};
use ceres_core::ExtractOutcome;
use ceres_store::Fnv64;

/// A running digest.
#[derive(Debug, Clone, Default)]
pub struct Digest(Fnv64);

impl Digest {
    pub fn new() -> Digest {
        Digest(Fnv64::new())
    }

    /// Separate logical sections (sites, phases) so moving an item across a
    /// boundary changes the digest.
    pub fn section(&mut self, tag: &str, index: usize) {
        self.0.write_str(tag);
        self.0.write_u64(index as u64);
    }

    pub fn extraction(&mut self, e: &Extraction) {
        let h = &mut self.0;
        h.write_str(&e.page_id);
        h.write_u64(e.gt_id.map_or(u64::MAX, u64::from));
        h.write_str(&e.subject);
        match &e.label {
            ExtractLabel::Name => h.write_u64(u64::MAX),
            ExtractLabel::Pred(p) => h.write_u64(u64::from(p.0)),
        }
        h.write_str(&e.object);
        h.write_u64(e.confidence.to_bits());
    }

    pub fn extractions(&mut self, es: &[Extraction]) {
        self.0.write_u64(es.len() as u64);
        for e in es {
            self.extraction(e);
        }
    }

    pub fn outcome(&mut self, o: &ExtractOutcome) {
        match o {
            ExtractOutcome::Ok(es) => {
                self.0.write_str("ok");
                self.extractions(es);
            }
            ExtractOutcome::Unassigned { best_sim } => {
                self.0.write_str("unassigned");
                self.0.write_u64(best_sim.to_bits());
            }
            ExtractOutcome::Failed(why) => {
                self.0.write_str("failed");
                self.0.write_str(why.kind());
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceres_core::PageError;
    use ceres_kb::PredId;

    fn ex(page: &str, object: &str, confidence: f64) -> Extraction {
        Extraction {
            page_id: page.into(),
            gt_id: Some(3),
            subject: "Film".into(),
            label: ExtractLabel::Pred(PredId(2)),
            object: object.into(),
            confidence,
        }
    }

    fn digest_of(es: &[Extraction]) -> u64 {
        let mut d = Digest::new();
        d.section("site", 0);
        d.extractions(es);
        d.finish()
    }

    #[test]
    fn equal_output_gives_equal_digests() {
        let a = vec![ex("p1", "Ann", 0.9), ex("p2", "Bob", 0.75)];
        assert_eq!(digest_of(&a), digest_of(&a.clone()));
    }

    #[test]
    fn digest_sees_order_text_and_confidence_bits() {
        let a = vec![ex("p1", "Ann", 0.9), ex("p2", "Bob", 0.75)];
        let base = digest_of(&a);
        assert_ne!(base, digest_of(&[a[1].clone(), a[0].clone()]));
        assert_ne!(base, digest_of(&[ex("p1", "Anne", 0.9), a[1].clone()]));
        let nudged = f64::from_bits(0.9f64.to_bits() + 1);
        assert_ne!(base, digest_of(&[ex("p1", "Ann", nudged), a[1].clone()]));
        let mut name = a.clone();
        name[0].label = ExtractLabel::Name;
        assert_ne!(base, digest_of(&name));
    }

    #[test]
    fn outcome_kinds_are_distinguished() {
        let outcomes = [
            ExtractOutcome::Ok(vec![]),
            ExtractOutcome::Unassigned { best_sim: 0.0 },
            ExtractOutcome::Failed(PageError::EmptyDom),
            ExtractOutcome::Failed(PageError::ParseDepthExceeded { depth: 9, limit: 8 }),
        ];
        let digests: Vec<u64> = outcomes
            .iter()
            .map(|o| {
                let mut d = Digest::new();
                d.outcome(o);
                d.finish()
            })
            .collect();
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "outcomes {i} and {j} collide");
            }
        }
    }

    #[test]
    fn sections_separate_identical_items() {
        let a = vec![ex("p1", "Ann", 0.9)];
        let mut one = Digest::new();
        one.section("site", 0);
        one.extractions(&a);
        one.section("site", 1);
        let mut two = Digest::new();
        two.section("site", 0);
        two.section("site", 1);
        two.extractions(&a);
        assert_ne!(one.finish(), two.finish());
    }
}
