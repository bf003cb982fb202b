//! [`MatchCache`]: a deterministic read-through memo in front of the KB's
//! string matcher.
//!
//! Template sites repeat the same normalized field strings across pages,
//! so a small map from normalized text to the matcher's answer turns most
//! lookups into one hash probe. The cache can never change a result —
//! it stores references into the immutable [`Kb`] index and falls through
//! to [`Kb::match_norm`] on every miss — so matching through a cache is
//! byte-identical to matching without one, at any capacity, thread count,
//! or lookup interleaving (property-tested).
//!
//! Eviction is **insertion-order FIFO** (oldest entry first), not LRU:
//! recency updates would make the eviction sequence depend on the exact
//! interleaving of hits, while insertion order depends only on the miss
//! sequence — and the queue is walked front-to-back, never via hash-map
//! iteration, so behavior is run-order-invariant and CL001-clean. This is
//! also the admission policy a hot-value cache in front of a *remote* KB
//! shard needs (ROADMAP "multi-machine KB"): replayable from the miss log
//! alone.

use crate::store::{Kb, ValueId};
use ceres_text::FxHashMap;
use std::collections::VecDeque;

/// Hit/miss counters of one [`MatchCache`]. Counts follow
/// sequential-lookup semantics even for batched calls: a string repeated
/// inside one batch misses once and hits thereafter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the underlying matcher.
    pub misses: u64,
}

impl MatchCacheStats {
    /// `hits / (hits + misses)`; 0.0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// A bounded read-through memo over [`Kb::match_norm`] /
/// [`Kb::match_batch`]. See the module docs for the determinism contract.
#[derive(Debug)]
pub struct MatchCache<'kb> {
    kb: &'kb Kb,
    /// Normalized text → the matcher's interned answer (a borrow of the
    /// KB's index — the cache never clones match lists).
    map: FxHashMap<String, &'kb [ValueId]>,
    /// Cached keys, oldest first — the FIFO eviction queue. Only ever
    /// walked front-to-back; never hash-order iteration.
    queue: VecDeque<String>,
    capacity: usize,
    stats: MatchCacheStats,
}

impl<'kb> MatchCache<'kb> {
    /// A cache holding at most `capacity` distinct strings (clamped ≥ 1).
    pub fn new(kb: &'kb Kb, capacity: usize) -> MatchCache<'kb> {
        MatchCache {
            kb,
            map: FxHashMap::default(),
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            stats: MatchCacheStats::default(),
        }
    }

    /// The KB this cache reads through.
    pub fn kb(&self) -> &'kb Kb {
        self.kb
    }

    /// Distinct strings currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> MatchCacheStats {
        self.stats
    }

    /// Admit `(norm, hits)`, evicting the oldest entries while full.
    fn admit(&mut self, norm: &str, hits: &'kb [ValueId]) {
        if self.map.contains_key(norm) {
            return;
        }
        while self.map.len() >= self.capacity {
            // Front of the queue = oldest insertion: deterministic FIFO.
            if let Some(old) = self.queue.pop_front() {
                self.map.remove(&old);
            } else {
                break;
            }
        }
        self.map.insert(norm.to_string(), hits);
        self.queue.push_back(norm.to_string());
    }

    /// Memoized [`Kb::match_norm`] — identical result, one hash probe on a
    /// hit.
    pub fn match_norm(&mut self, norm: &str) -> &'kb [ValueId] {
        if let Some(&hits) = self.map.get(norm) {
            self.stats.hits += 1;
            return hits;
        }
        self.stats.misses += 1;
        let hits = self.kb.match_norm(norm);
        self.admit(norm, hits);
        hits
    }

    /// Memoized [`Kb::match_batch`] — identical results in input order.
    /// Cache misses are folded to their distinct strings and resolved via
    /// one shard-grouped [`Kb::match_batch`] call; entries are admitted in
    /// first-miss order (the order a sequential lookup loop would insert).
    pub fn match_batch<S: AsRef<str>>(&mut self, norms: &[S]) -> Vec<&'kb [ValueId]> {
        let mut out: Vec<&'kb [ValueId]> = Vec::with_capacity(norms.len());
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, norm) in norms.iter().enumerate() {
            match self.map.get(norm.as_ref()) {
                Some(&hits) => {
                    self.stats.hits += 1;
                    out.push(hits);
                }
                None => {
                    miss_idx.push(i);
                    out.push(&[]);
                }
            }
        }
        if miss_idx.is_empty() {
            return out;
        }
        // Fold the misses to distinct strings (a string repeated within
        // the batch resolves once; its later occurrences count as hits,
        // matching what sequential `match_norm` calls would do).
        let miss_keys: Vec<&str> = miss_idx.iter().map(|&i| norms[i].as_ref()).collect();
        let fold = ceres_text::fold_unique(&miss_keys);
        self.stats.misses += fold.uniq.len() as u64;
        self.stats.hits += (miss_keys.len() - fold.uniq.len()) as u64;
        let resolved = self.kb.match_batch(&fold.uniq);
        // Scatter from the batch answer (not from `self.map`: with a tiny
        // capacity an entry admitted earlier in this loop may already have
        // been evicted), then admit in first-miss order.
        for (pos, &i) in miss_idx.iter().enumerate() {
            out[i] = resolved[fold.slots[pos] as usize];
        }
        for (key, hits) in fold.uniq.iter().zip(&resolved) {
            self.admit(key, hits);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::Ontology;
    use crate::store::KbBuilder;

    fn test_kb() -> Kb {
        let mut o = Ontology::new();
        let film = o.register_type("Film");
        let person = o.register_type("Person");
        let directed = o.register_pred("film.directedBy", film, true);
        let mut b = KbBuilder::new(o);
        for i in 0..20 {
            let f = b.entity(film, &format!("Film Number {i}"));
            let p = b.entity(person, &format!("Director Person {i}"));
            b.alias(p, &format!("Person {i}, Director"));
            b.triple(f, directed, p);
        }
        b.build()
    }

    #[test]
    fn cached_results_equal_uncached() {
        let kb = test_kb();
        let mut cache = MatchCache::new(&kb, 8);
        let probes = ["film number 3", "director person 3", "person 3 director", "absent", ""];
        for _round in 0..3 {
            for p in probes {
                assert_eq!(cache.match_norm(p), kb.match_norm(p), "probe {p:?}");
            }
        }
    }

    #[test]
    fn batch_through_cache_equals_kb_batch_even_with_tiny_capacity() {
        let kb = test_kb();
        let norms: Vec<String> = (0..20)
            .flat_map(|i| [format!("film number {i}"), format!("director person {i}")])
            .chain(["film number 1".to_string(), "nope".to_string()])
            .collect();
        for capacity in [1, 2, 7, 1024] {
            let mut cache = MatchCache::new(&kb, capacity);
            for _round in 0..2 {
                let got = cache.match_batch(&norms);
                let want = kb.match_batch(&norms);
                assert_eq!(got, want, "capacity {capacity}");
            }
            assert!(cache.len() <= capacity, "capacity {capacity} overflowed");
        }
    }

    #[test]
    fn eviction_is_insertion_order_fifo() {
        let kb = test_kb();
        let mut cache = MatchCache::new(&kb, 2);
        cache.match_norm("film number 0");
        cache.match_norm("film number 1");
        cache.match_norm("film number 2"); // evicts "film number 0"
        assert_eq!(cache.len(), 2);
        assert!(cache.map.contains_key("film number 1"));
        assert!(cache.map.contains_key("film number 2"));
        assert!(!cache.map.contains_key("film number 0"));
    }

    #[test]
    fn counters_follow_sequential_semantics() {
        let kb = test_kb();
        let mut cache = MatchCache::new(&kb, 64);
        // Batch with an internal duplicate: 2 distinct misses, 1 hit.
        let got = cache.match_batch(&["film number 0", "film number 1", "film number 0"]);
        assert_eq!(got.len(), 3);
        assert_eq!(cache.stats(), MatchCacheStats { hits: 1, misses: 2 });
        cache.match_norm("film number 1");
        assert_eq!(cache.stats(), MatchCacheStats { hits: 2, misses: 2 });
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
