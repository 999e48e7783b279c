//! A digest-keyed LRU plan cache.
//!
//! Production stencil-planning traffic is heavily repetitive: the same
//! instance (same character library, same repeat matrix) is planned again
//! whenever a downstream tool re-requests it. Because
//! [`InstanceDigest`](eblow_model::InstanceDigest) fingerprints everything
//! that determines the planning outcome, a digest hit can serve the cached
//! plan without re-solving — [`Planner::plan`](crate::Planner::plan)
//! counts it in [`CacheStats::hits`].

use std::collections::HashMap;
use std::hash::Hash;

/// A small, self-contained least-recently-used map.
///
/// Recency is tracked with a monotone touch counter per entry; eviction
/// scans for the minimum (O(capacity)), which is the right trade for the
/// few-thousand-entry caches the engine uses — no linked-list juggling, no
/// extra allocation per touch.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (V, u64)>,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(v, t)| {
            *t = tick;
            &*v
        })
    }

    /// Inserts `key → value`, evicting the least-recently-used entry when
    /// full. Returns the evicted value, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.tick += 1;
        if self.map.contains_key(&key) {
            let old = self.map.insert(key, (value, self.tick));
            return old.map(|(v, _)| v);
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            if let Some(lru_key) = self
                .map
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k.clone())
            {
                evicted = self.map.remove(&lru_key).map(|(v, _)| v);
            }
        }
        self.map.insert(key, (value, self.tick));
        evicted
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Cache key for a portfolio plan: the instance content digest plus a
/// fingerprint of the strategy set (two portfolios with different strategy
/// line-ups must not share plans — the cache would otherwise hand a
/// greedy-only answer to a caller who asked for the full zoo).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    /// Content digest of the instance.
    pub digest: eblow_model::InstanceDigest,
    /// FNV-1a over the ordered strategy names.
    pub portfolio_fingerprint: u64,
}

impl PlanCacheKey {
    /// Builds the key for `instance` planned by the named strategies.
    pub fn new<'n>(
        instance: &eblow_model::Instance,
        strategy_names: impl IntoIterator<Item = &'n str>,
    ) -> Self {
        let mut h = eblow_model::Fnv64::new();
        for name in strategy_names {
            // 0xFF terminates each name so ["ab","c"] != ["a","bc"].
            h.write(name.bytes().chain([0xFF]));
        }
        PlanCacheKey {
            digest: instance.digest(),
            portfolio_fingerprint: h.finish(),
        }
    }
}

/// Hit/miss counters of a planner's plan cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to be planned.
    pub misses: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when no requests were made).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.get(&"a"), Some(&1)); // touch a; b is now LRU
        let evicted = cache.insert("c", 3);
        assert_eq!(evicted, Some(2));
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"a"), Some(&1));
        assert_eq!(cache.get(&"c"), Some(&3));
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut cache = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.insert("a", 10), Some(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&"a"), Some(&10));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut cache = LruCache::new(0);
        cache.insert(1u32, "x");
        assert_eq!(cache.len(), 1);
        cache.insert(2u32, "y");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&2), Some(&"y"));
    }

    #[test]
    fn portfolio_fingerprint_separates_strategy_sets() {
        let inst = {
            let chars = vec![eblow_model::Character::new(40, 40, [5, 5, 5, 5], 20).unwrap()];
            eblow_model::Instance::new(
                eblow_model::Stencil::with_rows(200, 40, 40).unwrap(),
                chars,
                vec![vec![10]],
            )
            .unwrap()
        };
        let a = PlanCacheKey::new(&inst, ["eblow1d", "greedy1d"]);
        let b = PlanCacheKey::new(&inst, ["eblow1d"]);
        let c = PlanCacheKey::new(&inst, ["eblow1d", "greedy1d"]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.digest, b.digest);
        // LP-backend variants are distinct strategies to the cache: a plan
        // raced with one backend set must never serve the other.
        let comb = PlanCacheKey::new(&inst, ["eblow1d@combinatorial"]);
        let simp = PlanCacheKey::new(&inst, ["eblow1d@simplex"]);
        assert_ne!(comb, simp);
    }

    #[test]
    fn stats_ratio() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }
}
