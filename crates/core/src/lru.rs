//! The one bounded least-recently-used map behind `MemoryCache`,
//! `SpaceCache` and the runtime's weight cache. Each owner wraps it in
//! its own `Mutex`; the map itself does no locking.
//!
//! Every access stamps its entry with a fresh tick. An access that
//! leaves the map over capacity evicts at most one entry: the one with
//! the smallest tick that is neither the entry just touched nor pinned.
//! Pinned entries can hold the map over capacity until they unpin.

use std::hash::Hash;

use rustc_hash::FxHashMap;

#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    map: FxHashMap<K, (V, u64)>,
    tick: u64,
    capacity: usize,
    /// Entries this test accepts are never evicted.
    pinned: fn(&V) -> bool,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    /// An empty map of at most `capacity` (≥ 1) entries, pinned ones aside.
    pub(crate) fn new(capacity: usize, pinned: fn(&V) -> bool) -> Self {
        Lru {
            map: FxHashMap::default(),
            tick: 0,
            capacity: capacity.max(1),
            pinned,
            evictions: 0,
        }
    }

    /// The value of `key`, refreshing its recency. A lookup never evicts.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let slot = self.map.get_mut(key)?;
        slot.1 = self.tick;
        Some(slot.0.clone())
    }

    /// Insert or overwrite `key` as the most recent entry.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        self.evict_one();
    }

    /// The value of `key`, inserting `make()` first if it is absent;
    /// refreshes its recency either way.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> V {
        self.tick += 1;
        let slot = self.map.entry(key).or_insert_with(|| (make(), 0));
        slot.1 = self.tick;
        let value = slot.0.clone();
        self.evict_one();
        value
    }

    /// Drop every entry whose key fails `keep` (not counted as evictions).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|k, _| keep(k));
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Entries dropped by the capacity bound so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    fn evict_one(&mut self) {
        if self.map.len() <= self.capacity {
            return;
        }
        let victim = self
            .map
            .iter()
            .filter(|(_, (v, t))| *t != self.tick && !(self.pinned)(v))
            .min_by_key(|(_, (_, t))| *t)
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            self.map.remove(&k);
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_touch_refreshes_recency() {
        let mut lru = Lru::new(2, |_| false);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get(&"a"), Some(1));
        lru.insert("c", 3);
        assert_eq!(lru.get(&"b"), None, "b was least recently used");
        assert_eq!(lru.get(&"a"), Some(1));
        assert_eq!(lru.get_or_insert_with("c", || 0), 3);
    }

    #[test]
    fn the_victim_is_the_least_recent_unpinned_entry() {
        // Odd values are pinned.
        let mut lru = Lru::new(3, |v: &u32| v % 2 == 1);
        lru.insert("one", 1);
        lru.insert("two", 2);
        lru.insert("four", 4);
        lru.insert("six", 6);
        assert_eq!(lru.len(), 3);
        assert!(lru.get(&"one").is_some(), "pinned oldest survives");
        assert!(lru.get(&"two").is_none(), "oldest unpinned is evicted");
        assert!(lru.get(&"four").is_some());
        assert!(lru.get(&"six").is_some());
    }

    #[test]
    fn a_pinned_oldest_entry_survives_past_capacity() {
        let mut lru = Lru::new(1, |v: &u32| *v == 0);
        lru.insert("pinned", 0);
        lru.insert("a", 0);
        lru.insert("b", 0);
        assert_eq!(lru.len(), 3, "nothing evictable: the map grows");
        assert_eq!(lru.evictions(), 0);
        // Once unpinned, the next access evicts exactly one entry: the
        // oldest one.
        lru.insert("pinned", 1);
        assert_eq!(lru.len(), 3, "the touched entry is never its own victim");
        lru.insert("a", 1);
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&"pinned").is_none());
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn overwriting_a_key_evicts_nothing() {
        let mut lru = Lru::new(2, |_| false);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.insert("a", 3);
        lru.insert("b", 4);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions(), 0);
        assert_eq!(lru.get(&"a"), Some(3));
        assert_eq!(lru.get(&"b"), Some(4));
    }

    #[test]
    fn evictions_are_counted_and_retain_is_not_an_eviction() {
        let mut lru = Lru::new(2, |_| false);
        for (i, key) in ["a", "b", "c", "d", "e"].into_iter().enumerate() {
            lru.insert(key, i);
        }
        assert_eq!(lru.evictions(), 3);
        assert_eq!(lru.len(), 2);
        lru.retain(|k| *k != "d");
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.evictions(), 3);
        assert_eq!(lru.get_or_insert_with("f", || 5), 5);
        assert_eq!(lru.get_or_insert_with("g", || 6), 6);
        assert_eq!(lru.evictions(), 4);
        assert!(lru.get(&"e").is_none());
    }
}
