//! Client-side result cache for [`crate::RemoteDefense`]: a bounded LRU over
//! the `server_outputs` exchanges, keyed by an exact input fingerprint.
//!
//! Caching a *stochastic* defense sounds unsound, but this stack earned the
//! right in PR 1: every dropout mask and noise draw is derived from the
//! pipeline seed plus a fingerprint of the input, so evaluating the same
//! transmitted features twice produces bit-identical maps *by construction*
//! (the conformance suite pins it). A duplicate request is therefore pure
//! waste — wire bytes, server GEMMs, coalescer occupancy — and a client may
//! answer it locally without changing a single bit of any response.
//!
//! The key is the full byte encoding of the request (payload precision, body
//! range, tensor shape, raw data bits), not a truncated hash, so two
//! different inputs can never alias an entry and the bit-exactness guarantee
//! is unconditional. Capacity is bounded; eviction is least-recently-used;
//! every lookup outcome is counted in [`CacheStats`], the client-side
//! sibling of [`crate::ServerStats`].
//!
//! One honest caveat, spelled out in `docs/SERVING.md`: the cache memoizes
//! *a deployment*, and a hot swap ([`crate::ModelRegistry::swap`]) changes
//! the deployment. A client that knows a reload happened should call
//! [`ResultCache::clear`] (via `RemoteDefense::clear_result_cache`) or
//! reconnect; the serving tier never invalidates client caches for you.

use ensembler::{Features, Maps};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Snapshot of a [`ResultCache`]'s counters — the client-side analogue of
/// [`crate::ServerStats`], surfaced by the load harness and `load_gen`'s
/// `--cache` mode.
///
/// # Examples
///
/// ```
/// use ensembler_serve::cache::ResultCache;
///
/// let cache = ResultCache::new(2);
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
/// assert_eq!(stats.capacity, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to go to the server.
    pub misses: u64,
    /// Responses stored (one per miss that completed successfully).
    pub insertions: u64,
    /// Entries displaced to respect the capacity bound.
    pub evictions: u64,
    /// Entries resident at snapshot time.
    pub entries: usize,
    /// The configured capacity bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, `0.0` when nothing has
    /// been looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// One-line human summary, as printed by `load_gen --cache`.
    pub fn summary(&self) -> String {
        format!(
            "cache: {} hits, {} misses ({:.1}% hit rate) | {}/{} entries, {} evicted",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.capacity,
            self.evictions,
        )
    }
}

#[derive(Debug, Default)]
struct CacheInner {
    /// Exact request fingerprint → (recency tick, response).
    entries: HashMap<Arc<[u8]>, (u64, Maps)>,
    /// Recency tick → key, ascending = least recently used first.
    recency: BTreeMap<u64, Arc<[u8]>>,
    next_tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// Bounded LRU result cache. See the [module docs](self) for when caching a
/// defense is sound and when it must be cleared.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    /// An empty cache bounded at `capacity` entries (`capacity >= 1`;
    /// a zero capacity is clamped to 1 rather than building a cache that can
    /// never hold anything).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Looks `key` up, bumping its recency and counting a hit or miss.
    pub(crate) fn get(&self, key: &[u8]) -> Option<Maps> {
        let mut inner = self.inner.lock().expect("cache mutex");
        let tick = inner.next_tick;
        inner.next_tick += 1;
        let Some((old_tick, value)) = inner.entries.get_mut(key) else {
            inner.misses += 1;
            return None;
        };
        let prev = std::mem::replace(old_tick, tick);
        let value = value.clone();
        let shared = inner.recency.remove(&prev).expect("recency entry");
        inner.recency.insert(tick, shared);
        inner.hits += 1;
        Some(value)
    }

    /// Stores `value` under `key`, evicting the least-recently-used entry if
    /// the cache is full. Re-inserting an existing key refreshes its value
    /// and recency without evicting.
    pub(crate) fn insert(&self, key: Vec<u8>, value: Maps) {
        let mut inner = self.inner.lock().expect("cache mutex");
        let tick = inner.next_tick;
        inner.next_tick += 1;
        if let Some((old_tick, slot)) = inner.entries.get_mut(key.as_slice()) {
            let prev = std::mem::replace(old_tick, tick);
            *slot = value;
            let shared = inner.recency.remove(&prev).expect("recency entry");
            inner.recency.insert(tick, shared);
            return;
        }
        if inner.entries.len() >= self.capacity {
            // BTreeMap iterates ascending, so the first tick is the LRU.
            let (&lru_tick, _) = inner.recency.iter().next().expect("non-empty recency");
            let lru_key = inner.recency.remove(&lru_tick).expect("lru entry");
            inner.entries.remove(lru_key.as_ref());
            inner.evictions += 1;
        }
        let shared: Arc<[u8]> = key.into();
        inner.entries.insert(Arc::clone(&shared), (tick, value));
        inner.recency.insert(tick, shared);
        inner.insertions += 1;
    }

    /// Drops every entry (counters survive). Call after a known server-side
    /// model reload — memoized responses describe the *old* version.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache mutex");
        inner.entries.clear();
        inner.recency.clear();
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache mutex");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            capacity: self.capacity,
        }
    }
}

/// Builds the exact fingerprint of an exchange: payload precision, body
/// range, shape, then the content bytes. The response's precision follows
/// the request's, so a lookup can never see the wrong kind of maps. A
/// full-ensemble request is keyed as the range `0..n`, so it shares entries
/// with the equivalent sub-range request.
pub(crate) fn request_key(bodies: &Range<usize>, features: &Features) -> Vec<u8> {
    let shape = features.shape();
    let mut key = Vec::with_capacity(32 + 8 * shape.len() + features.payload_bytes() as usize);
    key.push(features.precision() as u8);
    key.extend_from_slice(&(bodies.start as u64).to_le_bytes());
    key.extend_from_slice(&(bodies.end as u64).to_le_bytes());
    key.push(shape.len() as u8);
    for &dim in shape {
        key.extend_from_slice(&(dim as u64).to_le_bytes());
    }
    key.extend(features.content_bytes());
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensembler_tensor::{QTensorBatch, Tensor};

    fn maps(tag: f32) -> Maps {
        Maps::F32(vec![Tensor::full(&[1, 2], tag)])
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert(vec![1], maps(1.0));
        cache.insert(vec![2], maps(2.0));
        // Touch key 1 so key 2 becomes the LRU.
        assert!(cache.get(&[1]).is_some());
        cache.insert(vec![3], maps(3.0));
        assert!(cache.get(&[2]).is_none(), "LRU entry must be evicted");
        assert!(cache.get(&[1]).is_some());
        assert!(cache.get(&[3]).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.insertions, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let cache = ResultCache::new(2);
        cache.insert(vec![1], maps(1.0));
        cache.insert(vec![2], maps(2.0));
        cache.insert(vec![1], maps(9.0));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&[1]).expect("refreshed entry"), maps(9.0));
        // Key 2 is now LRU despite being inserted later.
        cache.insert(vec![3], maps(3.0));
        assert!(cache.get(&[2]).is_none());
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = ResultCache::new(4);
        cache.insert(vec![1], maps(1.0));
        assert!(cache.get(&[1]).is_some());
        cache.clear();
        assert!(cache.get(&[1]).is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let cache = ResultCache::new(0);
        cache.insert(vec![1], maps(1.0));
        assert!(cache.get(&[1]).is_some());
        assert_eq!(cache.stats().capacity, 1);
    }

    #[test]
    fn keys_cover_kind_range_shape_and_bits() {
        let key =
            |bodies: Range<usize>, t: &Tensor| request_key(&bodies, &Features::F32(t.clone()));
        let t = Tensor::full(&[2, 3], 0.5);
        let base = key(0..4, &t);
        assert_ne!(base, key(1..4, &t), "range must be part of the key");
        assert_ne!(
            base,
            key(0..4, &Tensor::full(&[3, 2], 0.5)),
            "shape must be part of the key"
        );
        assert_ne!(
            base,
            key(0..4, &Tensor::full(&[2, 3], -0.5)),
            "data bits must be part of the key"
        );
        let q = Features::Int8(QTensorBatch::quantize_batch(&t));
        assert_ne!(
            base,
            request_key(&(0..4), &q),
            "f32 and quantized exchanges must never alias"
        );
        // -0.0 and 0.0 compare equal as floats but are different bit
        // patterns, hence different inputs to a fingerprint-seeded defense.
        assert_ne!(
            key(0..1, &Tensor::full(&[1], 0.0)),
            key(0..1, &Tensor::full(&[1], -0.0)),
        );
    }
}
