//! Snapshot-keyed query caching for the sharded reader.
//!
//! A [`ShardedReader`](crate::ShardedReader) answers every query
//! from an immutable set of epoch snapshots, so two queries over the
//! *same* snapshots, the *same* global blend, the same normalized
//! terms and the same `k` are guaranteed — not just likely — to
//! return bit-identical hits. That makes the cache key trivial and
//! invalidation free:
//!
//! * **key** = the `Arc::as_ptr` identity of every shard's
//!   [`EngineSnapshot`] plus the published [`StaticBlend`], the
//!   [`normalize_query`]-normalized terms, and `k`. Publishing a new snapshot or blend swaps the
//!   `Arc` — the pointer changes, so every entry keyed to the old
//!   epoch simply stops matching. No flush, no version counter, no
//!   write-path coordination at all.
//! * **ABA safety**: a pointer is only an identity while its
//!   allocation lives. Each entry therefore holds [`Weak`] references
//!   to the exact snapshots and blend it was computed from; a `Weak`
//!   keeps the `ArcInner` allocation pinned (the weak count holds the
//!   box) even after the strong count reaches zero, so a key built
//!   from a *live* snapshot can never pointer-collide with an entry
//!   computed from a dead, recycled one.
//! * **eviction** is capacity-bounded FIFO: hits never take the write
//!   lock, so the hot path over a stable epoch is one read-locked
//!   hash probe plus a result clone. Epoch swaps naturally age dead
//!   entries out through the same FIFO.
//!
//! Transparency — a cached reader never observes anything a fresh
//! uncached query against the snapshots it holds would not return —
//! is pinned by the `cache_transparency` concurrency suite in
//! `crates/live/tests`.

use crate::snapshot::EngineSnapshot;
use obs_search::{normalize_query, SearchHit, StaticBlend};
use obs_telemetry::{catalog, Counter, Registry};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, RwLock, Weak};

/// Hit/miss/fill/eviction counters for one [`QueryCache`],
/// registered in an [`obs_telemetry::Registry`]. Cheap to clone;
/// recording is lock-free.
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    fills: Counter,
    evictions: Counter,
}

impl CacheMetrics {
    /// Registers the query-cache instruments in `registry`.
    pub fn new(registry: &Registry) -> CacheMetrics {
        CacheMetrics {
            hits: registry.counter(&catalog::LIVE_QUERY_CACHE_HITS_TOTAL),
            misses: registry.counter(&catalog::LIVE_QUERY_CACHE_MISSES_TOTAL),
            fills: registry.counter(&catalog::LIVE_QUERY_CACHE_FILLS_TOTAL),
            evictions: registry.counter(&catalog::LIVE_QUERY_CACHE_EVICTIONS_TOTAL),
        }
    }

    /// Queries answered from a cached entry.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Queries that missed and ran the scatter plan.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries written after a miss.
    pub fn fills(&self) -> u64 {
        self.fills.get()
    }

    /// Entries displaced by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

/// The full identity of one answerable query: epoch pointers,
/// normalized terms, result size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// `Arc::as_ptr` of each shard's snapshot, in shard order.
    epochs: Vec<usize>,
    /// `Arc::as_ptr` of the published global blend.
    blend: usize,
    /// Normalized query terms, in query order (duplicates included —
    /// the scorer collapses them, so keeping them costs nothing and
    /// keys stay a pure function of the normalized input).
    terms: Vec<String>,
    /// Requested result count.
    k: usize,
}

/// One cached ranking plus the weak pins that keep its key's pointer
/// identities honest (see the module docs on ABA safety).
#[derive(Debug)]
struct CacheEntry {
    hits: Vec<SearchHit>,
    _epochs: Vec<Weak<EngineSnapshot>>,
    _blend: Weak<StaticBlend>,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, CacheEntry>,
    /// Insertion order for FIFO eviction. May briefly hold keys a
    /// racing insert already displaced; eviction skips those.
    fifo: VecDeque<CacheKey>,
}

/// A capacity-bounded, snapshot-keyed cache of scatter-gather query
/// results. Attach one to a service with
/// [`ShardedLiveService::with_query_cache`](crate::ShardedLiveService::with_query_cache);
/// every reader the service hands out then shares it.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    metrics: Option<CacheMetrics>,
    inner: RwLock<CacheInner>,
}

impl QueryCache {
    /// A cache holding at most `capacity` entries (FIFO eviction).
    /// Zero capacity is legal and caches nothing — every query runs
    /// the plan, which keeps the knob safe to drive from config.
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            capacity,
            metrics: None,
            inner: RwLock::new(CacheInner::default()),
        }
    }

    /// Attaches hit/miss/fill/eviction counters.
    pub fn with_metrics(mut self, metrics: CacheMetrics) -> QueryCache {
        self.metrics = Some(metrics);
        self
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.read(|inner| inner.map.len())
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Answers a query from the cache, or runs `compute` over the
    /// normalized terms and fills the entry. The caller supplies the
    /// exact snapshots and blend the computation will read — they
    /// *are* the epoch half of the key — so a returned hit is always
    /// the bit-identical result of the same plan over the same
    /// frozen state.
    pub(crate) fn query_or_compute<S: AsRef<str>>(
        &self,
        snapshots: &[Arc<EngineSnapshot>],
        blend: &Arc<StaticBlend>,
        terms: &[S],
        k: usize,
        compute: impl FnOnce(&[String]) -> Vec<SearchHit>,
    ) -> Vec<SearchHit> {
        let terms: Vec<String> = normalize_query(terms)
            .into_iter()
            .map(Cow::into_owned)
            .collect();
        let key = CacheKey {
            epochs: snapshots.iter().map(|s| Arc::as_ptr(s) as usize).collect(),
            blend: Arc::as_ptr(blend) as usize,
            terms,
            k,
        };
        if let Some(hits) = self.read(|inner| inner.map.get(&key).map(|e| e.hits.clone())) {
            if let Some(m) = &self.metrics {
                m.hits.inc();
            }
            return hits;
        }
        if let Some(m) = &self.metrics {
            m.misses.inc();
        }
        let hits = compute(&key.terms);
        self.fill(key, snapshots, blend, hits.clone());
        hits
    }

    /// Inserts one computed entry, evicting FIFO-oldest entries while
    /// over capacity.
    fn fill(
        &self,
        key: CacheKey,
        snapshots: &[Arc<EngineSnapshot>],
        blend: &Arc<StaticBlend>,
        hits: Vec<SearchHit>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let entry = CacheEntry {
            hits,
            _epochs: snapshots.iter().map(Arc::downgrade).collect(),
            _blend: Arc::downgrade(blend),
        };
        let mut evicted = 0u64;
        let mut filled = false;
        self.write(|inner| {
            while inner.map.len() >= self.capacity {
                let Some(oldest) = inner.fifo.pop_front() else {
                    break;
                };
                if inner.map.remove(&oldest).is_some() {
                    evicted += 1;
                }
            }
            // A racing thread may have filled the same key between
            // our miss and this insert; replacing its value with the
            // bit-identical one is harmless, but the FIFO should not
            // hold the key twice.
            if inner.map.insert(key.clone(), entry).is_none() {
                inner.fifo.push_back(key);
                filled = true;
            }
        });
        if let Some(m) = &self.metrics {
            if filled {
                m.fills.inc();
            }
            for _ in 0..evicted {
                m.evictions.inc();
            }
        }
    }

    /// Runs `f` under the read lock. A poisoned lock only means a
    /// reader panicked mid-probe; the map itself is always intact.
    fn read<T>(&self, f: impl FnOnce(&CacheInner) -> T) -> T {
        match self.inner.read() {
            Ok(guard) => f(&guard),
            Err(poisoned) => f(&poisoned.into_inner()),
        }
    }

    /// Runs `f` under the write lock, with the same poisoned-lock
    /// recovery as reads.
    fn write(&self, f: impl FnOnce(&mut CacheInner)) {
        match self.inner.write() {
            Ok(mut guard) => f(&mut guard),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs_analytics::{AlexaPanel, LinkGraph};
    use obs_search::{BlendWeights, SearchEngine};
    use obs_synth::{World, WorldConfig};

    fn snapshot_pair() -> (Arc<EngineSnapshot>, Arc<StaticBlend>) {
        let world = World::generate(WorldConfig::small(777));
        let panel = AlexaPanel::simulate(&world, 1);
        let links = LinkGraph::simulate(&world, 2);
        let engine = SearchEngine::build(&world.corpus, &panel, &links, BlendWeights::default());
        let blend = Arc::new(engine.blend().clone());
        (Arc::new(EngineSnapshot::new(0, engine)), blend)
    }

    fn query(
        cache: &QueryCache,
        snap: &Arc<EngineSnapshot>,
        blend: &Arc<StaticBlend>,
        term: &str,
        computed: &mut usize,
    ) -> Vec<SearchHit> {
        cache.query_or_compute(
            std::slice::from_ref(snap),
            blend,
            &[term],
            10,
            |normalized| {
                *computed += 1;
                snap.engine().query(normalized, 10)
            },
        )
    }

    #[test]
    fn second_identical_query_is_served_without_computing() {
        let (snap, blend) = snapshot_pair();
        let registry = Registry::new();
        let metrics = CacheMetrics::new(&registry);
        let cache = QueryCache::new(8).with_metrics(metrics.clone());
        let mut computed = 0;
        let first = query(&cache, &snap, &blend, "duomo", &mut computed);
        let second = query(&cache, &snap, &blend, "duomo", &mut computed);
        assert_eq!(first, second);
        assert_eq!(computed, 1, "the hit must not recompute");
        assert_eq!((metrics.hits(), metrics.misses()), (1, 1));
        assert_eq!(metrics.fills(), 1);
        let text = registry.render_text();
        assert!(text.contains("live_query_cache_hits_total 1"));
    }

    #[test]
    fn messy_and_normalized_forms_share_one_entry() {
        let (snap, blend) = snapshot_pair();
        let cache = QueryCache::new(8);
        let mut computed = 0;
        let clean = query(&cache, &snap, &blend, "duomo", &mut computed);
        let messy = query(&cache, &snap, &blend, "The DUOMO!", &mut computed);
        assert_eq!(clean, messy);
        assert_eq!(computed, 1, "normalization must unify the keys");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn epoch_pointer_swap_retires_entries() {
        let (snap_a, blend) = snapshot_pair();
        // A fresh Arc around a clone of the same engine state: the
        // contents are identical, the epoch identity is not.
        let snap_b = Arc::new(EngineSnapshot::new(1, snap_a.engine().clone()));
        let cache = QueryCache::new(8);
        let mut computed = 0;
        query(&cache, &snap_a, &blend, "duomo", &mut computed);
        query(&cache, &snap_b, &blend, "duomo", &mut computed);
        assert_eq!(computed, 2, "a new epoch pointer must miss");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_bound_evicts_fifo_and_zero_capacity_stores_nothing() {
        let (snap, blend) = snapshot_pair();
        let registry = Registry::new();
        let metrics = CacheMetrics::new(&registry);
        let cache = QueryCache::new(2).with_metrics(metrics.clone());
        let mut computed = 0;
        for term in ["duomo", "castle", "market"] {
            query(&cache, &snap, &blend, term, &mut computed);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(metrics.evictions(), 1);
        // The oldest entry ("duomo") was the one displaced.
        query(&cache, &snap, &blend, "market", &mut computed);
        assert_eq!(computed, 3, "newest entries must have survived");
        query(&cache, &snap, &blend, "duomo", &mut computed);
        assert_eq!(computed, 4, "the FIFO-oldest entry must be gone");

        let none = QueryCache::new(0);
        let mut recomputed = 0;
        query(&none, &snap, &blend, "duomo", &mut recomputed);
        query(&none, &snap, &blend, "duomo", &mut recomputed);
        assert_eq!(recomputed, 2);
        assert!(none.is_empty());
    }
}
