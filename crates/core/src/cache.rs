//! Memoization for the exploration engine.
//!
//! The Fig. 5 loop and the multi-target Pareto sweep keep revisiting
//! configurations: the no-good-cut loop probes neighborhoods around the
//! incumbent, and neighboring sweep targets walk through the same
//! intermediate selections. Both `analyze_design` (lower + Howard) and
//! `order_channels` (Algorithm 1) are pure functions of the
//! *configuration* — the selection vector plus the per-process `get`/
//! `put` statement orders — so their results can be memoized under that
//! key and shared across every exploration run on the same base design.
//!
//! A cache is tied to one base design: topology, channel latencies, and
//! Pareto sets must not change between queries (the key does not cover
//! them). The sweep creates one cache per call and shares it across all
//! parallel targets; this is sound because the cached computations are
//! deterministic — any interleaving stores the same values.
//!
//! For batch use (one sweep, one exploration) the cache is unbounded —
//! the working set is the run's own trajectory. A long-running service
//! ([`ermesd`](https://example.invalid/ermes)) instead creates the cache
//! with [`EngineCache::with_capacity`]: each memo table is bounded and
//! evicts its least-recently-used entry, so the daemon's memory stays
//! proportional to the hot set rather than to its uptime. Evictions are
//! counted in [`CacheStats::evictions`].

use crate::analysis::{analyze_report, PerfReport};
use crate::design::Design;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use sysgraph::{ChannelId, ChannelOrdering};
use tmg::IncrementalAnalysis;

/// The memo key: selection vector + statement orders, nothing else.
///
/// Both parts are stored flat (two allocations total, not one `Vec` per
/// process): key construction runs on every engine query, and at 10,000
/// processes the per-process layout costs more than a cache hit saves.
/// `orders` is the length-prefixed concatenation of each process's `get`
/// then `put` channel indices, which keeps the encoding injective.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ConfigKey {
    selection: Vec<u32>,
    orders: Vec<u32>,
}

impl ConfigKey {
    fn of(design: &Design) -> Self {
        let sys = design.system();
        let selection = design.selection().iter().map(|&s| s as u32).collect();
        // Every channel appears once in a `get` order and once in a `put`
        // order, plus two length prefixes per process.
        let mut orders = Vec::with_capacity(2 * sys.process_count() + 2 * sys.channel_count());
        let mut extend = |chs: &[ChannelId]| {
            orders.push(chs.len() as u32);
            orders.extend(chs.iter().map(|c| c.index() as u32));
        };
        for p in sys.process_ids() {
            extend(sys.get_order(p));
            extend(sys.put_order(p));
        }
        ConfigKey { selection, orders }
    }
}

/// Hit/miss counters of an [`EngineCache`], for reporting.
///
/// Every lookup counts exactly once, so hits plus misses is the number
/// of lookups. A lookup that misses, computes, and then finds the entry
/// already stored by another thread counts as a hit: on an unbounded
/// cache the misses are then the distinct configurations, whatever the
/// number of threads. A cancelled computation counts as a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Analysis results served from the cache.
    pub analysis_hits: u64,
    /// Analysis results computed and stored first (or cancelled).
    pub analysis_misses: u64,
    /// Channel orderings served from the cache.
    pub ordering_hits: u64,
    /// Channel orderings computed and stored first.
    pub ordering_misses: u64,
    /// Entries dropped by LRU eviction (both tables; always 0 for an
    /// unbounded cache).
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of analysis queries served from the cache (0 when none).
    #[must_use]
    pub fn analysis_hit_rate(&self) -> f64 {
        let total = self.analysis_hits + self.analysis_misses;
        if total == 0 {
            0.0
        } else {
            self.analysis_hits as f64 / total as f64
        }
    }

    /// Fraction of ordering queries served from the cache (0 when none).
    #[must_use]
    pub fn ordering_hit_rate(&self) -> f64 {
        let total = self.ordering_hits + self.ordering_misses;
        if total == 0 {
            0.0
        } else {
            self.ordering_hits as f64 / total as f64
        }
    }

    /// Field-wise sum — aggregates the counters of several caches (the
    /// daemon keeps one cache per base design but reports one total).
    #[must_use]
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            analysis_hits: self.analysis_hits + other.analysis_hits,
            analysis_misses: self.analysis_misses + other.analysis_misses,
            ordering_hits: self.ordering_hits + other.ordering_hits,
            ordering_misses: self.ordering_misses + other.ordering_misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// One bounded-or-unbounded memo table with LRU bookkeeping.
///
/// Recency is a per-entry stamp from a shared tick counter; eviction
/// scans for the minimum stamp. The scan is O(len), which is fine at
/// service-sized capacities (thousands): eviction only happens on a
/// miss, whose analysis/ordering computation dwarfs the scan.
#[derive(Debug)]
struct Memo<V> {
    entries: HashMap<ConfigKey, (V, u64)>,
    tick: u64,
}

impl<V: Clone> Default for Memo<V> {
    fn default() -> Self {
        Memo::new()
    }
}

impl<V: Clone> Memo<V> {
    fn new() -> Self {
        Memo {
            entries: HashMap::new(),
            tick: 0,
        }
    }

    fn get(&mut self, key: &ConfigKey) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(value, used)| {
            *used = tick;
            value.clone()
        })
    }

    /// Inserts `value`, evicting the least-recently-used entry first if
    /// the table is at `capacity`, and returns the number of evictions
    /// (0/1). Returns `None` without storing when another thread stored
    /// `key` first; that entry is touched instead.
    fn insert(&mut self, key: ConfigKey, value: V, capacity: Option<usize>) -> Option<u64> {
        self.tick += 1;
        if let Some((_, used)) = self.entries.get_mut(&key) {
            *used = self.tick;
            return None;
        }
        let mut evicted = 0;
        if let Some(cap) = capacity {
            if cap == 0 {
                return Some(0); // degenerate bound: cache nothing
            }
            if self.entries.len() >= cap {
                if let Some(oldest) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(k, _)| k.clone())
                {
                    self.entries.remove(&oldest);
                    evicted = 1;
                }
            }
        }
        self.entries.insert(key, (value, self.tick));
        Some(evicted)
    }
}

/// Shared memoization cache for analysis and channel-ordering results.
///
/// Thread-safe; meant to be created once per base design and shared by
/// every exploration run over it (see [`crate::pareto_sweep_with`]).
/// Locks are only held for lookups/inserts, never across the underlying
/// computation, so parallel targets proceed without serializing; two
/// threads may redundantly compute the same missing entry, which is
/// harmless because the computations are deterministic. The thread that
/// stores second counts a hit (see [`CacheStats`]).
#[derive(Debug, Default)]
pub struct EngineCache {
    analysis: Mutex<Memo<PerfReport>>,
    ordering: Mutex<Memo<ChannelOrdering>>,
    /// Per-table entry bound; `None` = unbounded (the batch default).
    capacity: Option<usize>,
    analysis_hits: AtomicU64,
    analysis_misses: AtomicU64,
    ordering_hits: AtomicU64,
    ordering_misses: AtomicU64,
    evictions: AtomicU64,
}

impl EngineCache {
    /// An empty, unbounded cache (the batch-run default: a sweep's
    /// working set is its own trajectory, which it must keep).
    #[must_use]
    pub fn new() -> Self {
        EngineCache::default()
    }

    /// An empty cache holding at most `capacity` entries **per table**
    /// (analysis and ordering are bounded independently), evicting the
    /// least-recently-used entry on overflow. This is the configuration
    /// for long-running services, where the cache must not grow with
    /// uptime. `capacity = 0` disables storage entirely (every query
    /// recomputes) while keeping the counters — useful as a baseline.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EngineCache {
            capacity: Some(capacity),
            ..EngineCache::default()
        }
    }

    /// The configured per-table bound (`None` = unbounded).
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Current number of entries in the (analysis, ordering) tables.
    #[must_use]
    pub fn entry_counts(&self) -> (usize, usize) {
        (
            self.analysis.lock().expect("cache poisoned").entries.len(),
            self.ordering.lock().expect("cache poisoned").entries.len(),
        )
    }

    /// [`crate::analyze_design`] through the cache. Public so that
    /// services holding a cross-request cache can analyze through it; the
    /// result is bit-identical to a direct [`crate::analyze_design`] call
    /// (the cached computation is deterministic).
    pub fn analyze(&self, design: &Design) -> PerfReport {
        self.analyze_with(design, None, None)
            .expect("no cancel token, cannot be cancelled")
    }

    /// [`EngineCache::analyze`], polling `cancel` on a miss when one is
    /// given, and analyzing a miss as the next state of `chain` when one
    /// is given (a hit leaves the chain alone). Hits are served as usual
    /// (they are complete by construction); a cancelled computation is
    /// **never inserted**, so no later request can be served a partial
    /// result.
    pub(crate) fn analyze_with(
        &self,
        design: &Design,
        chain: Option<&mut IncrementalAnalysis>,
        cancel: Option<&parx::CancelToken>,
    ) -> Result<PerfReport, parx::Cancelled> {
        let _span = trace::span("cache");
        trace::attr("table", "analysis");
        let key = ConfigKey::of(design);
        if let Some(hit) = self.analysis.lock().expect("cache poisoned").get(&key) {
            self.analysis_hits.fetch_add(1, Ordering::Relaxed);
            trace::attr("cache", "hit");
            return Ok(hit);
        }
        let computed = analyze_report(design, chain, cancel).and_then(|report| {
            // The report is complete here; one last poll keeps a cancelled
            // job from publishing an entry its requester will never read
            // (and lets chaos tests slow this window with a delay fault).
            let _ = parx::faultpoint::hit("cache.insert");
            cancel.map_or(Ok(()), parx::CancelToken::check)?;
            Ok(report)
        });
        let report = match computed {
            Ok(report) => report,
            Err(cancelled) => {
                self.settle(Some(0), &self.analysis_hits, &self.analysis_misses);
                return Err(cancelled);
            }
        };
        let stored = self.analysis.lock().expect("cache poisoned").insert(
            key,
            report.clone(),
            self.capacity,
        );
        self.settle(stored, &self.analysis_hits, &self.analysis_misses);
        Ok(report)
    }

    /// `chanorder::order_channels` through the cache, returning only the
    /// ordering (labels are not needed by the loop).
    pub fn order(&self, design: &Design) -> ChannelOrdering {
        let _span = trace::span("cache");
        trace::attr("table", "ordering");
        let key = ConfigKey::of(design);
        if let Some(hit) = self.ordering.lock().expect("cache poisoned").get(&key) {
            self.ordering_hits.fetch_add(1, Ordering::Relaxed);
            trace::attr("cache", "hit");
            return hit;
        }
        let ordering = chanorder::order_channels(design.system()).ordering;
        let stored = self.ordering.lock().expect("cache poisoned").insert(
            key,
            ordering.clone(),
            self.capacity,
        );
        self.settle(stored, &self.ordering_hits, &self.ordering_misses);
        ordering
    }

    /// Counts a lookup that missed and computed: a hit when another
    /// thread stored the entry first (`stored` is `None`), otherwise a
    /// miss plus the evictions its insert caused. The span's `cache`
    /// attribute records the same outcome.
    fn settle(&self, stored: Option<u64>, hits: &AtomicU64, misses: &AtomicU64) {
        match stored {
            None => {
                hits.fetch_add(1, Ordering::Relaxed);
                trace::attr("cache", "hit");
            }
            Some(evicted) => {
                misses.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                trace::attr("cache", "miss");
            }
        }
    }

    /// A snapshot of the hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            analysis_hits: self.analysis_hits.load(Ordering::Relaxed),
            analysis_misses: self.analysis_misses.load(Ordering::Relaxed),
            ordering_hits: self.ordering_hits.load(Ordering::Relaxed),
            ordering_misses: self.ordering_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_design;
    use hlsim::{HlsKnobs, MicroArch, ParetoSet};
    use sysgraph::SystemGraph;

    fn two_stage() -> Design {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 0);
        let b = sys.add_process("b", 0);
        sys.add_channel("x", a, b, 1).expect("valid");
        let set = |lats: &[u64]| {
            ParetoSet::from_candidates(
                lats.iter()
                    .map(|&latency| MicroArch {
                        knobs: HlsKnobs::baseline(),
                        latency,
                        area: 1.0 / latency as f64,
                    })
                    .collect(),
            )
        };
        let mut design = Design::new(sys, vec![set(&[2, 4]), set(&[3, 6])]).expect("sizes");
        design.select_fastest();
        design
    }

    #[test]
    fn cached_analysis_agrees_with_fresh() {
        let design = two_stage();
        let cache = EngineCache::new();
        let fresh = analyze_design(&design);
        let first = cache.analyze(&design);
        let second = cache.analyze(&design);
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        let stats = cache.stats();
        assert_eq!((stats.analysis_hits, stats.analysis_misses), (1, 1));
        assert!((stats.analysis_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_selections_get_distinct_entries() {
        let mut design = two_stage();
        let cache = EngineCache::new();
        let fast = cache.analyze(&design);
        design.select_smallest();
        let slow = cache.analyze(&design);
        assert_ne!(fast.cycle_time(), slow.cycle_time());
        assert_eq!(cache.stats().analysis_misses, 2);
        // Re-querying either configuration hits.
        design.select_fastest();
        assert_eq!(cache.analyze(&design), fast);
        assert_eq!(cache.stats().analysis_hits, 1);
    }

    #[test]
    fn ordering_cache_matches_direct_call() {
        let design = two_stage();
        let cache = EngineCache::new();
        let direct = chanorder::order_channels(design.system()).ordering;
        assert_eq!(cache.order(&design), direct);
        assert_eq!(cache.order(&design), direct);
        let stats = cache.stats();
        assert_eq!((stats.ordering_hits, stats.ordering_misses), (1, 1));
    }

    /// A design with `n` selectable points on process `a`, so the cache
    /// can be driven through `n` distinct configurations.
    fn many_config_design(n: u64) -> Design {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 0);
        let b = sys.add_process("b", 0);
        sys.add_channel("x", a, b, 1).expect("valid");
        let set = |lats: Vec<u64>| {
            ParetoSet::from_candidates(
                lats.iter()
                    .map(|&latency| MicroArch {
                        knobs: HlsKnobs::baseline(),
                        latency,
                        area: 100.0 / latency as f64,
                    })
                    .collect(),
            )
        };
        let mut design =
            Design::new(sys, vec![set((1..=n).collect()), set(vec![3])]).expect("sizes");
        design.select_fastest();
        design
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let mut design = many_config_design(4);
        let cache = EngineCache::with_capacity(2);
        let a = sysgraph::ProcessId::from_index(0);
        for idx in 0..3 {
            design.select(a, idx).expect("valid");
            let _ = cache.analyze(&design);
        }
        // Capacity 2, three distinct configs: one eviction, table full.
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1, "{stats:?}");
        assert_eq!(cache.entry_counts().0, 2);
        // Config 0 was the least recently used: re-querying it misses,
        // while config 2 (most recent) still hits.
        design.select(a, 2).expect("valid");
        let _ = cache.analyze(&design);
        assert_eq!(cache.stats().analysis_hits, 1);
        design.select(a, 0).expect("valid");
        let _ = cache.analyze(&design);
        let stats = cache.stats();
        assert_eq!(stats.analysis_misses, 4, "config 0 was evicted");
        assert_eq!(stats.evictions, 2);
    }

    #[test]
    fn lru_refresh_protects_hot_entries() {
        let mut design = many_config_design(3);
        let cache = EngineCache::with_capacity(2);
        let a = sysgraph::ProcessId::from_index(0);
        // Fill with configs 0 and 1, then touch 0 so 1 becomes the LRU.
        for idx in [0, 1, 0] {
            design.select(a, idx).expect("valid");
            let _ = cache.analyze(&design);
        }
        // Config 2 evicts config 1, not the recently-touched config 0.
        design.select(a, 2).expect("valid");
        let _ = cache.analyze(&design);
        design.select(a, 0).expect("valid");
        let _ = cache.analyze(&design);
        let stats = cache.stats();
        assert_eq!(stats.analysis_hits, 2, "config 0 survived: {stats:?}");
        assert_eq!(stats.evictions, 1);
    }

    /// Regression for the touch-on-hit contract the session store's LRU
    /// mirrors: a `get` must refresh recency, so an entry that keeps
    /// getting hit survives arbitrarily many evictions around it — it is
    /// never aged out just because it was inserted first.
    #[test]
    fn touch_on_hit_keeps_an_entry_alive_under_eviction_pressure() {
        let mut design = many_config_design(6);
        let cache = EngineCache::with_capacity(2);
        let a = sysgraph::ProcessId::from_index(0);
        for idx in [0, 1] {
            design.select(a, idx).expect("valid");
            let _ = cache.analyze(&design);
        }
        // Three rounds: hit config 0, then insert a fresh config. If the
        // hit did not refresh recency, round one would already evict 0.
        for idx in 2..5 {
            design.select(a, 0).expect("valid");
            let _ = cache.analyze(&design);
            design.select(a, idx).expect("valid");
            let _ = cache.analyze(&design);
        }
        design.select(a, 0).expect("valid");
        let _ = cache.analyze(&design);
        let stats = cache.stats();
        assert_eq!(
            stats.analysis_hits, 4,
            "config 0 survived every round: {stats:?}"
        );
        assert_eq!(stats.analysis_misses, 5, "configs 0..5 computed once each");
        assert_eq!(stats.evictions, 3, "each fresh config evicted a cold one");
    }

    #[test]
    fn zero_capacity_recomputes_every_query() {
        let design = many_config_design(2);
        let cache = EngineCache::with_capacity(0);
        let fresh = analyze_design(&design);
        assert_eq!(cache.analyze(&design), fresh);
        assert_eq!(cache.analyze(&design), fresh);
        let stats = cache.stats();
        assert_eq!((stats.analysis_hits, stats.analysis_misses), (0, 2));
        assert_eq!(cache.entry_counts(), (0, 0));
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut design = many_config_design(16);
        let cache = EngineCache::new();
        assert_eq!(cache.capacity(), None);
        let a = sysgraph::ProcessId::from_index(0);
        for idx in 0..16 {
            design.select(a, idx).expect("valid");
            let _ = cache.analyze(&design);
        }
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.entry_counts().0, 16);
    }

    #[test]
    fn merged_stats_sum_fieldwise() {
        let a = CacheStats {
            analysis_hits: 1,
            analysis_misses: 2,
            ordering_hits: 3,
            ordering_misses: 4,
            evictions: 5,
        };
        let b = a.merged(&a);
        assert_eq!(b.analysis_hits, 2);
        assert_eq!(b.evictions, 10);
    }

    #[test]
    fn cancelled_analysis_inserts_nothing() {
        use parx::{CancelReason, CancelToken};
        let design = two_stage();
        let cache = EngineCache::new();
        let token = CancelToken::new();
        token.cancel(CancelReason::Disconnected);
        let err = cache
            .analyze_with(&design, None, Some(&token))
            .expect_err("token already fired");
        assert_eq!(err.reason, CancelReason::Disconnected);
        assert_eq!(
            cache.entry_counts(),
            (0, 0),
            "a cancelled job must not populate the cache"
        );
        // A live token computes, inserts, and later hits as usual.
        let live = CancelToken::new();
        let fresh = analyze_design(&design);
        assert_eq!(
            cache
                .analyze_with(&design, None, Some(&live))
                .expect("live"),
            fresh
        );
        assert_eq!(cache.entry_counts().0, 1);
        assert_eq!(cache.analyze(&design), fresh);
        let stats = cache.stats();
        assert_eq!(
            (stats.analysis_hits, stats.analysis_misses),
            (1, 2),
            "the cancelled lookup still counts as a miss"
        );
    }

    #[test]
    fn reordering_changes_the_key() {
        let mut design = two_stage();
        let cache = EngineCache::new();
        let _ = cache.analyze(&design);
        // Apply the algorithm's ordering; if it differs from the current
        // statement order the key must differ too (a fresh miss).
        let ordering = cache.order(&design);
        ordering.apply_to(design.system_mut()).expect("valid");
        let _ = cache.analyze(&design);
        let stats = cache.stats();
        assert!(stats.analysis_misses >= 1);
        assert_eq!(
            stats.analysis_hits + stats.analysis_misses,
            2,
            "two queries total"
        );
    }
}
