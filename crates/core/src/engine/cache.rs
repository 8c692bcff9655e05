//! Contention-free sharded caches for the engine's hot read path.
//!
//! The engine's two caches (structure decompositions, compiled lineages)
//! used to be single `Mutex<HashMap>`s: correct, but every cache *hit* —
//! the overwhelmingly common operation for a warm engine serving a query
//! workload — serialized all workers behind one lock. `ShardedCache` is
//! the replacement:
//!
//! * **Sharding** — entries are spread over N independent
//!   [`RwLock`]-guarded shards keyed by a hash of the key (for the engine,
//!   the leading component is an instance fingerprint). Readers on
//!   different shards never touch the same lock; readers on the *same*
//!   shard share a read lock.
//! * **Clone-on-read** — values are `Arc`s (or other cheap clones): a hit
//!   clones the `Arc` under the read lock and releases immediately, so no
//!   lock is ever held while the entry is *used*.
//! * **Publish-once, first-writer-wins** — a cache miss never holds any
//!   lock across the expensive work (decomposition, lineage compilation).
//!   Each worker computes its own value and calls `ShardedCache::publish`;
//!   the first writer installs its value, later writers *adopt* the
//!   installed one and drop their own, so every thread converges on one
//!   shared `Arc` per key.
//! * **Global FIFO bound** — a small side ledger (one mutex-guarded
//!   `VecDeque` of keys, touched only on insert/evict, never on read)
//!   preserves the exact capacity + oldest-first eviction semantics the
//!   single-lock cache promised: the cache never exceeds its capacity and
//!   churn never evicts the entry that was just inserted.
//!
//! Hit/miss counters are atomics bumped by the owner (the engine bumps
//! them only after validating an entry), surfaced through
//! [`CacheCounters`] so concurrency tests can prove that sharing actually
//! happened. Caches built with `ShardedCache::with_metrics` additionally
//! mirror every counter bump into pre-resolved global
//! [`stuc_obs`] handles, making hits/misses/races/evictions live metrics
//! (`/metrics`) instead of pull-only snapshots.

use super::metrics::{answer_cache_metrics, CacheMetricHandles};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use stuc_obs::metrics::Counter;

/// Default shard count of the engine caches. More shards than cores is
/// harmless (a shard is one `RwLock` + one `HashMap`); fewer would make
/// unrelated fingerprints contend.
pub(crate) const DEFAULT_SHARDS: usize = 16;

/// A point-in-time snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Validated cache hits: an entry was found *and* passed the owner's
    /// revalidation (dual-hash check, structural validation).
    pub hits: u64,
    /// Misses: no entry, or an entry that failed revalidation.
    pub misses: u64,
    /// Publishes that lost the first-writer-wins race and adopted the
    /// already-installed entry instead. Nonzero means several workers
    /// compiled the same key concurrently — possible, never wrong.
    pub races_lost: u64,
    /// Entries dropped by the capacity (FIFO) bound. Explicit invalidation
    /// (`drain_matching`, `clear`) is not counted here.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Hit/miss/entry counters of both engine caches, from
/// [`Engine::cache_stats`](super::Engine::cache_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCacheStats {
    /// Counters of the structure-decomposition cache.
    pub decompositions: CacheCounters,
    /// Counters of the compiled-lineage cache.
    pub lineages: CacheCounters,
    /// Counters of the answers memoised on compiled-lineage entries: a hit
    /// is a counting run under the representation's own weights served
    /// from its entry, a miss one that swept. The answers live on the
    /// lineage entries, so `races_lost`, `evictions` and `entries` stay 0.
    pub answers: CacheCounters,
}

/// Per-engine hit/miss counters of the memoised answers, mirrored into the
/// global `stuc_cache_answer_{hits,misses}_total` counters.
#[derive(Debug)]
pub(crate) struct AnswerCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    metrics: (Arc<Counter>, Arc<Counter>),
}

impl AnswerCounters {
    pub(crate) fn new() -> Self {
        AnswerCounters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            metrics: answer_cache_metrics(),
        }
    }

    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.metrics.0.inc();
    }

    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.metrics.1.inc();
    }

    pub(crate) fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            ..CacheCounters::default()
        }
    }
}

/// A sharded, bounded, clone-on-read concurrent map. See the [module
/// docs](self) for the locking discipline.
#[derive(Debug)]
pub(crate) struct ShardedCache<K, V> {
    shards: Box<[RwLock<HashMap<K, V>>]>,
    /// Insert-order ledger backing the global FIFO bound. Only insert and
    /// eviction paths lock it; reads never do. May transiently hold keys
    /// that were already drained elsewhere — eviction skips those.
    order: Mutex<VecDeque<K>>,
    /// Maximum resident entries across all shards; 0 disables storage.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    races_lost: AtomicU64,
    evictions: AtomicU64,
    /// Global registry mirrors; `None` for bare test caches.
    metrics: Option<CacheMetricHandles>,
}

impl<K: Hash + Eq + Copy, V: Clone> ShardedCache<K, V> {
    /// A cache bounded to `capacity` entries across `shards` shards.
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            order: Mutex::new(VecDeque::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            races_lost: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Like [`ShardedCache::new`], with every counter mirrored into the
    /// given global metric handles.
    pub(crate) fn with_metrics(
        capacity: usize,
        shards: usize,
        metrics: CacheMetricHandles,
    ) -> Self {
        let mut cache = Self::new(capacity, shards);
        cache.metrics = Some(metrics);
        cache
    }

    /// Adjusts the global resident-entry gauge by a delta. The gauge sums
    /// over every cache sharing the handles (several engines may), so
    /// mutations report deltas rather than overwriting the level.
    fn gauge_entries(&self, delta: i64) {
        if let Some(metrics) = &self.metrics {
            metrics.entries.add(delta);
        }
    }

    /// Shard index of a key. Uses `DefaultHasher` (keyed deterministically)
    /// rather than the raw fingerprint so that structured keys sharing a
    /// leading component still spread.
    fn shard_of(&self, key: &K) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// Read-locks a shard, surviving poisoning: a cache only ever holds
    /// revalidated-on-read entries, so a panic elsewhere must not take the
    /// cache down with it.
    fn read(&self, index: usize) -> RwLockReadGuard<'_, HashMap<K, V>> {
        self.shards[index]
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self, index: usize) -> RwLockWriteGuard<'_, HashMap<K, V>> {
        self.shards[index]
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn order_lock(&self) -> MutexGuard<'_, VecDeque<K>> {
        self.order
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Total resident entries (sums the shards; no global lock).
    pub(crate) fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read(i).len()).sum()
    }

    /// Clone-on-read lookup: the shard's read lock is held only for the
    /// clone, never while the caller uses the value. Does **not** bump the
    /// hit/miss counters — the owner does, after revalidating the entry.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        self.read(self.shard_of(key)).get(key).cloned()
    }

    /// Publishes a freshly computed value under first-writer-wins: if the
    /// key is vacant the value is installed and returned; if another worker
    /// got there first, *their* value is returned and `value` is dropped,
    /// so every racer converges on the one installed clone. The boolean is
    /// true when this call won the race.
    ///
    /// No lock is held across any caller work — compute first, publish
    /// after. With capacity 0 nothing is stored and the caller keeps its
    /// own value.
    pub(crate) fn publish(&self, key: K, value: V) -> (V, bool) {
        if self.capacity == 0 {
            return (value, true);
        }
        // Chaos probe *before* the shard lock: a panic here must leave the
        // cache exactly as it was (no entry, no ledger slot, no gauge skew).
        stuc_fault::failpoint!("cache-publish");
        {
            let mut shard = self.write(self.shard_of(&key));
            match shard.entry(key) {
                Entry::Occupied(existing) => {
                    self.races_lost.fetch_add(1, Ordering::Relaxed);
                    if let Some(metrics) = &self.metrics {
                        metrics.races_lost.inc();
                    }
                    return (existing.get().clone(), false);
                }
                Entry::Vacant(vacant) => {
                    vacant.insert(value.clone());
                }
            }
        }
        self.gauge_entries(1);
        self.order_lock().push_back(key);
        self.enforce_capacity();
        (value, true)
    }

    /// Inserts, replacing any existing entry — the update path's rekeying
    /// (a patched entry *must* supersede what is under the key, e.g. a
    /// fingerprint-colliding stranger being restored, or a reader's
    /// concurrently republished stale value).
    pub(crate) fn insert_replacing(&self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let fresh_key = self.write(self.shard_of(&key)).insert(key, value).is_none();
        if fresh_key {
            self.gauge_entries(1);
            self.order_lock().push_back(key);
            self.enforce_capacity();
        }
    }

    /// Evicts oldest-first until the cache is back within capacity. Ledger
    /// entries whose key is no longer resident (drained or replaced) are
    /// skipped. No two locks are ever held at once.
    fn enforce_capacity(&self) {
        // Chaos probe outside both locks, once per eviction pass.
        stuc_fault::failpoint!("cache-evict");
        while self.len() > self.capacity {
            let Some(victim) = self.order_lock().pop_front() else {
                break;
            };
            if self.write(self.shard_of(&victim)).remove(&victim).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.gauge_entries(-1);
                if let Some(metrics) = &self.metrics {
                    metrics.evictions.inc();
                }
            }
        }
    }

    /// Removes and returns every entry whose key matches the predicate.
    pub(crate) fn drain_matching(&self, mut matches: impl FnMut(&K) -> bool) -> Vec<(K, V)> {
        let mut drained = Vec::new();
        for index in 0..self.shards.len() {
            let mut shard = self.write(index);
            let keys: Vec<K> = shard.keys().copied().filter(|k| matches(k)).collect();
            for key in keys {
                let value = shard.remove(&key).expect("key listed under this lock");
                drained.push((key, value));
            }
        }
        if !drained.is_empty() {
            self.gauge_entries(-(drained.len() as i64));
            self.order_lock()
                .retain(|k| !drained.iter().any(|(drained_key, _)| drained_key == k));
        }
        drained
    }

    /// Drops every entry (counters are kept — they are lifetime totals).
    pub(crate) fn clear(&self) {
        let mut dropped = 0i64;
        for index in 0..self.shards.len() {
            let mut shard = self.write(index);
            dropped += shard.len() as i64;
            shard.clear();
        }
        self.gauge_entries(-dropped);
        self.order_lock().clear();
    }

    /// Records one validated hit (bumped by the owner, not by `get`).
    pub(crate) fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = &self.metrics {
            metrics.hits.inc();
        }
    }

    /// Records one miss (absent entry or failed revalidation).
    pub(crate) fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = &self.metrics {
            metrics.misses.inc();
        }
    }

    /// Snapshot of the counters plus the current entry count.
    pub(crate) fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            races_lost: self.races_lost.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

impl<K, V> Drop for ShardedCache<K, V> {
    fn drop(&mut self) {
        // The global entries gauge sums over every cache sharing the
        // handles; a dropped cache (engine torn down) must give its
        // residents back or the gauge would drift upward forever.
        if let Some(metrics) = &self.metrics {
            let resident: usize = self
                .shards
                .iter_mut()
                .map(|shard| shard.get_mut().map_or(0, |m| m.len()))
                .sum();
            metrics.entries.sub(resident as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_and_get_round_trip() {
        let cache: ShardedCache<u64, Arc<String>> = ShardedCache::new(8, 4);
        let (value, won) = cache.publish(1, Arc::new("one".into()));
        assert!(won);
        assert_eq!(*value, "one");
        assert_eq!(cache.get(&1).as_deref().map(String::as_str), Some("one"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn first_writer_wins_and_losers_adopt() {
        let cache: ShardedCache<u64, Arc<String>> = ShardedCache::new(8, 4);
        let (winner, won) = cache.publish(7, Arc::new("first".into()));
        assert!(won);
        let (adopted, won_second) = cache.publish(7, Arc::new("second".into()));
        assert!(!won_second);
        assert!(
            Arc::ptr_eq(&winner, &adopted),
            "loser must adopt the installed Arc"
        );
        assert_eq!(*adopted, "first");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters().races_lost, 1);
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let cache: ShardedCache<u64, Arc<u32>> = ShardedCache::new(0, 4);
        let (value, won) = cache.publish(1, Arc::new(10));
        assert!(won);
        assert_eq!(*value, 10);
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&1).is_none());
        cache.insert_replacing(2, Arc::new(20));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn eviction_is_globally_oldest_first_across_shards() {
        // Capacity 2 over many shards: no matter which shards the keys land
        // in, the global FIFO ledger guarantees the oldest goes first.
        let cache: ShardedCache<u64, Arc<u64>> = ShardedCache::new(2, 16);
        for key in 0..10 {
            cache.publish(key, Arc::new(key));
            assert!(cache.len() <= 2, "capacity must hold after every insert");
            assert!(
                cache.get(&key).is_some(),
                "the just-inserted entry must be resident"
            );
        }
        // Survivors are exactly the two newest.
        assert!(cache.get(&9).is_some());
        assert!(cache.get(&8).is_some());
        for key in 0..8 {
            assert!(cache.get(&key).is_none(), "key {key} should be evicted");
        }
    }

    #[test]
    fn drain_matching_removes_only_matches_and_cleans_the_ledger() {
        let cache: ShardedCache<(u64, u64), Arc<u64>> = ShardedCache::new(16, 4);
        for i in 0..6 {
            cache.publish((i % 2, i), Arc::new(i));
        }
        let drained = cache.drain_matching(|key| key.0 == 0);
        assert_eq!(drained.len(), 3);
        assert_eq!(cache.len(), 3);
        // Ledger is clean: filling to capacity again never double-counts.
        for i in 10..23 {
            cache.publish((2, i), Arc::new(i));
            assert!(cache.len() <= 16);
        }
    }

    #[test]
    fn a_reader_holding_an_arc_survives_eviction() {
        let cache: ShardedCache<u64, Arc<String>> = ShardedCache::new(1, 4);
        let (held, _) = cache.publish(1, Arc::new("held".into()));
        cache.publish(2, Arc::new("evictor".into())); // evicts key 1
        assert!(cache.get(&1).is_none());
        assert_eq!(*held, "held", "the reader's Arc outlives the cache entry");
    }

    // --- loom-style schedule exploration -----------------------------------
    //
    // Every public cache operation is linearizable (each takes its internal
    // locks for the whole call), so any concurrent execution of a set of
    // operations is equivalent to SOME sequential interleaving of them. The
    // harness below enumerates ALL interleavings of the per-thread operation
    // sequences and checks the first-writer-wins invariants on each — a
    // hand-rolled, dependency-free stand-in for loom's schedule exploration.

    #[derive(Default)]
    struct ScheduleState {
        /// Value each publisher ended up holding after its publish call.
        adopted: Vec<(usize, u64, bool)>, // (thread, value, won)
        /// What the reader observed (None = not yet / absent).
        read: Option<Option<u64>>,
    }

    /// One atomic operation of a modelled thread: (thread index, cache,
    /// shared observation state).
    type Step = fn(usize, &ShardedCache<u64, Arc<u64>>, &mut ScheduleState);

    /// Enumerates every interleaving of the given per-thread step sequences
    /// and runs `check` on the final state of each.
    fn explore(
        threads: &[Vec<Step>],
        check: impl Fn(&ShardedCache<u64, Arc<u64>>, &ScheduleState, &[usize]),
    ) {
        fn recurse(
            threads: &[Vec<Step>],
            progress: &mut Vec<usize>,
            schedule: &mut Vec<usize>,
            run: &mut dyn FnMut(&[usize]),
        ) {
            let mut advanced = false;
            for thread in 0..threads.len() {
                if progress[thread] < threads[thread].len() {
                    advanced = true;
                    progress[thread] += 1;
                    schedule.push(thread);
                    recurse(threads, progress, schedule, run);
                    schedule.pop();
                    progress[thread] -= 1;
                }
            }
            if !advanced {
                run(schedule);
            }
        }
        let mut progress = vec![0; threads.len()];
        let mut schedule = Vec::new();
        let mut schedules_run = 0usize;
        recurse(threads, &mut progress, &mut schedule, &mut |schedule| {
            schedules_run += 1;
            // Replay this interleaving against a fresh cache.
            let cache = ShardedCache::new(8, 4);
            let mut state = ScheduleState::default();
            let mut cursors = vec![0usize; threads.len()];
            for &thread in schedule {
                let step = threads[thread][cursors[thread]];
                cursors[thread] += 1;
                step(thread, &cache, &mut state);
            }
            check(&cache, &state, schedule);
        });
        assert!(
            schedules_run > 1,
            "the exploration must enumerate schedules"
        );
    }

    #[test]
    fn all_publish_publish_read_interleavings_converge() {
        // Two publishers racing on the same key (with different payloads, so
        // a wrong winner is detectable) plus one reader. In EVERY
        // interleaving: exactly one publisher wins; both publishers hold the
        // winner's value afterwards; the reader sees either nothing (ran
        // before any publish) or the winner's value — never a torn or
        // superseded one; and the final resident value is the winner's.
        fn read(_: usize, cache: &ShardedCache<u64, Arc<u64>>, state: &mut ScheduleState) {
            state.read = Some(cache.get(&42).map(|v| *v));
        }
        fn publish_100(t: usize, c: &ShardedCache<u64, Arc<u64>>, s: &mut ScheduleState) {
            publisher_impl(t, c, s, 100)
        }
        fn publish_200(t: usize, c: &ShardedCache<u64, Arc<u64>>, s: &mut ScheduleState) {
            publisher_impl(t, c, s, 200)
        }
        fn publisher_impl(
            thread: usize,
            cache: &ShardedCache<u64, Arc<u64>>,
            state: &mut ScheduleState,
            value: u64,
        ) {
            let (adopted, won) = cache.publish(42, Arc::new(value));
            state.adopted.push((thread, *adopted, won));
        }
        explore(
            &[vec![publish_100], vec![publish_200], vec![read]],
            |cache, state, schedule| {
                let winners: Vec<_> = state.adopted.iter().filter(|(_, _, won)| *won).collect();
                assert_eq!(winners.len(), 1, "exactly one winner in {schedule:?}");
                let winning_value = winners[0].1;
                for (thread, adopted, _) in &state.adopted {
                    assert_eq!(
                        *adopted, winning_value,
                        "thread {thread} must adopt the winner in {schedule:?}"
                    );
                }
                let resident = cache.get(&42).map(|v| *v);
                assert_eq!(resident, Some(winning_value), "in {schedule:?}");
                match state.read.expect("reader ran in every complete schedule") {
                    None => {} // read before any publish: a miss, fine
                    Some(seen) => assert_eq!(
                        seen, winning_value,
                        "reader must never see a non-winning value in {schedule:?}"
                    ),
                }
            },
        );
    }

    #[test]
    fn all_publish_evict_read_interleavings_are_safe() {
        // One publisher on key 1, one evictor draining key 1, one reader.
        // In every interleaving the reader sees the published value or
        // nothing; a drained cache never resurrects the value; and the
        // ledger stays consistent (len matches residency).
        fn publish(_: usize, cache: &ShardedCache<u64, Arc<u64>>, state: &mut ScheduleState) {
            let (v, won) = cache.publish(1, Arc::new(7));
            state.adopted.push((0, *v, won));
        }
        fn evict(_: usize, cache: &ShardedCache<u64, Arc<u64>>, _: &mut ScheduleState) {
            let _ = cache.drain_matching(|k| *k == 1);
        }
        fn read(_: usize, cache: &ShardedCache<u64, Arc<u64>>, state: &mut ScheduleState) {
            state.read = Some(cache.get(&1).map(|v| *v));
        }
        explore(
            &[vec![publish], vec![evict], vec![read]],
            |cache, state, schedule| {
                match state.read.expect("reader ran") {
                    None => {}
                    Some(seen) => assert_eq!(seen, 7, "only the published value in {schedule:?}"),
                }
                let resident = cache.get(&1).map(|v| *v);
                assert!(
                    resident.is_none() || resident == Some(7),
                    "resident value must be the published one in {schedule:?}"
                );
                assert_eq!(
                    cache.len(),
                    usize::from(resident.is_some()),
                    "ledger/len consistency in {schedule:?}"
                );
            },
        );
    }
}
