//! The bounded memo table behind both reuse layers:
//! [`SimCache`](crate::SimCache) and [`GoldenCache`](crate::GoldenCache)
//! are one [`Memo`] each, at their own key type.
//!
//! A [`Memo`] is sharded (threads synchronize only on short shard
//! locks) and bounded: a full shard evicts a never-hit entry first, so
//! single-use entries cannot crowd out the revisited ones. Each lookup
//! counts a hit or a miss twice, in the table's own atomics and in the
//! job's obs collector. The key type fixes the shard count, the bound
//! and the obs counters ([`MemoKey`]); a key's shard is its
//! [`fingerprint`] masked to the shard count.

use correctbench_obs::Counter;
use correctbench_verilog::fingerprint;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A [`Memo`] key: the content address of one memoized value, plus the
/// shape of the table it keys.
pub trait MemoKey: Copy + Eq + Hash {
    /// Number of independently-locked shards (a power of two).
    const SHARDS: usize;
    /// Entries one shard holds before a put evicts, so the table holds
    /// at most `SHARDS * MAX_ENTRIES_PER_SHARD` entries.
    const MAX_ENTRIES_PER_SHARD: usize;
    /// The obs counter each hit adds to.
    const HITS: Counter;
    /// The obs counter each miss adds to.
    const MISSES: Counter;
}

/// Point-in-time table counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit ratio, {} entries)",
            self.hits,
            self.misses,
            self.hit_ratio() * 100.0,
            self.entries
        )
    }
}

struct Entry<V> {
    value: V,
    hits: u32,
}

/// A sharded, thread-safe, bounded memo table.
pub struct Memo<K, V> {
    shards: Vec<Mutex<HashMap<K, Entry<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: MemoKey, V: Clone> Memo<K, V> {
    /// An empty table, ready to share across worker threads.
    pub fn new() -> Arc<Self> {
        Arc::new(Memo {
            shards: (0..K::SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    fn shard(&self, key: &K) -> MutexGuard<'_, HashMap<K, Entry<V>>> {
        self.shards[fingerprint(key).0 as usize & (K::SHARDS - 1)]
            .lock()
            .expect("memo shard poisoned")
    }

    /// Looks up a value, counting a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self.shard(key).get_mut(key).map(|e| {
            e.hits += 1;
            e.value.clone()
        });
        let (count, counter) = match found {
            Some(_) => (&self.hits, K::HITS),
            None => (&self.misses, K::MISSES),
        };
        count.fetch_add(1, Ordering::Relaxed);
        correctbench_obs::add(counter, 1);
        found
    }

    /// Stores a value. A full shard first evicts a never-hit entry (or,
    /// when every entry has hits, an arbitrary one). When two workers
    /// race the same key, last-write-wins is sound: a memoized value is
    /// a pure function of its key.
    pub fn put(&self, key: K, value: V) {
        let mut shard = self.shard(&key);
        if shard.len() >= K::MAX_ENTRIES_PER_SHARD && !shard.contains_key(&key) {
            let victim = shard
                .iter()
                .find(|(_, e)| e.hits == 0)
                .or_else(|| shard.iter().next())
                .map(|(k, _)| *k);
            if let Some(victim) = victim {
                shard.remove(&victim);
            }
        }
        shard.insert(key, Entry { value, hits: 0 });
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().expect("memo shard poisoned").len() as u64)
                .sum(),
        }
    }
}
