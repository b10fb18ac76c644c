//! The golden-artifact cache: per-problem evaluation fixtures, derived
//! once.
//!
//! AutoEval judges every candidate testbench against fixtures that are a
//! pure function of `(problem, eval seed)`: the parsed golden DUT, the
//! generated-and-parsed golden testbench, and the parsed Eval2 mutant
//! set with its static pre-screen already applied. Without a cache,
//! each `(method, rep)` cell of a problem re-derives all of those
//! fixtures from scratch, re-parsing the golden RTL and regenerating ten
//! mutants that the previous cell had just thrown away.
//!
//! A [`GoldenCache`] memoizes the derived [`GoldenArtifacts`] bundle
//! under a [`GoldenKey`]: the structural fingerprint of the problem's
//! derivation-relevant fields plus the evaluation seed. The harness
//! hands every cell of a problem the *same* eval seed, so only the
//! first cell pays the derivation. Derivation itself lives upstream in
//! `correctbench_autoeval` (it owns the generators); this module holds
//! the container, following the shape of the sibling layers: sharded,
//! bounded, never-hit-first eviction, installed per worker thread
//! through the [`CacheStack`](crate::CacheStack).

use crate::cache::CacheStats;
use crate::install;
use crate::scenarios::ScenarioSet;
use correctbench_checker::CheckerProgram;
use correctbench_dataset::Problem;
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::{Fingerprint, FingerprintHasher, StructuralHash};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently-locked shards (power of two). The key space
/// is one entry per dataset problem — tiny next to the artifact caches
/// — so fewer shards suffice.
const SHARDS: usize = 8;

/// Maximum entries one shard holds before cold entries are evicted. A
/// bundle holds a dozen parsed files, so the global bound
/// (`SHARDS * MAX_ENTRIES_PER_SHARD` = 512) comfortably covers the full
/// 156-problem dataset with room for multi-seed sweeps.
pub const MAX_ENTRIES_PER_SHARD: usize = 64;

/// The identity of one derivation: everything the golden fixtures are a
/// function of.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GoldenKey {
    /// [`problem_fingerprint`] of the problem.
    pub problem: Fingerprint,
    /// The evaluation seed (fixes the golden scenario set and the Eval2
    /// mutant set).
    pub seed: u64,
}

impl GoldenKey {
    /// The key for one `(problem, eval seed)` pair.
    pub fn for_eval(problem: &Problem, seed: u64) -> GoldenKey {
        GoldenKey {
            problem: problem_fingerprint(problem),
            seed,
        }
    }

    fn shard(&self) -> usize {
        (self.problem.0.wrapping_mul(31).wrapping_add(self.seed)) as usize & (SHARDS - 1)
    }
}

/// A visitor fingerprint of every problem field the golden derivation
/// reads: name (module lookup), circuit kind (scenario shape), golden
/// RTL source (DUT, checker, mutant base), port list (driver and record
/// formats) and scenario sizing. Two problems that agree on all of these
/// derive byte-identical fixtures, so sharing a cache entry is sound.
pub fn problem_fingerprint(problem: &Problem) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str(&problem.name);
    h.write_bool(problem.kind.is_combinational());
    h.write_str(&problem.golden_rtl);
    problem.ports.hash_structure(&mut h);
    h.write_usize(problem.scenario_spec.scenarios);
    h.write_usize(problem.scenario_spec.stimuli_per_scenario);
    h.finish()
}

/// The derived evaluation fixtures for one `(problem, eval seed)` pair —
/// everything `correctbench_autoeval::evaluate` and the validator's
/// RS-matrix consult that does not depend on the candidate testbench.
/// Immutable once derived; consumers share it behind an [`Arc`].
#[derive(Clone, Debug)]
pub struct GoldenArtifacts {
    /// The golden RTL, parsed.
    pub dut: SourceFile,
    /// The golden testbench's scenario set.
    pub scenarios: ScenarioSet,
    /// The golden driver source (kept alongside its parse — harness
    /// artifacts and Eval0 checks read the text).
    pub driver_src: String,
    /// The golden driver, parsed.
    pub driver: SourceFile,
    /// The golden checker program.
    pub checker: CheckerProgram,
    /// The Eval2 mutants the static pre-screen cannot tell apart from
    /// the golden DUT, parsed — the ones Eval2 simulates (only
    /// parseable mutants; derivation already verifies each parses and
    /// elaborates).
    pub mutants: Vec<SourceFile>,
    /// How many parseable Eval2 mutants the static pre-screen tells
    /// apart from the golden DUT (their lint signatures differ). Eval2
    /// counts each as an agreement without simulating it.
    pub statically_distinguished: usize,
}

struct Entry {
    value: Arc<GoldenArtifacts>,
    hits: u32,
}

/// A sharded, thread-safe, bounded memo table for golden-artifact
/// bundles.
pub struct GoldenCache {
    shards: Vec<Mutex<HashMap<GoldenKey, Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl GoldenCache {
    /// An empty cache, ready to share across worker threads.
    pub fn new() -> Arc<GoldenCache> {
        Arc::new(GoldenCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Looks up a bundle, counting a hit or a miss.
    pub fn get(&self, key: &GoldenKey) -> Option<Arc<GoldenArtifacts>> {
        let found = self.shards[key.shard()]
            .lock()
            .expect("golden cache shard poisoned")
            .get_mut(key)
            .map(|e| {
                e.hits += 1;
                Arc::clone(&e.value)
            });
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                correctbench_obs::add(correctbench_obs::Counter::GoldenHits, 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                correctbench_obs::add(correctbench_obs::Counter::GoldenMisses, 1);
            }
        };
        found
    }

    /// Stores a bundle. A full shard first evicts a never-hit entry (or,
    /// when every entry has hits, an arbitrary one), so memory stays
    /// bounded at `SHARDS * MAX_ENTRIES_PER_SHARD` entries. When two
    /// workers race the same derivation, last-write-wins is sound: the
    /// bundle is a pure function of the key.
    pub fn put(&self, key: GoldenKey, value: Arc<GoldenArtifacts>) {
        let mut shard = self.shards[key.shard()]
            .lock()
            .expect("golden cache shard poisoned");
        if shard.len() >= MAX_ENTRIES_PER_SHARD && !shard.contains_key(&key) {
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
                .map(|s| s.lock().expect("golden cache shard poisoned").len() as u64)
                .sum(),
        }
    }

    /// Makes `self` the active golden cache of the *current thread* until
    /// the returned guard drops — a thin shim over
    /// [`CacheStack`](crate::CacheStack), which is the preferred way to
    /// install a full layer set.
    pub fn install(self: &Arc<Self>) -> GoldenCacheGuard {
        crate::CacheStack::empty()
            .with_golden_cache(Arc::clone(self))
            .install()
    }
}

/// Runs `f` with the thread's active golden cache, if one is installed.
pub fn with_active<R>(f: impl FnOnce(&GoldenCache) -> R) -> Option<R> {
    install::with_active(&install::GOLDEN, f)
}

/// The thread's active golden cache itself, if one is installed —
/// derivation sites hold it across the get/derive/put sequence.
pub fn active() -> Option<Arc<GoldenCache>> {
    install::active(&install::GOLDEN)
}

/// Re-activates the previous cache (usually none) when dropped.
pub type GoldenCacheGuard = crate::install::StackGuard;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::generate_driver;
    use crate::scenarios::generate_scenarios;
    use correctbench_checker::compile_module;
    use correctbench_verilog::parse;

    fn bundle(name: &str, seed: u64) -> Arc<GoldenArtifacts> {
        let p = correctbench_dataset::problem(name).expect("problem");
        let scenarios = generate_scenarios(&p, seed);
        let driver_src = generate_driver(&p, &scenarios);
        Arc::new(GoldenArtifacts {
            dut: parse(&p.golden_rtl).expect("golden parses"),
            driver: parse(&driver_src).expect("driver parses"),
            driver_src,
            scenarios,
            checker: compile_module(&p.golden_module()).expect("checker"),
            mutants: Vec::new(),
            statically_distinguished: 0,
        })
    }

    fn key(n: u64) -> GoldenKey {
        GoldenKey {
            problem: Fingerprint(n),
            seed: n ^ 1,
        }
    }

    #[test]
    fn get_put_and_stats() {
        let cache = GoldenCache::new();
        assert!(cache.get(&key(1)).is_none());
        let b = bundle("and_8", 3);
        cache.put(key(1), Arc::clone(&b));
        let hit = cache.get(&key(1)).expect("hit");
        assert!(Arc::ptr_eq(&hit, &b), "hit shares the stored bundle");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn problem_fingerprint_separates_derivation_inputs() {
        let a = correctbench_dataset::problem("and_8").expect("problem");
        assert_eq!(problem_fingerprint(&a), problem_fingerprint(&a.clone()));
        let mut renamed = a.clone();
        renamed.name.push('x');
        assert_ne!(problem_fingerprint(&a), problem_fingerprint(&renamed));
        let mut resized = a.clone();
        resized.scenario_spec.scenarios += 1;
        assert_ne!(problem_fingerprint(&a), problem_fingerprint(&resized));
        let mut rewired = a.clone();
        rewired.golden_rtl.push('\n');
        assert_ne!(problem_fingerprint(&a), problem_fingerprint(&rewired));
        // All 156 problems get distinct keys.
        let all = correctbench_dataset::all_problems();
        let mut seen = std::collections::HashSet::new();
        for p in &all {
            assert!(seen.insert(problem_fingerprint(p)), "{} collides", p.name);
        }
    }

    #[test]
    fn eviction_bounds_entries_and_keeps_hot_keys() {
        let cache = GoldenCache::new();
        let hot = bundle("and_8", 1);
        cache.put(key(u64::MAX), Arc::clone(&hot));
        assert!(cache.get(&key(u64::MAX)).is_some());
        let cold = bundle("and_8", 2);
        let flood = (SHARDS * MAX_ENTRIES_PER_SHARD + 64) as u64;
        for n in 0..flood {
            cache.put(key(n), Arc::clone(&cold));
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= (SHARDS * MAX_ENTRIES_PER_SHARD) as u64,
            "cache exceeded its bound: {stats}"
        );
        assert!(cache.get(&key(u64::MAX)).is_some(), "hot key was evicted");
    }

    #[test]
    fn install_is_scoped_and_nested() {
        let outer = GoldenCache::new();
        let inner = GoldenCache::new();
        assert!(with_active(|_| ()).is_none());
        {
            let _g1 = outer.install();
            with_active(|c| c.put(key(7), bundle("and_8", 7))).expect("outer active");
            {
                let _g2 = inner.install();
                assert!(!with_active(|c| c.get(&key(7)).is_some()).expect("inner active"));
            }
            assert!(with_active(|c| c.get(&key(7)).is_some()).expect("outer restored"));
        }
        assert!(with_active(|_| ()).is_none());
    }
}
