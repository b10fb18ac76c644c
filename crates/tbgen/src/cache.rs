//! The content-addressed simulation cache.
//!
//! Everything in the reproduction that "runs a testbench" — the
//! validator's RS-matrix rows, AutoEval's Eval1/Eval2 reports, the final
//! verdicts — funnels through [`crate::EvalSession::run`], and the
//! same `(DUT, driver, checker, scenarios)` quadruple recurs constantly:
//! every repetition of a problem re-simulates the golden testbench
//! against the same ten Eval2 mutants, and validator RTL groups resample
//! the same low-mutation designs again and again.
//!
//! A [`SimCache`] memoizes those runs under a stable content key
//! ([`CacheKey`]): the structural hashes of the elaboratable DUT source,
//! the driver source, the checker program and the scenario set, plus the
//! problem's port signature (record judging reads port widths from it).
//! A testbench run is a pure function of that key, so a hit is
//! byte-identical to a recomputation and caching never changes results —
//! only wall time.
//!
//! The cache is *installed* per worker thread (see [`SimCache::install`])
//! rather than threaded through every call signature: the pipeline layers
//! between the harness and the runner (`correctbench::validate`,
//! `correctbench_autoeval::evaluate`) stay oblivious. One `Arc<SimCache>`
//! shared by all workers memoizes across jobs; threads synchronize only
//! on short shard locks.

use crate::runner::{TbError, TbRun};
use correctbench_verilog::hash::{Fingerprint, FingerprintHasher, StructuralHash};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::install;

/// Number of independently-locked shards (power of two).
const SHARDS: usize = 16;

/// The content address of one simulation: typed structural fingerprints
/// of the five inputs that determine a testbench run. Record judging
/// reads port widths from the problem, so the problem's port signature
/// is part of the content address alongside the four artifact
/// fingerprints.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// [`SourceFile::fingerprint`](correctbench_verilog::ast::SourceFile::fingerprint)
    /// of the DUT.
    pub dut: Fingerprint,
    /// [`SourceFile::fingerprint`](correctbench_verilog::ast::SourceFile::fingerprint)
    /// of the driver.
    pub driver: Fingerprint,
    /// [`CheckerProgram::fingerprint`](correctbench_checker::CheckerProgram::fingerprint)
    /// of the checker.
    pub checker: Fingerprint,
    /// [`ScenarioSet::fingerprint`](crate::ScenarioSet::fingerprint) of the
    /// scenario list.
    pub scenarios: Fingerprint,
    /// [`module_interface_fingerprint`] of the problem — what
    /// `judge_records` consults beyond the artifacts.
    pub problem: Fingerprint,
}

impl CacheKey {
    fn shard(&self) -> usize {
        // The components are already well-mixed FNV states.
        (self
            .dut
            .0
            .wrapping_mul(31)
            .wrapping_add(self.driver.0)
            .wrapping_mul(31)
            .wrapping_add(self.checker.0)
            .wrapping_mul(31)
            .wrapping_add(self.scenarios.0)
            .wrapping_mul(31)
            .wrapping_add(self.problem.0)) as usize
            & (SHARDS - 1)
    }
}

/// The module-interface component of a [`CacheKey`]: a visitor
/// fingerprint of the problem name plus its port list (names, widths,
/// directions) — everything record judging consults beyond the
/// artifacts. Takes the bare fields so sessions need not hold a whole
/// [`Problem`](correctbench_dataset::Problem).
pub fn module_interface_fingerprint(
    name: &str,
    ports: &[correctbench_dataset::PortSpec],
) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write_str(name);
    ports.hash_structure(&mut h);
    h.finish()
}

/// Point-in-time cache counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Runs answered from the cache.
    pub hits: u64,
    /// Runs that had to simulate.
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

/// Maximum entries one shard holds before cold entries are evicted.
/// Most validator RS-matrix rows simulate a freshly-generated RTL whose
/// key never recurs; the bound keeps those single-use entries (each a
/// per-scenario verdict vector) from growing the cache for the whole
/// run, while the hit-producing entries — golden-testbench / Eval2
/// repeats — are revisited and therefore survive eviction.
pub const MAX_ENTRIES_PER_SHARD: usize = 2048;

struct Entry {
    value: Result<TbRun, TbError>,
    hits: u32,
}

/// A sharded, thread-safe, bounded memo table for testbench runs.
pub struct SimCache {
    shards: Vec<Mutex<HashMap<CacheKey, Entry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SimCache {
    /// An empty cache, ready to share across worker threads.
    pub fn new() -> Arc<SimCache> {
        Arc::new(SimCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Looks up a run, counting a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Result<TbRun, TbError>> {
        let found = self.shards[key.shard()]
            .lock()
            .expect("sim cache shard poisoned")
            .get_mut(key)
            .map(|e| {
                e.hits += 1;
                e.value.clone()
            });
        match &found {
            Some(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                correctbench_obs::add(correctbench_obs::Counter::SimCacheHits, 1);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                correctbench_obs::add(correctbench_obs::Counter::SimCacheMisses, 1);
            }
        };
        found
    }

    /// Stores a run result. A full shard first evicts a never-hit entry
    /// (or, when every entry has hits, an arbitrary one), so memory stays
    /// bounded at `SHARDS * MAX_ENTRIES_PER_SHARD` entries.
    pub fn put(&self, key: CacheKey, value: Result<TbRun, TbError>) {
        let mut shard = self.shards[key.shard()]
            .lock()
            .expect("sim cache shard poisoned");
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
                .map(|s| s.lock().expect("sim cache shard poisoned").len() as u64)
                .sum(),
        }
    }

    /// Makes `self` the active cache of the *current thread* until the
    /// returned guard drops. [`crate::EvalSession::run`] consults the
    /// active cache transparently; nesting restores the previous cache.
    ///
    /// A thin shim over [`CacheStack`](crate::CacheStack), which is the
    /// preferred handle — it installs every layer under one guard.
    pub fn install(self: &Arc<Self>) -> CacheGuard {
        crate::CacheStack::empty()
            .with_sim_cache(Arc::clone(self))
            .install()
    }
}

/// Runs `f` with the thread's active cache, if one is installed. Mostly
/// internal — the runner consults it on every testbench run — but public
/// so harnesses can probe or prime the active cache directly.
pub fn with_active<R>(f: impl FnOnce(&SimCache) -> R) -> Option<R> {
    install::with_active(&install::SIM, f)
}

/// Re-activates the previous cache (usually none) when dropped.
pub type CacheGuard = install::StackGuard;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScenarioResult;

    fn dummy_run() -> Result<TbRun, TbError> {
        Ok(TbRun {
            results: vec![ScenarioResult::Pass],
            end_time: 10,
        })
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            dut: Fingerprint(n),
            driver: Fingerprint(n ^ 1),
            checker: Fingerprint(n ^ 2),
            scenarios: Fingerprint(n ^ 3),
            problem: Fingerprint(n ^ 4),
        }
    }

    #[test]
    fn eviction_bounds_entries_and_keeps_hot_keys() {
        let cache = SimCache::new();
        // A hot key, touched once so its hit counter is nonzero.
        cache.put(key(u64::MAX), dummy_run());
        assert!(cache.get(&key(u64::MAX)).is_some());
        // Flood with cold single-use keys well past the global bound.
        let flood = (SHARDS * MAX_ENTRIES_PER_SHARD + 4096) as u64;
        for n in 0..flood {
            cache.put(key(n), dummy_run());
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= (SHARDS * MAX_ENTRIES_PER_SHARD) as u64,
            "cache exceeded its bound: {stats}"
        );
        // The hot entry survived the flood of cold insertions.
        assert!(cache.get(&key(u64::MAX)).is_some(), "hot key was evicted");
    }

    #[test]
    fn get_put_and_stats() {
        let cache = SimCache::new();
        assert!(cache.get(&key(1)).is_none());
        cache.put(key(1), dummy_run());
        let hit = cache.get(&key(1)).expect("hit");
        assert!(hit.expect("ok").all_pass());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn repeated_design_tb_pair_hits_through_the_runner() {
        use crate::driver::generate_driver;
        use crate::scenarios::generate_scenarios;
        use crate::EvalSession;

        let p = correctbench_dataset::problem("and_8").expect("problem");
        let scenarios = generate_scenarios(&p, 7);
        let driver =
            correctbench_verilog::parse(&generate_driver(&p, &scenarios)).expect("driver parses");
        let dut = correctbench_verilog::parse(&p.golden_rtl).expect("golden parses");
        let checker =
            correctbench_checker::compile_module(&p.golden_module()).expect("golden checker");

        // A fresh session per run, so only the cache can link them.
        let run = |dut| EvalSession::new(&p, &checker)?.run(dut, &driver, &scenarios);
        let cache = SimCache::new();
        let _guard = cache.install();
        let first = run(&dut).expect("first run");
        let s1 = cache.stats();
        assert_eq!((s1.hits, s1.misses, s1.entries), (0, 1, 1));

        let second = run(&dut).expect("second run");
        let s2 = cache.stats();
        assert_eq!(
            (s2.hits, s2.misses, s2.entries),
            (1, 1, 1),
            "repeat must hit"
        );
        assert_eq!(first, second, "hit must replay the run");

        // A different DUT misses: the key is content-addressed.
        let other = correctbench_dataset::problem("or_8")
            .or_else(|| correctbench_dataset::problem("xor_8"))
            .or_else(|| correctbench_dataset::problem("adder_8"))
            .expect("another problem");
        let other_dut = correctbench_verilog::parse(&other.golden_rtl).expect("parses");
        let _ = run(&other_dut);
        let s3 = cache.stats();
        assert_eq!(s3.misses, 2, "different design must be a distinct entry");
    }

    #[test]
    fn install_is_scoped_and_nested() {
        let outer = SimCache::new();
        let inner = SimCache::new();
        assert!(with_active(|_| ()).is_none());
        {
            let _g1 = outer.install();
            with_active(|c| c.put(key(7), dummy_run())).expect("outer active");
            {
                let _g2 = inner.install();
                // A different cache is active: the outer entry is invisible.
                assert!(!with_active(|c| c.get(&key(7)).is_some()).expect("inner active"));
            }
            assert!(with_active(|c| c.get(&key(7)).is_some()).expect("outer restored"));
        }
        assert!(with_active(|_| ()).is_none());
    }
}
