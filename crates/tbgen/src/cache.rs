//! The content-addressed simulation cache.
//!
//! Everything in the reproduction that "runs a testbench" — the
//! validator's RS-matrix rows, AutoEval's Eval1/Eval2 reports, the final
//! verdicts — funnels through [`crate::EvalSession::run`], and the
//! same `(DUT, driver, checker)` triple recurs constantly: every
//! repetition of a problem re-simulates the golden testbench against
//! the same ten Eval2 mutants, and validator RTL groups resample the
//! same low-mutation designs again and again.
//!
//! A [`SimCache`] memoizes those runs under a [`CacheKey`]: the
//! fingerprints of the DUT, the driver, the checker program and the
//! module interface, plus the two counts of the scenario schedule that
//! a run reads. A testbench run is a pure function of that key, so a
//! hit is byte-identical to a recomputation and caching never changes
//! results — only wall time.
//!
//! Sessions find the cache in the [`EvalContext`](crate::EvalContext)
//! they are built with. One `Arc<SimCache>` shared by all workers
//! memoizes across jobs; threads synchronize only on short shard locks.

use crate::memo::{Memo, MemoKey};
use crate::runner::{TbError, TbRun};
use correctbench_obs::Counter;
use correctbench_verilog::hash::Fingerprint;

/// The content address of one simulation: everything a testbench run
/// reads.
///
/// A run simulates the DUT against the driver, which carries every
/// stimulus, and judges the records with the checker against the module
/// interface (problem name and ports). Of the scenario schedule it
/// reads only two counts: [`limits_for`](crate::limits_for) sizes the
/// run from `num_scenarios` and `total_stimuli`, and judging sizes the
/// verdict vector from `num_scenarios`. If a run ever reads more of its
/// schedule, this key must grow with it.
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
    /// [`ScenarioSet::len`](crate::ScenarioSet::len) of the schedule.
    pub num_scenarios: usize,
    /// [`ScenarioSet::total_stimuli`](crate::ScenarioSet::total_stimuli)
    /// of the schedule.
    pub total_stimuli: usize,
    /// [`fingerprint`](correctbench_verilog::fingerprint) of the
    /// problem's `(name, ports)`: what judging consults beyond the
    /// artifacts.
    pub problem: Fingerprint,
}

impl MemoKey for CacheKey {
    const SHARDS: usize = 16;
    /// Most validator RS-matrix rows simulate a freshly-generated RTL
    /// whose key never recurs; the bound keeps those single-use entries
    /// (each a per-scenario verdict vector) from growing the cache for
    /// the whole run, while the hit-producing entries — golden-testbench
    /// / Eval2 repeats — are revisited and therefore survive eviction.
    const MAX_ENTRIES_PER_SHARD: usize = 2048;
    const HITS: Counter = Counter::SimCacheHits;
    const MISSES: Counter = Counter::SimCacheMisses;
}

/// A sharded, thread-safe, bounded memo table for testbench runs.
pub type SimCache = Memo<CacheKey, Result<TbRun, TbError>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ScenarioResult;

    fn dummy_run() -> Result<TbRun, TbError> {
        Ok(TbRun {
            results: vec![ScenarioResult::Pass],
        })
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            dut: Fingerprint(n),
            driver: Fingerprint(n ^ 1),
            checker: Fingerprint(n ^ 2),
            num_scenarios: 3,
            total_stimuli: 12,
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
        let bound = CacheKey::SHARDS * CacheKey::MAX_ENTRIES_PER_SHARD;
        let flood = (bound + 4096) as u64;
        for n in 0..flood {
            cache.put(key(n), dummy_run());
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= bound as u64,
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
        let ctx = crate::EvalContext::cached();
        let cache = ctx.sim.as_ref().expect("sim layer");
        let run = |dut| EvalSession::new(&p, &checker, &ctx)?.run(dut, &driver, &scenarios);
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

    /// The key holds the schedule's shape, not its stimuli, which are in
    /// the driver: a second schedule of the same shape under the same
    /// driver is a hit, and each run equals the reference under its own
    /// schedule.
    #[test]
    fn schedules_of_one_shape_share_entries_under_one_driver() {
        use crate::driver::generate_driver;
        use crate::scenarios::generate_scenarios;
        use crate::{reference_run, EvalSession};
        use rand::SeedableRng;

        let p = correctbench_dataset::problem("alu_8").expect("problem");
        let first = generate_scenarios(&p, 1);
        let second = generate_scenarios(&p, 2);
        assert_ne!(first, second, "the schedules must differ in their stimuli");
        assert_eq!(
            (first.len(), first.total_stimuli()),
            (second.len(), second.total_stimuli()),
            "the schedules must share their shape"
        );
        let driver =
            correctbench_verilog::parse(&generate_driver(&p, &first)).expect("driver parses");
        let checker =
            correctbench_checker::compile_module(&p.golden_module()).expect("golden checker");
        let golden = correctbench_verilog::parse(&p.golden_rtl).expect("golden parses");
        let mut mutant = golden.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        correctbench_verilog::mutate::mutate_module(
            mutant.module_mut(&p.name).expect("module"),
            &mut rng,
            2,
        );
        let duts = [golden, mutant];

        let ctx = crate::EvalContext::cached();
        let cache = ctx.sim.as_ref().expect("sim layer");
        let mut session = EvalSession::new(&p, &checker, &ctx).expect("session");
        for (pass, scenarios) in [&first, &second].into_iter().enumerate() {
            let runs = session.sweep_mutants(&duts, &driver, scenarios);
            for (dut, run) in duts.iter().zip(runs) {
                assert_eq!(
                    run,
                    reference_run(dut, &driver, &checker, &p, scenarios),
                    "pass {pass}: the session must equal the reference"
                );
            }
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.entries),
            (2, 2, 2),
            "the second schedule must hit the first one's entries"
        );
    }

    /// A literal fingerprint of a fixed module interface, the key's
    /// `problem` component. `PortSpec`'s derived `Hash` is part of every
    /// stored cell's job key too, so a drift in the derive order, std's
    /// `Hash` impls or the hasher's integer widths must fail here rather
    /// than silently orphan every cell.
    #[test]
    fn encoding_vector_of_a_module_interface() {
        use correctbench_dataset::PortSpec;
        let name = "inc".to_string();
        let ports = vec![PortSpec::input("a", 4), PortSpec::output("y", 4)];
        assert_eq!(
            correctbench_verilog::fingerprint(&(&name, &ports)),
            Fingerprint(0xdcba_18c6_1a5a_c99b)
        );
    }
}
