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
//! under a [`GoldenKey`]: the problem's full-content fingerprint plus
//! the evaluation seed. The harness
//! hands every cell of a problem the *same* eval seed, so only the
//! first cell pays the derivation. Derivation itself lives upstream in
//! `correctbench_autoeval` (it owns the generators); this module holds
//! the key and the bundle. The container is the same [`Memo`] as the
//! simulation cache's, and evaluation finds it in the
//! [`EvalContext`](crate::EvalContext).

use crate::driver::Driver;
use crate::memo::{Memo, MemoKey};
use crate::scenarios::ScenarioSet;
use correctbench_checker::CheckerProgram;
use correctbench_dataset::Problem;
use correctbench_obs::Counter;
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::hash::{fingerprint, Fingerprint};
use std::sync::Arc;

/// The identity of one derivation: everything the golden fixtures are a
/// function of.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GoldenKey {
    /// [`fingerprint`] of the whole problem: the same full-content
    /// identity the persistent store keys on, so two problems share an
    /// entry only when they are equal.
    pub problem: Fingerprint,
    /// The evaluation seed (fixes the golden scenario set and the Eval2
    /// mutant set).
    pub seed: u64,
}

impl GoldenKey {
    /// The key for one `(problem, eval seed)` pair.
    pub fn for_eval(problem: &Problem, seed: u64) -> GoldenKey {
        GoldenKey {
            problem: fingerprint(problem),
            seed,
        }
    }
}

impl MemoKey for GoldenKey {
    /// The key space is one entry per dataset problem — tiny next to the
    /// simulation cache's — so fewer shards suffice.
    const SHARDS: usize = 8;
    /// A bundle holds a dozen parsed files, so the global bound (512)
    /// comfortably covers the full 156-problem dataset with room for
    /// multi-seed sweeps.
    const MAX_ENTRIES_PER_SHARD: usize = 64;
    const HITS: Counter = Counter::GoldenHits;
    const MISSES: Counter = Counter::GoldenMisses;
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
    /// The golden driver and its parse (derivation verifies it parses).
    pub driver: Driver,
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

/// A sharded, thread-safe, bounded memo table for golden-artifact
/// bundles.
pub type GoldenCache = Memo<GoldenKey, Arc<GoldenArtifacts>>;

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
        Arc::new(GoldenArtifacts {
            dut: parse(&p.golden_rtl).expect("golden parses"),
            driver: Driver::new(generate_driver(&p, &scenarios)),
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

    /// The key's problem component is the full-content fingerprint: it
    /// separates an edit to any one field of a problem, and all 156
    /// dataset problems. The destructuring stops compiling when a field
    /// is added, so a new field gets an edit here too.
    #[test]
    fn golden_key_separates_every_problem_field() {
        use correctbench_dataset::{CircuitKind, Difficulty, PortDir};
        let a = correctbench_dataset::problem("and_8").expect("problem");
        let Problem {
            name: _,
            kind: _,
            spec: _,
            golden_rtl: _,
            ports: _,
            difficulty: _,
            scenario_spec: _,
            lint_allow: _,
        } = &a;
        type Edit = fn(&mut Problem);
        let edits: [(&str, Edit); 12] = [
            ("name", |p| p.name.push('x')),
            ("kind", |p| {
                p.kind = match p.kind {
                    CircuitKind::Combinational => CircuitKind::Sequential,
                    CircuitKind::Sequential => CircuitKind::Combinational,
                }
            }),
            ("spec", |p| p.spec.push('.')),
            ("golden_rtl", |p| p.golden_rtl.push('\n')),
            ("port name", |p| p.ports[0].name.push('x')),
            ("port width", |p| p.ports[0].width += 1),
            ("port direction", |p| {
                p.ports[0].dir = match p.ports[0].dir {
                    PortDir::Input => PortDir::Output,
                    PortDir::Output => PortDir::Input,
                }
            }),
            ("port list", |p| {
                p.ports.pop();
            }),
            ("difficulty", |p| {
                p.difficulty = match p.difficulty {
                    Difficulty::Hard => Difficulty::Easy,
                    _ => Difficulty::Hard,
                }
            }),
            ("scenarios", |p| p.scenario_spec.scenarios += 1),
            ("stimuli per scenario", |p| {
                p.scenario_spec.stimuli_per_scenario += 1
            }),
            ("lint_allow", |p| {
                p.lint_allow.push("unused-signal:x".into())
            }),
        ];
        let mut seen = std::collections::HashMap::new();
        seen.insert(GoldenKey::for_eval(&a, 1), "unedited");
        assert_eq!(
            GoldenKey::for_eval(&a.clone(), 1),
            GoldenKey::for_eval(&a, 1)
        );
        for (field, edit) in edits {
            let mut p = a.clone();
            edit(&mut p);
            assert_ne!(p, a, "the {field} edit changed nothing");
            let key = GoldenKey::for_eval(&p, 1);
            assert_eq!(key.problem, fingerprint(&p));
            if let Some(other) = seen.insert(key, field) {
                panic!("the {field} edit keys like the {other} edit");
            }
        }
        // All 156 problems get distinct keys.
        let all = correctbench_dataset::all_problems();
        let mut seen = std::collections::HashSet::new();
        for p in &all {
            assert!(seen.insert(fingerprint(p)), "{} collides", p.name);
        }
        assert_eq!(seen.len(), 156);
    }

    #[test]
    fn eviction_bounds_entries_and_keeps_hot_keys() {
        let cache = GoldenCache::new();
        let hot = bundle("and_8", 1);
        cache.put(key(u64::MAX), Arc::clone(&hot));
        assert!(cache.get(&key(u64::MAX)).is_some());
        let cold = bundle("and_8", 2);
        let bound = GoldenKey::SHARDS * GoldenKey::MAX_ENTRIES_PER_SHARD;
        let flood = (bound + 64) as u64;
        for n in 0..flood {
            cache.put(key(n), Arc::clone(&cold));
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= bound as u64,
            "cache exceeded its bound: {stats}"
        );
        assert!(cache.get(&key(u64::MAX)).is_some(), "hot key was evicted");
    }
}
