//! Criterion micro-benchmarks of the simulator execution core:
//! tree-walking interpretation vs. compile-once bytecode on
//! representative combinational (`alu_8`) and sequential (`shift18`)
//! testbench runs, plus the per-run elaboration cost the elaboration
//! cache removes. The `bench_sim` binary emits the machine-readable
//! `BENCH_sim.json` from the same workload.

use correctbench_tbgen::{compile_pair, generate_driver, generate_scenarios, limits_for};
use correctbench_verilog::ast::SourceFile;
use correctbench_verilog::{CompiledDesign, ExecMode, Simulator};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

struct Prepared {
    name: &'static str,
    compiled: CompiledDesign,
    dut: SourceFile,
    driver: SourceFile,
    limits: correctbench_verilog::SimLimits,
}

fn prepare(name: &'static str) -> Prepared {
    let problem = correctbench_dataset::problem(name).expect("problem");
    let scenarios = generate_scenarios(&problem, 7);
    let driver =
        correctbench_verilog::parse(&generate_driver(&problem, &scenarios)).expect("driver");
    let dut = correctbench_verilog::parse(&problem.golden_rtl).expect("golden");
    let compiled = compile_pair(&dut, &driver).expect("elaborate");
    Prepared {
        name,
        compiled,
        dut,
        driver,
        limits: limits_for(&scenarios),
    }
}

fn bench_exec_modes(c: &mut Criterion) {
    for p in [prepare("alu_8"), prepare("shift18")] {
        c.bench_function(&format!("sim_tree_walk_{}", p.name), |b| {
            b.iter(|| {
                black_box(
                    Simulator::from_compiled_with_limits(&p.compiled, p.limits)
                        .with_mode(ExecMode::TreeWalk)
                        .run()
                        .expect("run"),
                )
            })
        });
        c.bench_function(&format!("sim_bytecode_{}", p.name), |b| {
            b.iter(|| {
                black_box(
                    Simulator::from_compiled_with_limits(&p.compiled, p.limits)
                        .run()
                        .expect("run"),
                )
            })
        });
        // What an `EvalSession` design-memo hit saves.
        c.bench_function(&format!("elaborate_compile_{}", p.name), |b| {
            b.iter(|| black_box(compile_pair(&p.dut, &p.driver).expect("elaborate")))
        });
    }
}

criterion_group!(benches, bench_exec_modes);
criterion_main!(benches);
