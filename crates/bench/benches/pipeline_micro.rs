//! Criterion micro-benchmarks of the substrate hot paths: event
//! simulation of one golden testbench run, checker-IR stepping, RS-matrix
//! construction, and one full CorrectBench pipeline iteration.

use correctbench::{build_rs_matrix, generate_rtl_group, Config, HybridTb};
use correctbench_checker::{compile_module, step, CheckerState};
use correctbench_llm::{CheckerArtifact, ModelKind, ModelProfile, SimulatedLlm};
use correctbench_tbgen::{generate_driver, generate_scenarios, run_testbench, Driver};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;

fn bench_simulation(c: &mut Criterion) {
    let problem = correctbench_dataset::problem("alu_8").expect("problem");
    let scenarios = generate_scenarios(&problem, 7);
    let driver = generate_driver(&problem, &scenarios);
    let checker = compile_module(&problem.golden_module()).expect("checker");
    c.bench_function("golden_tb_run_alu8", |b| {
        b.iter(|| {
            run_testbench(&problem.golden_rtl, &driver, &checker, &problem, &scenarios)
                .expect("run")
        })
    });

    let seqp = correctbench_dataset::problem("shift18").expect("problem");
    let seq_scen = generate_scenarios(&seqp, 7);
    let seq_driver = generate_driver(&seqp, &seq_scen);
    let seq_checker = compile_module(&seqp.golden_module()).expect("checker");
    c.bench_function("golden_tb_run_shift18", |b| {
        b.iter(|| {
            run_testbench(
                &seqp.golden_rtl,
                &seq_driver,
                &seq_checker,
                &seqp,
                &seq_scen,
            )
            .expect("run")
        })
    });
}

fn bench_checker_step(c: &mut Criterion) {
    let problem = correctbench_dataset::problem("bcd_counter_8").expect("problem");
    let checker = compile_module(&problem.golden_module()).expect("checker");
    let mut inputs = HashMap::new();
    inputs.insert(
        "rst".to_string(),
        correctbench_verilog::LogicVec::from_u64(1, 0),
    );
    c.bench_function("checker_step_bcd_counter", |b| {
        let mut state = CheckerState::new(&checker);
        b.iter(|| step(&checker, &mut state, &inputs).expect("step"))
    });
}

fn bench_rs_matrix(c: &mut Criterion) {
    let problem = correctbench_dataset::problem("counter_8").expect("problem");
    let cfg = Config::default();
    let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 3);
    let rtls = generate_rtl_group(&problem, &mut llm, &cfg);
    let scenarios = generate_scenarios(&problem, 3);
    let driver = Driver::new(generate_driver(&problem, &scenarios));
    let tb = HybridTb {
        scenarios,
        driver,
        checker: CheckerArtifact::clean(compile_module(&problem.golden_module()).expect("checker")),
    };
    c.bench_function("rs_matrix_counter8_20rtls", |b| {
        b.iter(|| build_rs_matrix(&problem, &tb, &rtls))
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    use rand::SeedableRng;
    let problem = correctbench_dataset::problem("mux4_8").expect("problem");
    let cfg = Config::default();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("correctbench_mux4_8", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), seed);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            correctbench::run_correctbench(&problem, &mut llm, &cfg, &mut rng)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_checker_step,
    bench_rs_matrix,
    bench_full_pipeline
);
criterion_main!(benches);
