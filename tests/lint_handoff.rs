//! The worker's lint pass reads parses it is handed instead of parsing
//! the golden DUT and the candidate driver joined into one text. The AST
//! carries no positions, so linting the two parses as one file must give
//! exactly the report of the joined text — pinned here for every
//! problem, on clean, scenario-dropping and syntax-damaged drivers, and
//! on drivers whose stimulus register is wider than the DUT port it
//! drives (a finding only an instance resolved across the two parses
//! can raise).

use correctbench_suite::dataset::all_problems;
use correctbench_suite::llm::{
    LlmClient, LlmRequest, LlmResponse, ModelKind, ModelProfile, SimulatedLlm,
};
use correctbench_suite::tbgen::{generate_driver, generate_scenarios, Driver, TB_MODULE};
use correctbench_suite::verilog::corrupt::corrupt_source;
use correctbench_suite::verilog::{lint_file, lint_files, parse, Rule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `text` with its first stimulus register declared one bit wider, so
/// the DUT connection truncates it.
fn widen_first_input(text: &str) -> String {
    let mut done = false;
    text.lines()
        .map(|line| {
            let Some(rest) = line.strip_prefix("    reg ") else {
                return line.to_string();
            };
            if done || rest == "clk;" {
                return line.to_string();
            }
            done = true;
            match rest
                .strip_prefix('[')
                .and_then(|r| r.split_once(":0] "))
                .and_then(|(msb, name)| Some((msb.parse::<u32>().ok()?, name)))
            {
                Some((msb, name)) => format!("    reg [{}:0] {name}", msb + 1),
                None => format!("    reg [1:0] {rest}"),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn linting_handed_parses_equals_linting_the_joined_text() {
    let problems = all_problems();
    assert_eq!(problems.len(), 156);
    // A model that always drops one or two scenario stanzas (when the
    // set has three or more) and never breaks syntax.
    let mut dropper = SimulatedLlm::new(
        ModelProfile {
            scenario_drop_rate: 1.0,
            driver_syntax_error_rate: 0.0,
            ..ModelProfile::for_model(ModelKind::Gpt4o)
        },
        0xd209,
    );
    let mut rng = StdRng::seed_from_u64(0x11a7);
    let (mut parsing, mut broken, mut dropped, mut truncating) = (0, 0, 0, 0);
    for p in &problems {
        let golden = parse(&p.golden_rtl).expect("golden parses");
        let scenarios = generate_scenarios(p, 0x5eed);
        let clean = generate_driver(p, &scenarios);
        let LlmResponse::Source(missing) = dropper.request(&LlmRequest::GenerateDriver {
            problem: p,
            scenarios: &scenarios,
        }) else {
            panic!("driver request returned another response kind");
        };
        dropped += usize::from(missing != clean);
        let cases = [
            ("clean", clean.clone()),
            ("scenario dropped", missing),
            ("corrupted", corrupt_source(&clean, &mut rng)),
            ("corrupted again", corrupt_source(&clean, &mut rng)),
            ("input widened", widen_first_input(&clean)),
        ];
        for (what, text) in cases {
            let joined = parse(&format!("{}\n{}", p.golden_rtl, text));
            let driver = Driver::new(text);
            assert_eq!(
                joined.is_ok(),
                driver.parsed().is_some(),
                "{} ({what}): the joined text must fail to parse exactly when the driver does",
                p.name
            );
            let Some(parsed) = driver.parsed() else {
                broken += 1;
                continue;
            };
            parsing += 1;
            let joined = joined.expect("checked above");
            let report = lint_files(&[&golden, parsed]);
            assert_eq!(
                report,
                lint_file(&joined),
                "{} ({what}): lint report differs",
                p.name
            );
            truncating += usize::from(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.rule == Rule::WidthMismatch && d.module == TB_MODULE),
            );
        }
    }
    // Every kind of case is represented.
    assert!(dropped > 100, "only {dropped} drivers lost a scenario");
    assert!(
        broken > 100,
        "only {broken} damaged drivers failed to parse"
    );
    assert!(
        parsing > 2 * problems.len(),
        "only {parsing} drivers parsed"
    );
    assert_eq!(truncating, problems.len(), "every widened input truncates");
}
