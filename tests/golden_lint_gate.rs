//! The golden dataset is lint-clean at deny level — dataset-wide.
//!
//! Every golden DUT, and every golden DUT combined with its generated
//! testbench driver, must carry **zero** deny-level diagnostics after
//! the problem's allowlist is applied: a real defect in a golden design
//! would silently bias every method it evaluates. Intentional
//! warning-level findings are pinned too, so a new finding (or a lost
//! allowlist entry) shows up as a reviewed diff, not drift.

use correctbench_suite::dataset::all_problems;
use correctbench_suite::tbgen::{generate_driver, generate_scenarios};
use correctbench_suite::verilog::{lint_file, parse, Severity};

#[test]
fn golden_duts_and_testbenches_carry_no_deny_level_findings() {
    let problems = all_problems();
    assert_eq!(problems.len(), 156);
    let mut deny = Vec::new();
    let mut allowlisted = 0usize;
    for p in &problems {
        let scenarios = generate_scenarios(p, 0xa9ee);
        let driver = generate_driver(p, &scenarios);
        let combined = format!("{}\n{}", p.golden_rtl, driver);
        for (what, src) in [
            ("dut", p.golden_rtl.as_str()),
            ("dut+tb", combined.as_str()),
        ] {
            let file = parse(src).unwrap_or_else(|e| panic!("{} {what} parses: {e}", p.name));
            for d in lint_file(&file).diagnostics {
                if p.lint_allowed(d.rule.name(), &d.signal) {
                    allowlisted += 1;
                    continue;
                }
                if d.severity == Severity::Error {
                    deny.push(format!(
                        "{} ({what}): {} `{}`",
                        p.name,
                        d.rule.name(),
                        d.signal
                    ));
                }
            }
        }
    }
    assert!(
        deny.is_empty(),
        "deny-level lint findings on golden fixtures:\n{}",
        deny.join("\n")
    );
    // cmd_fsm intentionally parks two signals (allowlisted in its
    // problem spec); they appear in both the dut and dut+tb passes.
    assert_eq!(allowlisted, 4, "allowlist coverage drifted");
}
