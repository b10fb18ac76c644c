//! The scenario-based self-validator (paper Section III-B).
//!
//! The validator asks the LLM for a group of NR "imperfect" RTL designs,
//! discards the syntactically broken ones (regenerating while more than
//! half are broken), simulates each surviving design under the testbench,
//! and assembles the **RS matrix**: rows are RTL designs, columns are
//! test scenarios, and a cell records whether the testbench judged that
//! scenario correct for that design. Columns that are red across (almost)
//! all rows indicate the *testbench* — not the designs — is wrong there,
//! because independent generations rarely share the same bug.

use crate::config::Config;
use correctbench_dataset::Problem;
use correctbench_llm::{BugReport, HybridTb, LlmClient, LlmRequest, LlmResponse};
use correctbench_tbgen::ScenarioResult;
use correctbench_verilog::ast::SourceFile;
use std::fmt;

/// One RS-matrix cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RsCell {
    /// The testbench reported the scenario correct for this RTL (green).
    Correct,
    /// The testbench reported the scenario wrong for this RTL (red).
    Wrong,
    /// No verdict (scenario missing from the driver, or the run failed).
    Unknown,
}

/// The RTL–Scenario matrix.
#[derive(Clone, Debug, Default)]
pub struct RsMatrix {
    /// `rows[i][j]` is RTL i's cell for scenario j (0-based).
    pub rows: Vec<Vec<RsCell>>,
}

impl RsMatrix {
    /// Number of RTL rows.
    pub fn num_rtls(&self) -> usize {
        self.rows.len()
    }

    /// Number of scenario columns.
    pub fn num_scenarios(&self) -> usize {
        self.rows.first().map_or(0, |r| r.len())
    }

    /// Fraction of rows marking scenario `j` wrong, over rows with a
    /// verdict; `None` when no row has one.
    pub fn wrong_fraction(&self, j: usize) -> Option<f64> {
        let mut wrong = 0usize;
        let mut known = 0usize;
        for row in &self.rows {
            match row.get(j) {
                Some(RsCell::Wrong) => {
                    wrong += 1;
                    known += 1;
                }
                Some(RsCell::Correct) => known += 1,
                _ => {}
            }
        }
        if known == 0 {
            None
        } else {
            Some(wrong as f64 / known as f64)
        }
    }

    /// Plausibility-weighted wrong fraction of scenario `j`: each row
    /// votes with weight equal to its own green fraction, so thoroughly
    /// broken designs are discounted. `None` when no weight exists.
    pub fn weighted_wrong_fraction(&self, j: usize) -> Option<f64> {
        let mut wrong = 0.0f64;
        let mut total = 0.0f64;
        for row in &self.rows {
            let known = row.iter().filter(|c| **c != RsCell::Unknown).count();
            if known == 0 {
                continue;
            }
            let green = row.iter().filter(|c| **c == RsCell::Correct).count();
            let weight = green as f64 / known as f64;
            match row.get(j) {
                Some(RsCell::Wrong) => {
                    wrong += weight;
                    total += weight;
                }
                Some(RsCell::Correct) => total += weight,
                _ => {}
            }
        }
        if total <= f64::EPSILON {
            None
        } else {
            Some(wrong / total)
        }
    }

    /// Fraction of rows that are entirely green.
    pub fn green_row_fraction(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let green = self
            .rows
            .iter()
            .filter(|r| r.iter().all(|c| *c == RsCell::Correct))
            .count();
        green as f64 / self.rows.len() as f64
    }

    /// Renders the matrix as ASCII art (Fig. 4 style): `#` wrong (red),
    /// `.` correct (green), `?` unknown.
    pub fn to_ascii(&self) -> String {
        let mut s = String::new();
        for row in &self.rows {
            for cell in row {
                s.push(match cell {
                    RsCell::Correct => '.',
                    RsCell::Wrong => '#',
                    RsCell::Unknown => '?',
                });
            }
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for RsMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ascii())
    }
}

/// The validator's verdict on a testbench.
#[derive(Clone, PartialEq, Debug)]
pub enum Verdict {
    /// No error detected.
    Correct,
    /// Errors detected; the report carries per-scenario bug information
    /// for the corrector.
    Wrong(BugReport),
}

impl Verdict {
    /// `true` for [`Verdict::Correct`].
    pub fn is_correct(&self) -> bool {
        matches!(self, Verdict::Correct)
    }
}

/// Output of one validation: the verdict plus the evidence matrix.
#[derive(Clone, Debug)]
pub struct Validation {
    /// Correct / wrong with bug info.
    pub verdict: Verdict,
    /// The RS matrix the verdict was derived from.
    pub matrix: RsMatrix,
}

/// Validates `tb` for `problem` using a fresh LLM-generated RTL group.
pub fn validate(
    problem: &Problem,
    tb: &HybridTb,
    llm: &mut dyn LlmClient,
    cfg: &Config,
) -> Validation {
    let _span = correctbench_obs::span(correctbench_obs::Phase::Validate);
    // A testbench that cannot even run is wrong with no usable bug info.
    if !tb.is_syntactically_valid() {
        let ns = tb.scenarios.len();
        return Validation {
            verdict: Verdict::Wrong(BugReport {
                wrong: Vec::new(),
                correct: Vec::new(),
                uncertain: (1..=ns).collect(),
            }),
            matrix: RsMatrix::default(),
        };
    }

    let rtls = generate_rtl_group(problem, llm, cfg);
    let matrix = build_rs_matrix(problem, tb, &rtls);
    let mut verdict = judge(&matrix, cfg);

    // Experimental coverage gate (paper future work): a clean RS matrix
    // cannot vouch for scenarios that were never exercised, so low input
    // toggle coverage downgrades the verdict.
    if let (Verdict::Correct, Some(threshold)) = (&verdict, cfg.min_input_coverage) {
        let covered = tb.driver_scenario_coverage();
        let report =
            correctbench_tbgen::CoverageReport::measure(problem, &tb.scenarios, Some(&covered));
        if report.ratio() < threshold {
            let ns = tb.scenarios.len();
            verdict = Verdict::Wrong(BugReport {
                wrong: Vec::new(),
                correct: covered,
                uncertain: (1..=ns).collect(),
            });
        }
    }
    Validation { verdict, matrix }
}

/// Generates the validator's RTL group: keep asking until NR designs are
/// syntactically clean or the attempt budget (2·NR) runs out, mirroring
/// the paper's "regenerate until at least half are free from syntax
/// errors". Each kept design is returned as the parse its syntax gate
/// already paid for, so the RS-matrix sweep ([`build_rs_matrix`]) never
/// parses a generated RTL a second time.
pub fn generate_rtl_group(
    problem: &Problem,
    llm: &mut dyn LlmClient,
    cfg: &Config,
) -> Vec<SourceFile> {
    let target = cfg.num_validation_rtls;
    let mut clean = Vec::with_capacity(target);
    let mut attempts = 0;
    while clean.len() < target && attempts < target * 2 {
        attempts += 1;
        let src = match llm.request(&LlmRequest::GenerateRtl { problem }) {
            LlmResponse::Source(s) => s,
            other => unreachable!("rtl request returned {other:?}"),
        };
        let parsed = correctbench_verilog::parse(&src)
            .ok()
            .filter(|f| f.module(&problem.name).is_some())
            .filter(|f| correctbench_verilog::elaborate(f, &problem.name).is_ok());
        if let Some(file) = parsed {
            clean.push(file);
        }
    }
    clean
}

/// Simulates every RTL of the group ([`generate_rtl_group`]) under the
/// testbench and assembles the RS matrix. The driver's carried parse is
/// used as is, and the whole group runs as one
/// [`correctbench_tbgen::EvalSession::sweep_mutants`]: the checker
/// compile, the record bindings and the schedule's hash are paid once per
/// matrix, never once per row.
pub fn build_rs_matrix(problem: &Problem, tb: &HybridTb, rtls: &[SourceFile]) -> RsMatrix {
    let ns = tb.scenarios.len();
    let unknown_matrix = || RsMatrix {
        rows: vec![vec![RsCell::Unknown; ns]; rtls.len()],
    };
    let Some(driver) = tb.driver.parsed() else {
        return unknown_matrix();
    };
    let Ok(mut session) = correctbench_tbgen::EvalSession::new(problem, &tb.checker.program) else {
        // A checker the judge cannot even compile fails every row, the
        // same verdict the per-row interpreter produced.
        return unknown_matrix();
    };
    let rows = session
        .sweep_mutants(rtls, driver, &tb.scenarios)
        .into_iter()
        .map(|run| match run {
            Ok(run) => run
                .results
                .iter()
                .map(|r| match r {
                    ScenarioResult::Pass => RsCell::Correct,
                    ScenarioResult::Fail => RsCell::Wrong,
                    ScenarioResult::Missing => RsCell::Unknown,
                })
                .collect(),
            Err(_) => vec![RsCell::Unknown; ns],
        })
        .collect();
    RsMatrix { rows }
}

/// Applies the validation criterion to an RS matrix.
pub fn judge(matrix: &RsMatrix, cfg: &Config) -> Verdict {
    let ns = matrix.num_scenarios();
    if matrix.num_rtls() == 0 || ns == 0 {
        return Verdict::Wrong(BugReport::default());
    }

    // Row rule: enough fully-green rows force a correct verdict.
    if cfg.criterion.green_row_rule() && matrix.green_row_fraction() > cfg.green_row_fraction {
        return Verdict::Correct;
    }

    let threshold = cfg.criterion.wrong_fraction();
    let weighted = matches!(
        cfg.criterion,
        crate::config::ValidationCriterion::Weighted { .. }
    );
    let mut wrong = Vec::new();
    let mut correct = Vec::new();
    let mut uncertain = Vec::new();
    for j in 0..ns {
        let fraction = if weighted {
            matrix.weighted_wrong_fraction(j)
        } else {
            matrix.wrong_fraction(j)
        };
        match fraction {
            None => uncertain.push(j + 1),
            Some(f) if f >= threshold => wrong.push(j + 1),
            Some(f) if f <= 1.0 - threshold => correct.push(j + 1),
            Some(_) => uncertain.push(j + 1),
        }
    }
    if wrong.is_empty() {
        Verdict::Correct
    } else {
        Verdict::Wrong(BugReport {
            wrong,
            correct,
            uncertain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ValidationCriterion;
    use correctbench_checker::compile_module;
    use correctbench_llm::{CheckerArtifact, ModelKind, ModelProfile, SimulatedLlm};
    use correctbench_tbgen::{generate_driver, generate_scenarios, Driver};

    fn golden_tb(name: &str, seed: u64) -> (correctbench_dataset::Problem, HybridTb) {
        let p = correctbench_dataset::problem(name).expect("problem");
        let scenarios = generate_scenarios(&p, seed);
        let driver = Driver::new(generate_driver(&p, &scenarios));
        let checker = CheckerArtifact::clean(compile_module(&p.golden_module()).expect("checker"));
        (
            p,
            HybridTb {
                scenarios,
                driver,
                checker,
            },
        )
    }

    #[test]
    fn correct_tb_validates_correct() {
        let (p, tb) = golden_tb("alu_8", 21);
        let cfg = Config::default();
        let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 77);
        let v = validate(&p, &tb, &mut llm, &cfg);
        assert!(
            v.verdict.is_correct(),
            "golden TB misvalidated; matrix:\n{}",
            v.matrix
        );
        assert!(v.matrix.num_rtls() >= cfg.num_validation_rtls / 2);
    }

    #[test]
    fn buggy_checker_validates_wrong_with_bug_info() {
        use rand::SeedableRng;
        let (p, mut tb) = golden_tb("alu_8", 23);
        // Inject three defects so that some scenarios systematically fail.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let muts = correctbench_checker::mutate_ir(&mut tb.checker.program, &mut rng, 3);
        assert!(!muts.is_empty());
        let cfg = Config::default();
        let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 78);
        let v = validate(&p, &tb, &mut llm, &cfg);
        match &v.verdict {
            Verdict::Wrong(report) => {
                assert!(!report.wrong.is_empty(), "matrix:\n{}", v.matrix);
            }
            Verdict::Correct => panic!("buggy TB validated correct; matrix:\n{}", v.matrix),
        }
    }

    #[test]
    fn broken_tb_rejected_without_simulation() {
        let (p, mut tb) = golden_tb("and_8", 2);
        tb.checker.broken = true;
        let cfg = Config::default();
        let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 1);
        let v = validate(&p, &tb, &mut llm, &cfg);
        assert!(!v.verdict.is_correct());
        assert_eq!(v.matrix.num_rtls(), 0);
        assert_eq!(llm.usage().requests, 0, "no RTL group for a broken TB");
    }

    #[test]
    fn unparseable_driver_rejected_without_simulation() {
        let (p, mut tb) = golden_tb("counter_8", 4);
        tb.driver = Driver::new(tb.driver.text().replace("endmodule", ""));
        assert!(tb.driver.parsed().is_none());
        let cfg = Config::default();
        let mut llm = SimulatedLlm::new(ModelProfile::for_model(ModelKind::Gpt4o), 5);
        let v = validate(&p, &tb, &mut llm, &cfg);
        let all: Vec<usize> = (1..=tb.scenarios.len()).collect();
        assert_eq!(
            v.verdict,
            Verdict::Wrong(BugReport {
                wrong: Vec::new(),
                correct: Vec::new(),
                uncertain: all,
            })
        );
        assert_eq!(v.matrix.num_rtls(), 0);
        assert_eq!(llm.usage().requests, 0, "no RTL group for a broken driver");
    }

    #[test]
    fn criterion_strictness_ordering() {
        // A column 80% wrong: flagged by 70%- and 50%-wrong, not by 100%.
        let mut rows = Vec::new();
        for i in 0..10 {
            let cell = if i < 8 {
                RsCell::Wrong
            } else {
                RsCell::Correct
            };
            rows.push(vec![cell, RsCell::Correct]);
        }
        let matrix = RsMatrix { rows };
        let mk = |c| Config {
            criterion: c,
            ..Config::default()
        };
        assert!(judge(&matrix, &mk(ValidationCriterion::Wrong100)).is_correct());
        assert!(!judge(&matrix, &mk(ValidationCriterion::Wrong70)).is_correct());
        assert!(!judge(&matrix, &mk(ValidationCriterion::Wrong50)).is_correct());
    }

    #[test]
    fn green_row_rule_overrides() {
        // 40% of rows fully green, one column 100% wrong among the rest.
        let mut rows = Vec::new();
        for i in 0..10 {
            if i < 4 {
                rows.push(vec![RsCell::Correct, RsCell::Correct]);
            } else {
                rows.push(vec![RsCell::Wrong, RsCell::Correct]);
            }
        }
        let matrix = RsMatrix { rows };
        let cfg = Config::default(); // 70%-wrong with row rule
        assert!(judge(&matrix, &cfg).is_correct());
        let strict = Config {
            criterion: ValidationCriterion::Custom {
                wrong_fraction: 0.5,
                green_row_rule: false,
            },
            ..Config::default()
        };
        assert!(!judge(&matrix, &strict).is_correct());
    }

    #[test]
    fn weighted_criterion_discounts_broken_rows() {
        // 7 of 10 RTLs are completely broken (all-red rows). Under plain
        // 70%-wrong every column reaches the threshold and an innocent
        // testbench is condemned; weighted voting zeroes those rows out
        // and only the column the *good* designs also flag stays wrong.
        let mut rows = Vec::new();
        for _ in 0..7 {
            rows.push(vec![RsCell::Wrong, RsCell::Wrong, RsCell::Wrong]);
        }
        for _ in 0..3 {
            rows.push(vec![RsCell::Wrong, RsCell::Correct, RsCell::Correct]);
        }
        let matrix = RsMatrix { rows };
        // Plain: every column is at least 7/10 wrong.
        let plain = Config {
            criterion: ValidationCriterion::Custom {
                wrong_fraction: 0.7,
                green_row_rule: false,
            },
            ..Config::default()
        };
        match judge(&matrix, &plain) {
            Verdict::Wrong(report) => assert_eq!(report.wrong, vec![1, 2, 3]),
            Verdict::Correct => panic!("plain criterion should flag everything"),
        }
        // Weighted: broken rows carry zero weight; only column 0 (which
        // the plausible designs also fail) is flagged.
        let weighted = Config {
            criterion: ValidationCriterion::Weighted {
                wrong_fraction: 0.7,
            },
            ..Config::default()
        };
        match judge(&matrix, &weighted) {
            Verdict::Wrong(report) => {
                assert_eq!(report.wrong, vec![1]);
                assert_eq!(report.correct, vec![2, 3]);
            }
            Verdict::Correct => panic!("weighted criterion must still flag column 0"),
        }
    }

    #[test]
    fn weighted_fraction_none_without_weight() {
        let matrix = RsMatrix {
            rows: vec![vec![RsCell::Unknown, RsCell::Unknown]],
        };
        assert_eq!(matrix.weighted_wrong_fraction(0), None);
    }

    #[test]
    fn ascii_rendering() {
        let matrix = RsMatrix {
            rows: vec![
                vec![RsCell::Correct, RsCell::Wrong],
                vec![RsCell::Unknown, RsCell::Wrong],
            ],
        };
        assert_eq!(matrix.to_ascii(), ".#\n?#\n");
        assert_eq!(matrix.wrong_fraction(1), Some(1.0));
        assert_eq!(matrix.wrong_fraction(0), Some(0.0));
    }
}
