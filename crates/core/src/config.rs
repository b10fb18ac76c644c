//! Pipeline configuration: what the paper's tables, figures and
//! ablations vary — the iteration limits I_C^max and I_R^max, the
//! validator group size NR and the validation criterion. Everything the
//! paper fixes is a constant where it is used.

/// Validation criterion for the RS matrix (paper Section III-B2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ValidationCriterion {
    /// `100%-wrong`: a scenario is wrong only when *every* RTL disagrees
    /// with the testbench; no green-row override.
    Wrong100,
    /// `70%-wrong`: a scenario is wrong when ≥70% of RTLs disagree, with
    /// the 25%-green-row override. The paper's chosen criterion.
    Wrong70,
    /// `50%-wrong`: like `70%-wrong` at a 50% threshold.
    Wrong50,
    /// Ablation: explicit threshold and row-rule switch.
    Custom {
        /// Fraction of disagreeing RTLs that marks a scenario wrong.
        wrong_fraction: f64,
        /// Enable the 25%-green-row override.
        green_row_rule: bool,
    },
}

impl ValidationCriterion {
    /// The disagreement fraction at which a scenario is flagged wrong.
    pub fn wrong_fraction(self) -> f64 {
        match self {
            ValidationCriterion::Wrong100 => 1.0,
            ValidationCriterion::Wrong70 => 0.7,
            ValidationCriterion::Wrong50 => 0.5,
            ValidationCriterion::Custom { wrong_fraction, .. } => wrong_fraction,
        }
    }

    /// Whether an entirely-green row in ≥25% of RTLs overrides a wrong
    /// verdict.
    pub fn green_row_rule(self) -> bool {
        match self {
            ValidationCriterion::Wrong100 => false,
            ValidationCriterion::Wrong70 | ValidationCriterion::Wrong50 => true,
            ValidationCriterion::Custom { green_row_rule, .. } => green_row_rule,
        }
    }

    /// Display name used in figures.
    pub fn name(self) -> String {
        match self {
            ValidationCriterion::Wrong100 => "100%-wrong".to_string(),
            ValidationCriterion::Wrong70 => "70%-wrong".to_string(),
            ValidationCriterion::Wrong50 => "50%-wrong".to_string(),
            ValidationCriterion::Custom {
                wrong_fraction,
                green_row_rule,
            } => format!(
                "{:.0}%-wrong{}",
                wrong_fraction * 100.0,
                if green_row_rule { "" } else { " (no row rule)" }
            ),
        }
    }
}

/// CorrectBench configuration (paper defaults in [`Default`]).
#[derive(Clone, Debug)]
pub struct Config {
    /// I_C^max — correction attempts per reboot cycle (paper: 3).
    pub max_corrections: u32,
    /// I_R^max — reboot attempts (paper: 10).
    pub max_reboots: u32,
    /// NR — validator RTL group size (paper: 20).
    pub num_validation_rtls: usize,
    /// Validation criterion (paper: 70%-wrong).
    pub criterion: ValidationCriterion,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_corrections: 3,
            max_reboots: 10,
            num_validation_rtls: 20,
            criterion: ValidationCriterion::Wrong70,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = Config::default();
        assert_eq!(c.max_corrections, 3);
        assert_eq!(c.max_reboots, 10);
        assert_eq!(c.num_validation_rtls, 20);
        assert_eq!(c.criterion, ValidationCriterion::Wrong70);
    }

    #[test]
    fn criterion_parameters() {
        assert_eq!(ValidationCriterion::Wrong100.wrong_fraction(), 1.0);
        assert!(!ValidationCriterion::Wrong100.green_row_rule());
        assert_eq!(ValidationCriterion::Wrong70.wrong_fraction(), 0.7);
        assert!(ValidationCriterion::Wrong70.green_row_rule());
        let c = ValidationCriterion::Custom {
            wrong_fraction: 0.8,
            green_row_rule: false,
        };
        assert_eq!(c.wrong_fraction(), 0.8);
        assert!(!c.green_row_rule());
        assert!(c.name().contains("80%"));
    }
}
