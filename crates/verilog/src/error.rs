//! Error types shared by the front end and simulator.

use std::fmt;

/// A line/column source position (1-based).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A lexical or syntactic error. Under AutoEval this is what makes a piece
/// of generated code "Failed" (below Eval0).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Position of the offending token.
    pub span: Span,
    /// Human-readable message, lowercase, no trailing punctuation.
    pub message: String,
}

impl ParseError {
    /// Creates an error at `span`.
    pub fn new(span: Span, message: impl Into<String>) -> Self {
        ParseError {
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "syntax error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// An elaboration-time error (unresolved names, width mismatches the
/// elaborator refuses, bad port bindings, missing modules).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ElabError {
    /// Human-readable message.
    pub message: String,
}

impl ElabError {
    /// Creates an elaboration error.
    pub fn new(message: impl Into<String>) -> Self {
        ElabError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error: {}", self.message)
    }
}

impl std::error::Error for ElabError {}

/// A runtime simulation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The delta-cycle limit was exceeded at one simulation time
    /// (combinational oscillation, e.g. an unclocked feedback loop).
    DeltaOverflow {
        /// Simulation time at which the loop was detected.
        time: u64,
    },
    /// The instruction budget (`SimLimits::max_steps`) ran out before
    /// `$finish`, or a runaway loop provably would exhaust it.
    EventBudgetExhausted,
    /// A runtime-evaluated construct was invalid (e.g. out-of-range
    /// replication count).
    Runtime(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DeltaOverflow { time } => {
                write!(
                    f,
                    "delta cycle overflow at time {time} (combinational loop)"
                )
            }
            SimError::EventBudgetExhausted => {
                write!(f, "event budget exhausted before $finish")
            }
            SimError::Runtime(m) => write!(f, "runtime error: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Any front-end-to-simulation failure, used where callers only care that
/// the artifact failed.
#[derive(Clone, PartialEq, Debug)]
pub enum VerilogError {
    /// Lex/parse failure.
    Parse(ParseError),
    /// Elaboration failure.
    Elab(ElabError),
    /// Simulation failure.
    Sim(SimError),
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerilogError::Parse(e) => write!(f, "{e}"),
            VerilogError::Elab(e) => write!(f, "{e}"),
            VerilogError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VerilogError {}

impl From<ParseError> for VerilogError {
    fn from(e: ParseError) -> Self {
        VerilogError::Parse(e)
    }
}

impl From<ElabError> for VerilogError {
    fn from(e: ElabError) -> Self {
        VerilogError::Elab(e)
    }
}

impl From<SimError> for VerilogError {
    fn from(e: SimError) -> Self {
        VerilogError::Sim(e)
    }
}
