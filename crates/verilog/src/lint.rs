//! Static RTL analysis: a closed, stable rule taxonomy over the
//! dataflow tables of [`crate::dataflow`].
//!
//! The linter is a deterministic pre-simulation gate: every rule is
//! decidable from the parsed AST in microseconds, so defective RTL can
//! be rejected before it burns a simulation budget. The pass is pure —
//! no I/O, no randomness — and [`lint_file`] returns diagnostics in a
//! canonical sort order, so the rendered output is byte-stable.
//!
//! | rule | severity | meaning |
//! |---|---|---|
//! | `multiple-drivers` | error | a signal with conflicting whole-signal drivers |
//! | `latch-inferred` | error | a combinational always assigns a signal on some paths only |
//! | `blocking-nonblocking-mix` | warning | one always block mixes `=` and `<=` |
//! | `comb-loop` | error | a combinational dependency cycle |
//! | `width-mismatch` | warning | an assignment/connection silently truncates |
//! | `undriven-signal` | error | a read (or output) signal nothing drives |
//! | `unused-signal` | warning | a declared signal nothing reads |
//! | `non-reset-register` | warning | a register never assigned under a reset |
//!
//! `initial`-block drivers are exempt from `multiple-drivers` (the
//! `initial clk = 0; always #5 clk = ~clk;` testbench idiom is legal),
//! and signals touched by an unresolvable instance are exempt from the
//! presence/absence rules (the instance may drive or read them).

use crate::ast::{Direction, SourceFile};
use crate::dataflow::{self, DriverKind, ModuleDataflow};
use std::collections::BTreeSet;
use std::fmt;

/// How severe a diagnostic is. `Error`-level diagnostics are the "hard"
/// findings a gate rejects; warnings are advisory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Advisory: suspicious but simulable.
    Warning,
    /// A defect: gate-mode rejects the design.
    Error,
}

impl Severity {
    /// Stable lowercase name (`warning` / `error`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The closed rule taxonomy. Stable: names are part of the
/// `diagnostics.jsonl` artifact contract and never change meaning.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Rule {
    /// Conflicting whole-signal drivers.
    MultipleDrivers,
    /// Incomplete assignment in a combinational always block.
    LatchInferred,
    /// Blocking and nonblocking assignments in one always block.
    BlockingNonblockingMix,
    /// Combinational dependency cycle.
    CombLoop,
    /// Silently truncating assignment or port connection.
    WidthMismatch,
    /// A read or output signal with no driver.
    UndrivenSignal,
    /// A declared signal nothing reads.
    UnusedSignal,
    /// A register never assigned under a reset conditional.
    NonResetRegister,
}

impl Rule {
    /// Every rule, in canonical order.
    pub const ALL: [Rule; 8] = [
        Rule::MultipleDrivers,
        Rule::LatchInferred,
        Rule::BlockingNonblockingMix,
        Rule::CombLoop,
        Rule::WidthMismatch,
        Rule::UndrivenSignal,
        Rule::UnusedSignal,
        Rule::NonResetRegister,
    ];

    /// Stable kebab-case rule id.
    pub fn name(self) -> &'static str {
        match self {
            Rule::MultipleDrivers => "multiple-drivers",
            Rule::LatchInferred => "latch-inferred",
            Rule::BlockingNonblockingMix => "blocking-nonblocking-mix",
            Rule::CombLoop => "comb-loop",
            Rule::WidthMismatch => "width-mismatch",
            Rule::UndrivenSignal => "undriven-signal",
            Rule::UnusedSignal => "unused-signal",
            Rule::NonResetRegister => "non-reset-register",
        }
    }

    /// The inverse of [`Rule::name`].
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }

    /// The rule's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            Rule::MultipleDrivers | Rule::LatchInferred | Rule::CombLoop | Rule::UndrivenSignal => {
                Severity::Error
            }
            Rule::BlockingNonblockingMix
            | Rule::WidthMismatch
            | Rule::UnusedSignal
            | Rule::NonResetRegister => Severity::Warning,
        }
    }

    /// Canonical index into [`Rule::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// The rule's severity (denormalized for rendering).
    pub severity: Severity,
    /// Module the finding is in.
    pub module: String,
    /// Principal signal (empty for block-level findings with no single
    /// subject).
    pub signal: String,
    /// Deterministic source location (`port N` / `item N` — the AST
    /// carries no line numbers, so locations are declaration-order
    /// based).
    pub location: String,
    /// Human-readable one-liner.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}] {}: {} ({})",
            self.severity.name(),
            self.module,
            self.rule.name(),
            self.signal,
            self.message,
            self.location
        )
    }
}

/// The result of linting one source file: diagnostics in canonical
/// order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (module, rule, signal, location,
    /// message).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// `true` when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of `Error`-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Per-rule counts, indexed like [`Rule::ALL`].
    pub fn rule_counts(&self) -> [usize; Rule::ALL.len()] {
        let mut counts = [0usize; Rule::ALL.len()];
        for d in &self.diagnostics {
            counts[d.rule.index()] += 1;
        }
        counts
    }

    /// A stable 64-bit signature of the findings (FNV-1a over the
    /// canonical rendering). Two designs with the same structural
    /// findings share a signature; AutoEval uses this to tell mutants
    /// apart from the golden design without simulating.
    pub fn signature(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for d in &self.diagnostics {
            mix(d.rule.name().as_bytes());
            mix(b"|");
            mix(d.module.as_bytes());
            mix(b"|");
            mix(d.signal.as_bytes());
            mix(b"|");
            mix(d.location.as_bytes());
            mix(b"\n");
        }
        h
    }
}

/// Lints every module of `file`. Pure and deterministic: same input,
/// same bytes out.
pub fn lint_file(file: &SourceFile) -> LintReport {
    lint_files(&[file])
}

/// Lints the modules of `files` as one file. The AST carries no
/// positions, so this is exactly [`lint_file`] over a parse of their
/// texts joined in order — without parsing the joined text.
pub fn lint_files(files: &[&SourceFile]) -> LintReport {
    let mut diagnostics = Vec::new();
    for df in dataflow::analyze(files) {
        lint_module_dataflow(&df, &mut diagnostics);
    }
    diagnostics.sort_by(|a, b| {
        (
            a.module.as_str(),
            a.rule.index(),
            a.signal.as_str(),
            a.location.as_str(),
            a.message.as_str(),
        )
            .cmp(&(
                b.module.as_str(),
                b.rule.index(),
                b.signal.as_str(),
                b.location.as_str(),
                b.message.as_str(),
            ))
    });
    LintReport { diagnostics }
}

fn diag(
    df: &ModuleDataflow,
    rule: Rule,
    signal: &str,
    location: String,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: rule.severity(),
        module: df.name.clone(),
        signal: signal.to_string(),
        location,
        message,
    }
}

fn lint_module_dataflow(df: &ModuleDataflow, out: &mut Vec<Diagnostic>) {
    multiple_drivers(df, out);
    latch_inferred(df, out);
    blocking_nonblocking_mix(df, out);
    comb_loop(df, out);
    width_mismatch(df, out);
    undriven_signal(df, out);
    unused_signal(df, out);
    non_reset_register(df, out);
}

fn multiple_drivers(df: &ModuleDataflow, out: &mut Vec<Diagnostic>) {
    for (name, f) in &df.signals {
        if f.opaque {
            continue;
        }
        // One group per driving item; `initial` initialization is
        // exempt (legal alongside a process driver).
        let mut groups: BTreeSet<usize> = BTreeSet::new();
        let mut full_groups: BTreeSet<usize> = BTreeSet::new();
        for d in &f.drivers {
            if d.kind == DriverKind::Initial {
                continue;
            }
            groups.insert(d.item);
            if d.full {
                full_groups.insert(d.item);
            }
        }
        if groups.len() >= 2 && !full_groups.is_empty() {
            let first = groups.iter().next().copied().unwrap_or(0);
            out.push(diag(
                df,
                Rule::MultipleDrivers,
                name,
                format!("item {first}"),
                format!(
                    "`{name}` has {} conflicting drivers (items {})",
                    groups.len(),
                    groups
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
    }
}

fn latch_inferred(df: &ModuleDataflow, out: &mut Vec<Diagnostic>) {
    for a in &df.always {
        if a.kind != DriverKind::AlwaysComb {
            continue;
        }
        for sig in a.may_assign.difference(&a.must_assign) {
            out.push(diag(
                df,
                Rule::LatchInferred,
                sig,
                format!("item {}", a.item),
                format!(
                    "`{sig}` is not assigned on every path through the combinational always block"
                ),
            ));
        }
    }
}

fn blocking_nonblocking_mix(df: &ModuleDataflow, out: &mut Vec<Diagnostic>) {
    for a in &df.always {
        if a.blocking > 0 && a.nonblocking > 0 {
            let subject = a
                .may_assign
                .iter()
                .next()
                .map_or_else(String::new, |s| s.clone());
            out.push(diag(
                df,
                Rule::BlockingNonblockingMix,
                &subject,
                format!("item {}", a.item),
                format!(
                    "always block mixes {} blocking and {} nonblocking assignments",
                    a.blocking, a.nonblocking
                ),
            ));
        }
    }
}

fn comb_loop(df: &ModuleDataflow, out: &mut Vec<Diagnostic>) {
    for cycle in dataflow::comb_cycles(&df.comb_edges) {
        let members: BTreeSet<&str> = cycle.iter().map(String::as_str).collect();
        let item = df
            .comb_edges
            .iter()
            .filter(|(r, t, _)| members.contains(r.as_str()) && members.contains(t.as_str()))
            .map(|(_, _, i)| *i)
            .min()
            .unwrap_or(0);
        let head = cycle.first().cloned().unwrap_or_default();
        out.push(diag(
            df,
            Rule::CombLoop,
            &head,
            format!("item {item}"),
            format!("combinational loop through {}", cycle.join(" -> ")),
        ));
    }
}

fn width_mismatch(df: &ModuleDataflow, out: &mut Vec<Diagnostic>) {
    for (item, target, lw, rw) in &df.width_deltas {
        out.push(diag(
            df,
            Rule::WidthMismatch,
            target,
            format!("item {item}"),
            format!("{rw}-bit value silently truncated to {lw} bits"),
        ));
    }
}

fn undriven_signal(df: &ModuleDataflow, out: &mut Vec<Diagnostic>) {
    for (name, f) in &df.signals {
        if f.opaque || f.port == Some(Direction::Input) || !f.drivers.is_empty() {
            continue;
        }
        if f.read || f.port == Some(Direction::Output) {
            out.push(diag(
                df,
                Rule::UndrivenSignal,
                name,
                f.decl.render(),
                format!("`{name}` is read but nothing drives it"),
            ));
        }
    }
}

fn unused_signal(df: &ModuleDataflow, out: &mut Vec<Diagnostic>) {
    for (name, f) in &df.signals {
        if f.opaque || f.read || f.port == Some(Direction::Output) {
            continue;
        }
        out.push(diag(
            df,
            Rule::UnusedSignal,
            name,
            f.decl.render(),
            format!("`{name}` is never read"),
        ));
    }
}

fn non_reset_register(df: &ModuleDataflow, out: &mut Vec<Diagnostic>) {
    for (name, f) in &df.signals {
        let seq_item = f
            .drivers
            .iter()
            .find(|d| d.kind == DriverKind::AlwaysSeq)
            .map(|d| d.item);
        let Some(item) = seq_item else { continue };
        if !f.reset_seen {
            out.push(diag(
                df,
                Rule::NonResetRegister,
                name,
                format!("item {item}"),
                format!("register `{name}` is never assigned under a reset"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lint(src: &str) -> LintReport {
        lint_file(&parse(src).expect("parse"))
    }

    fn fired(report: &LintReport, rule: Rule) -> usize {
        report.rule_counts()[rule.index()]
    }

    #[test]
    fn rule_names_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_name(r.name()), Some(r));
            assert_eq!(Rule::ALL[r.index()], r);
        }
        assert_eq!(Rule::from_name("nope"), None);
    }

    #[test]
    fn clean_module_is_clean() {
        let r = lint("module m(input [3:0] a, b, output [4:0] y);\nassign y = a + b;\nendmodule");
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn multiple_drivers_fires() {
        let r = lint("module m(input a, b, output y);\nassign y = a;\nassign y = b;\nendmodule");
        assert_eq!(fired(&r, Rule::MultipleDrivers), 1);
        assert_eq!(r.errors(), 1);
    }

    #[test]
    fn per_bit_split_assign_is_legal() {
        let r = lint(
            "module m(input a, b, output [1:0] y);\nassign y[0] = a;\nassign y[1] = b;\nendmodule",
        );
        assert_eq!(fired(&r, Rule::MultipleDrivers), 0, "{:?}", r.diagnostics);
    }

    #[test]
    fn initial_plus_always_clock_idiom_is_legal() {
        let r = lint("module tb;\nreg clk;\ninitial clk = 0;\nalways #5 clk = ~clk;\nendmodule");
        assert_eq!(fired(&r, Rule::MultipleDrivers), 0, "{:?}", r.diagnostics);
        assert_eq!(fired(&r, Rule::CombLoop), 0);
    }

    #[test]
    fn latch_inferred_fires_on_incomplete_if() {
        let r = lint(
            "module m(input s, input a, output reg y);\nalways @(*) begin if (s) y = a; end\nendmodule",
        );
        assert_eq!(fired(&r, Rule::LatchInferred), 1);
    }

    #[test]
    fn complete_case_with_default_is_not_a_latch() {
        let r = lint(
            "module m(input [1:0] s, input a, b, output reg y);\n\
             always @(*) begin case (s) 2'd0: y = a; default: y = b; endcase end\n\
             endmodule",
        );
        assert_eq!(fired(&r, Rule::LatchInferred), 0, "{:?}", r.diagnostics);
    }

    #[test]
    fn mix_fires_per_block() {
        let r = lint(
            "module m(input clk, input a, output reg y);\nreg t;\n\
             always @(posedge clk) begin t = a; y <= t; end\n\
             endmodule",
        );
        assert_eq!(fired(&r, Rule::BlockingNonblockingMix), 1);
    }

    #[test]
    fn comb_loop_fires_on_assign_cycle() {
        let r = lint(
            "module m(input a, output x, output y);\nassign x = y & a;\nassign y = x | a;\nendmodule",
        );
        assert_eq!(fired(&r, Rule::CombLoop), 1);
        let d = &r.diagnostics[0];
        assert!(d.message.contains("x -> y"), "{}", d.message);
    }

    #[test]
    fn seq_feedback_is_not_a_comb_loop() {
        let r =
            lint("module m(input clk, output reg q);\nalways @(posedge clk) q <= ~q;\nendmodule");
        assert_eq!(fired(&r, Rule::CombLoop), 0, "{:?}", r.diagnostics);
    }

    #[test]
    fn width_mismatch_fires_on_truncation() {
        let r = lint("module m(input [7:0] a, b, output [3:0] y);\nassign y = a + b;\nendmodule");
        assert_eq!(fired(&r, Rule::WidthMismatch), 1);
    }

    #[test]
    fn undriven_signal_fires() {
        let r = lint("module m(input a, output y);\nwire t;\nassign y = t & a;\nendmodule");
        assert_eq!(fired(&r, Rule::UndrivenSignal), 1);
    }

    #[test]
    fn unused_signal_fires() {
        let r = lint("module m(input a, input b, output y);\nassign y = a;\nendmodule");
        assert_eq!(fired(&r, Rule::UnusedSignal), 1);
        assert_eq!(
            r.diagnostics
                .iter()
                .find(|d| d.rule == Rule::UnusedSignal)
                .map(|d| d.signal.as_str()),
            Some("b")
        );
    }

    #[test]
    fn non_reset_register_warns() {
        let r = lint(
            "module m(input clk, input d, output reg q);\nalways @(posedge clk) q <= d;\nendmodule",
        );
        assert_eq!(fired(&r, Rule::NonResetRegister), 1);
        assert_eq!(r.errors(), 0, "non-reset is advisory: {:?}", r.diagnostics);
        let with_reset = lint(
            "module m(input clk, rst, input d, output reg q);\n\
             always @(posedge clk) begin if (rst) q <= 1'b0; else q <= d; end\nendmodule",
        );
        assert_eq!(fired(&with_reset, Rule::NonResetRegister), 0);
    }

    #[test]
    fn diagnostics_sorted_and_signature_stable() {
        let src = "module m(input s, input a, input b, output reg y, output z);\n\
                   always @(*) begin if (s) y = a; end\n\
                   endmodule";
        let r1 = lint(src);
        let r2 = lint(src);
        assert_eq!(r1, r2);
        assert_eq!(r1.signature(), r2.signature());
        let mut sorted = r1.diagnostics.clone();
        sorted.sort_by(|a, b| {
            (
                a.module.clone(),
                a.rule.index(),
                a.signal.clone(),
                a.location.clone(),
            )
                .cmp(&(
                    b.module.clone(),
                    b.rule.index(),
                    b.signal.clone(),
                    b.location.clone(),
                ))
        });
        assert_eq!(r1.diagnostics, sorted);
        assert_ne!(r1.signature(), LintReport::default().signature());
    }
}
