//! Driver `$fdisplay` records, read from text or from values.
//!
//! Record lines look like `scenario: 2, a = 13, b = x, y = 255`. The
//! checker track consumes the *input* fields (what the DUT actually saw)
//! and compares its reference outputs against the *output* fields.
//!
//! A record reaches the judge one of two ways. The simulator captures a
//! display whose format is exactly the record grammar
//! ([`RecordFormat`](correctbench_verilog::RecordFormat)) as its values,
//! which `read_values` converts as the printed text would read; it
//! renders every other display, whose line [`parse_record`] parses. The
//! reference path ([`crate::reference_run`]) renders every display and
//! parses every line ([`parse_records`]); [`typed_records`] reads a run's
//! typed view into the same [`Record`]s, for the tests that hold the two
//! equal.

use correctbench_verilog::logic::LogicVec;
use correctbench_verilog::{Printed, SimOutput};

/// One parsed record line.
#[derive(Clone, PartialEq, Debug)]
pub struct Record {
    /// Scenario index the record belongs to.
    pub scenario: usize,
    /// `(signal, printed value)` pairs in line order.
    pub fields: Vec<(String, FieldValue)>,
}

/// A printed signal value: decimal, or unknown (`x`, `z`, `X`).
#[derive(Clone, PartialEq, Debug)]
pub enum FieldValue {
    /// Fully-known decimal value.
    Known(u128),
    /// The simulator printed an unknown marker.
    Unknown,
}

impl FieldValue {
    /// Converts to a [`LogicVec`] of `width` bits.
    pub fn to_logic(&self, width: usize) -> LogicVec {
        match self {
            FieldValue::Known(v) => LogicVec::from_u128(width, *v),
            FieldValue::Unknown => LogicVec::filled_x(width),
        }
    }
}

impl Record {
    /// The value of `signal`, if the record carries it.
    pub fn field(&self, signal: &str) -> Option<&FieldValue> {
        self.fields
            .iter()
            .find(|(n, _)| n == signal)
            .map(|(_, v)| v)
    }
}

/// Resolves a fixed set of signal names against a stream of records.
///
/// Judging reads the same few signals out of every record. A binding
/// assigns each distinct name a slot once; then a single pass over a
/// record's field names fills the slot table with the **first
/// occurrence** of each bound name — exactly [`Record::field`]'s
/// resolution, amortized to one hash lookup per printed field instead of
/// one linear scan per `(signal, record)` pair. [`RecordBinding::bind`]
/// rebuilds the table for every parsed record, so a long-lived session
/// and a fresh interpreted judge resolve any stream identically
/// (including malformed streams with duplicated or reordered fields);
/// the session resolves a record format's names once, since its every
/// record has the same names.
#[derive(Clone, Debug, Default)]
pub struct RecordBinding {
    slots: std::collections::HashMap<String, usize>,
    /// Per slot: index of the field in the currently bound record.
    found: Vec<Option<u32>>,
}

impl RecordBinding {
    /// Registers `name`, returning its slot (repeats share one slot).
    pub fn slot(&mut self, name: &str) -> usize {
        let next = self.slots.len();
        let id = *self.slots.entry(name.to_string()).or_insert(next);
        self.found.resize(self.slots.len(), None);
        id
    }

    /// Indexes `rec`'s fields; afterwards [`RecordBinding::field`]
    /// answers for this record.
    pub fn bind(&mut self, rec: &Record) {
        let names = rec.fields.iter().map(|(name, _)| name.as_str());
        index_fields(&self.slots, names, &mut self.found);
    }

    /// The slot table of a record whose fields are named `names`, in
    /// order: per slot, the index of the first field with its name.
    pub(crate) fn resolve<'n>(&self, names: impl IntoIterator<Item = &'n str>) -> Vec<Option<u32>> {
        let mut found = Vec::new();
        index_fields(&self.slots, names, &mut found);
        found
    }

    /// The value bound to `slot`, read out of `rec` — which must be the
    /// record last passed to [`RecordBinding::bind`].
    pub fn field<'r>(&self, slot: usize, rec: &'r Record) -> Option<&'r FieldValue> {
        self.found
            .get(slot)
            .copied()
            .flatten()
            .map(|fi| &rec.fields[fi as usize].1)
    }
}

/// Fills `found` with, per slot of `slots`, the index of the first of
/// `names` that carries the slot's name.
fn index_fields<'n>(
    slots: &std::collections::HashMap<String, usize>,
    names: impl IntoIterator<Item = &'n str>,
    found: &mut Vec<Option<u32>>,
) {
    found.clear();
    found.resize(slots.len(), None);
    for (fi, name) in names.into_iter().enumerate() {
        if let Some(&slot) = slots.get(name) {
            found[slot].get_or_insert(fi as u32);
        }
    }
}

/// Reads a record display's captured values (the scenario first, then
/// one per field) into `fields`, returning the scenario — exactly what
/// [`parse_record`] reads from the line the display would print. The
/// record is dropped (`None`) when the scenario is not fully known or
/// exceeds `usize::MAX`, or when a fully known field exceeds
/// `u128::MAX`. A field with any `x` or `z` bit prints `x`, `z` or `X`
/// and reads [`FieldValue::Unknown`].
pub(crate) fn read_values(values: &[LogicVec], fields: &mut Vec<FieldValue>) -> Option<usize> {
    let (scenario, rest) = values.split_first()?;
    let scenario = usize::try_from(scenario.to_u128()?).ok()?;
    fields.clear();
    for v in rest {
        fields.push(if v.is_fully_known() {
            FieldValue::Known(v.to_u128()?)
        } else {
            FieldValue::Unknown
        });
    }
    Some(scenario)
}

/// The records of `out`'s typed view, in print order: each record
/// display's values read as the session judges them (the scenario only
/// when fully known and at most `usize::MAX`; a field `Known` when fully
/// known and at most `u128::MAX`, `Unknown` when any bit is `x` or `z`;
/// a fully known field above `u128::MAX` drops the record), each other
/// line by [`parse_record`]. Equal to [`parse_records`] of the text view
/// [`SimOutput::lines`].
pub fn typed_records(out: &SimOutput) -> Vec<Record> {
    let mut fields = Vec::new();
    out.printed()
        .filter_map(|p| match p {
            Printed::Line(line) => parse_record(line),
            Printed::Record { format, values } => {
                let scenario = read_values(values, &mut fields)?;
                let names = out.record_formats()[format].names.iter().cloned();
                Some(Record {
                    scenario,
                    fields: names.zip(fields.drain(..)).collect(),
                })
            }
        })
        .collect()
}

/// Parses every record line in `lines`; non-record lines are skipped
/// (generated testbenches sometimes emit extra debug output).
pub fn parse_records(lines: &[String]) -> Vec<Record> {
    lines.iter().filter_map(|l| parse_record(l)).collect()
}

/// Parses one line, or `None` if it is not a record.
pub fn parse_record(line: &str) -> Option<Record> {
    let rest = line.strip_prefix("scenario: ")?;
    let mut parts = rest.split(", ");
    let scenario: usize = parts.next()?.trim().parse().ok()?;
    let mut fields = Vec::new();
    for part in parts {
        let (name, value) = part.split_once(" = ")?;
        let value = value.trim();
        let fv = if value.eq_ignore_ascii_case("x") || value.eq_ignore_ascii_case("z") {
            FieldValue::Unknown
        } else {
            FieldValue::Known(value.parse().ok()?)
        };
        fields.push((name.trim().to_string(), fv));
    }
    Some(Record { scenario, fields })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_record() {
        let r = parse_record("scenario: 3, a = 13, b = 0, y = 255").expect("record");
        assert_eq!(r.scenario, 3);
        assert_eq!(r.field("a"), Some(&FieldValue::Known(13)));
        assert_eq!(r.field("y"), Some(&FieldValue::Known(255)));
        assert_eq!(r.field("nope"), None);
    }

    #[test]
    fn parse_unknowns() {
        let r = parse_record("scenario: 1, q = x, d = 7").expect("record");
        assert_eq!(r.field("q"), Some(&FieldValue::Unknown));
        let v = r.field("q").expect("q").to_logic(4);
        assert!(v.is_fully_unknown());
    }

    #[test]
    fn non_records_skipped() {
        let lines = vec![
            "debug: hello".to_string(),
            "scenario: 1, a = 1, y = 2".to_string(),
            "".to_string(),
            "scenario: 2, a = 3, y = 4".to_string(),
        ];
        let rs = parse_records(&lines);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[1].scenario, 2);
    }

    #[test]
    fn binding_matches_field_resolution() {
        let a = parse_record("scenario: 1, a = 1, b = 2, y = 3").expect("record");
        let shifted = parse_record("scenario: 2, b = 5, a = 4, y = 6").expect("record");
        // Duplicated field: Record::field resolves to the first
        // occurrence; the binding must agree even mid-stream.
        let dup = parse_record("scenario: 3, b = 9, b = 8").expect("record");
        let mut binding = RecordBinding::default();
        let b = binding.slot("b");
        let missing = binding.slot("nope");
        assert_eq!(binding.slot("b"), b, "repeated names share a slot");
        for rec in [&a, &shifted, &dup, &a] {
            binding.bind(rec);
            assert_eq!(binding.field(b, rec), rec.field("b"));
            assert_eq!(binding.field(missing, rec), None);
            // Resolving the record's names once gives the same table.
            let layout = binding.resolve(rec.fields.iter().map(|(n, _)| n.as_str()));
            let field = |slot: usize| layout[slot].map(|fi| &rec.fields[fi as usize].1);
            assert_eq!(field(b), rec.field("b"));
            assert_eq!(field(missing), None);
        }
    }

    /// The records of an `initial` block `body` (over a 4-bit `a`, a
    /// 130-bit `w` and an integer `file`; `FMT_A` and `FMT_W` stand for
    /// the record formats of one field `a` or `w`), read from the typed
    /// view, after checking that they are the text view's. Also returns
    /// how many displays were rendered as text.
    fn both_views(body: &str) -> (Vec<Record>, usize) {
        let body = body
            .replace("FMT_A", "\"scenario: %0d, a = %0d\"")
            .replace("FMT_W", "\"scenario: %0d, w = %0d\"");
        let src = format!(
            "module tb; reg [3:0] a; reg [129:0] w; integer file;\ninitial begin\nfile = 1;\n{body}\n$finish;\nend\nendmodule"
        );
        let out = correctbench_verilog::run_source(&src, "tb").expect("simulates");
        let records = typed_records(&out);
        assert_eq!(records, parse_records(&out.lines()), "{body}");
        let texts = out
            .printed()
            .filter(|p| matches!(p, Printed::Line(_)))
            .count();
        (records, texts)
    }

    #[test]
    fn typed_view_reads_the_records_the_text_view_prints() {
        use FieldValue::{Known, Unknown};
        let rec = |scenario, fields: &[(&str, FieldValue)]| Record {
            scenario,
            fields: fields
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
        };
        let a = |v| [("a", v)];
        for (body, want, texts) in [
            // An x, a z and a partly-x field print `x`, `z` and `X`.
            (
                "a = 4'bx; $display(FMT_A, 1, a); a = 4'bz; $display(FMT_A, 2, a);\n\
                 a = 4'b1x0z; $display(FMT_A, 3, a);",
                vec![rec(1, &a(Unknown)), rec(2, &a(Unknown)), rec(3, &a(Unknown))],
                0,
            ),
            // An x or partly-x scenario drops the record.
            (
                "a = 4'd5; $display(FMT_A, 1'bx, a); $display(FMT_A, 4'b10x1, a);",
                vec![],
                0,
            ),
            // A 130-bit field at `u128::MAX` is known; one above it drops
            // the record.
            (
                "w = ~130'd0 >> 2; $display(FMT_W, 1, w);\n\
                 w = 130'd1 << 128; $display(FMT_W, 2, w);",
                vec![rec(1, &[("w", Known(u128::MAX))])],
                0,
            ),
            // A scenario at `usize::MAX` is kept; one above it drops the
            // record.
            (
                "a = 4'd1; $display(FMT_A, ~64'd0, a); $display(FMT_A, 65'd1 << 64, a);",
                vec![rec(usize::MAX, &a(Known(1)))],
                0,
            ),
            // Duplicated names stay in order; a record may have no field.
            (
                "a = 4'd2; $display(\"scenario: %0d, a = %0d, a = %0d\", 1, a, 4'd9);\n\
                 $display(\"scenario: %0d\", 2);",
                vec![rec(1, &[("a", Known(2)), ("a", Known(9))]), rec(2, &[])],
                0,
            ),
            // The four display forms, with a record line printed as text
            // between them keeping its place.
            (
                "a = 4'd3; $fdisplay(file, FMT_A, 1, a); $write(FMT_A, 2, a);\n\
                 $display(\"scenario: 3, a = 4\"); $fwrite(file, FMT_A, 4, a); $display(FMT_A, 5, a);",
                vec![
                    rec(1, &a(Known(3))),
                    rec(2, &a(Known(3))),
                    rec(3, &a(Known(4))),
                    rec(4, &a(Known(3))),
                    rec(5, &a(Known(3))),
                ],
                1,
            ),
        ] {
            assert_eq!(both_views(body), (want, texts), "{body}");
        }
    }

    #[test]
    fn malformed_records_rejected() {
        assert!(parse_record("scenario: , a = 1").is_none());
        assert!(parse_record("scenario: 1, a 1").is_none());
        assert!(parse_record("scenario: 1, a = 12junk").is_none());
    }
}
