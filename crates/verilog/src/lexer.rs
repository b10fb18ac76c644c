//! Tokenizer for the supported Verilog subset.
//!
//! [`lex`] tokenizes the whole file before the parser starts, so a
//! malformed literal anywhere outranks an earlier syntax error. A
//! [`Token`] is a `Copy` [`Kind`] plus the slice of the source it spans,
//! and a [`SpannedToken`] adds the token's `u32` byte offset: 32 bytes in
//! all, with no allocation. Identifiers and system names borrow their
//! text until the parser copies it, once, into the AST. A string
//! literal's text is its raw body, which the parser unescapes. Number
//! literals are decoded and checked here, digit group by digit group
//! straight into the planes of a [`LogicVec`], and kept in
//! [`Lexed::numbers`]; their token holds the index.
//!
//! No line or column is tracked while lexing: [`span_at`] computes them
//! from a byte offset when an error is built.

use crate::error::{ParseError, Span};
use crate::logic::LogicVec;
use std::fmt;

/// What a token is. Its text is [`Token::text`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Identifier; the text of an escaped one omits the backslash.
    Ident,
    /// A language keyword (`module`, `always`, ...).
    Keyword(Keyword),
    /// A number literal, e.g. `4'b1010`, `10`, `8'hFF`: its value is
    /// entry `i` of [`Lexed::numbers`].
    Number(u32),
    /// A string literal; the text is the raw body between the quotes.
    Str,
    /// A system task or function name including the `$`, e.g. `$display`.
    SysName,
    /// Punctuation and operators.
    Punct(Punct),
}

impl From<Keyword> for Kind {
    fn from(k: Keyword) -> Kind {
        Kind::Keyword(k)
    }
}

impl From<Punct> for Kind {
    fn from(p: Punct) -> Kind {
        Kind::Punct(p)
    }
}

/// A lexical token: its kind and the source text it covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token<'a> {
    /// The kind.
    pub kind: Kind,
    /// The text (see [`Kind`] for what it covers).
    pub text: &'a str,
}

macro_rules! keywords {
    ($($kw:ident => $text:literal),+ $(,)?) => {
        /// Reserved words recognised by the lexer.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        #[allow(missing_docs)]
        pub enum Keyword {
            $($kw),+
        }

        impl Keyword {
            /// Parses a keyword from its source spelling.
            #[allow(clippy::should_implement_trait)]
            pub fn from_str(s: &str) -> Option<Keyword> {
                match s {
                    $($text => Some(Keyword::$kw),)+
                    _ => None,
                }
            }

            /// The source spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$kw => $text,)+
                }
            }
        }

        impl fmt::Display for Keyword {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.as_str())
            }
        }
    };
}

keywords! {
    Module => "module",
    Endmodule => "endmodule",
    Input => "input",
    Output => "output",
    Inout => "inout",
    Wire => "wire",
    Reg => "reg",
    Integer => "integer",
    Signed => "signed",
    Assign => "assign",
    Always => "always",
    Initial => "initial",
    Begin => "begin",
    End => "end",
    If => "if",
    Else => "else",
    Case => "case",
    Endcase => "endcase",
    Default => "default",
    For => "for",
    Posedge => "posedge",
    Or => "or",
    Wait => "wait",
    Function => "function",
    Endfunction => "endfunction",
    Generate => "generate",
    Endgenerate => "endgenerate",
    Genvar => "genvar",
}

macro_rules! puncts {
    ($($p:ident => $text:literal),+ $(,)?) => {
        /// Operators and punctuation.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        #[allow(missing_docs)]
        pub enum Punct {
            $($p),+
        }

        impl Punct {
            /// The source spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Punct::$p => $text,)+
                }
            }
        }

        impl fmt::Display for Punct {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.as_str())
            }
        }
    };
}

// `~&` and `~|` are tokens only so that the parser refuses them: lexed
// as `~` and a reduction they would read as `~(&a)`.
puncts! {
    LParen => "(",
    RParen => ")",
    LBracket => "[",
    RBracket => "]",
    LBrace => "{",
    RBrace => "}",
    Semi => ";",
    Comma => ",",
    Dot => ".",
    Colon => ":",
    At => "@",
    Hash => "#",
    Question => "?",
    Assign => "=",
    NonBlocking => "<=",
    Plus => "+",
    Minus => "-",
    Star => "*",
    Slash => "/",
    Percent => "%",
    Amp => "&",
    AmpAmp => "&&",
    Pipe => "|",
    PipePipe => "||",
    Caret => "^",
    TildeCaret => "~^",
    Tilde => "~",
    TildeAmp => "~&",
    TildePipe => "~|",
    Bang => "!",
    EqEq => "==",
    BangEq => "!=",
    Lt => "<",
    Gt => ">",
    GtEq => ">=",
    Shl => "<<",
    Shr => ">>",
    AShr => ">>>",
    PlusColon => "+:",
    MinusColon => "-:",
}

/// A token and the byte offset where it starts.
#[derive(Clone, Copy, Debug)]
pub struct SpannedToken<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Byte offset of its first character; [`span_at`] turns it into a
    /// line and column.
    pub offset: u32,
}

/// A number literal: optional size, base, and four-state digits.
#[derive(Clone, PartialEq, Debug)]
pub struct NumberLit {
    /// Explicit bit size (`8'hFF` → `Some(8)`), or `None` for bare numbers.
    pub size: Option<usize>,
    /// `true` when the literal carried the `s` flag (`8'sb...`).
    pub signed: bool,
    /// The value. Bare decimal literals are 32 bits wide per the standard.
    pub value: LogicVec,
}

impl fmt::Display for NumberLit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.size {
            Some(s) => write!(f, "{}'b{}", s, self.value.to_binary_string()),
            None => write!(f, "{}", self.value.to_decimal_string()),
        }
    }
}

/// A lexed file: its tokens, and the values of its number literals.
#[derive(Debug)]
pub struct Lexed<'a> {
    /// Tokens in source order.
    pub tokens: Vec<SpannedToken<'a>>,
    /// Number literal values, indexed by [`Kind::Number`].
    pub numbers: Vec<NumberLit>,
}

/// The 1-based line and column (in bytes) of byte `offset` of `src`.
pub fn span_at(src: &str, offset: usize) -> Span {
    let before = &src.as_bytes()[..offset.min(src.len())];
    let line_start = before
        .iter()
        .rposition(|&c| c == b'\n')
        .map_or(0, |i| i + 1);
    Span {
        line: 1 + before.iter().filter(|&&c| c == b'\n').count() as u32,
        col: 1 + (before.len() - line_start) as u32,
    }
}

/// Tokenizes `src`.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed literals, unterminated strings or
/// comments, and characters outside the supported grammar.
pub fn lex(src: &str) -> Result<Lexed<'_>, ParseError> {
    if u32::try_from(src.len()).is_err() {
        return Err(ParseError::new(Span::default(), "source exceeds 4 GiB"));
    }
    let mut lx = Lexer {
        src,
        pos: 0,
        numbers: Vec::new(),
    };
    let mut tokens = Vec::with_capacity(src.len() / 4);
    while let Some(tok) = lx.next_token()? {
        tokens.push(tok);
    }
    Ok(Lexed {
        tokens,
        numbers: lx.numbers,
    })
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    numbers: Vec<NumberLit>,
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'$'
}

impl<'a> Lexer<'a> {
    fn err(&self, at: usize, msg: &str) -> ParseError {
        ParseError::new(span_at(self.src, at), msg)
    }

    fn at(&self, i: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + i).copied()
    }

    /// Consumes the bytes that satisfy `f` and returns them.
    fn eat_while(&mut self, f: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.at(0).is_some_and(&f) {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    /// Skips to the end of the line, leaving the newline.
    fn skip_line(&mut self) {
        self.pos = self.src[self.pos..]
            .find('\n')
            .map_or(self.src.len(), |i| self.pos + i);
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match (self.at(0), self.at(1)) {
                (Some(c), _) if c.is_ascii_whitespace() => self.pos += 1,
                // Compiler directives (`timescale etc.) are skipped to end
                // of line.
                (Some(b'/'), Some(b'/')) | (Some(b'`'), _) => self.skip_line(),
                (Some(b'/'), Some(b'*')) => match self.src[self.pos + 2..].find("*/") {
                    Some(i) => self.pos += i + 4,
                    None => return Err(self.err(self.pos, "unterminated block comment")),
                },
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Option<SpannedToken<'a>>, ParseError> {
        self.skip_trivia()?;
        let start = self.pos;
        let Some(c) = self.at(0) else {
            return Ok(None);
        };
        let kind = match c {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                Keyword::from_str(self.eat_while(is_ident_char)).map_or(Kind::Ident, Kind::Keyword)
            }
            b'0'..=b'9' => self.number(start)?,
            b'\'' => self.based_number(start, None)?,
            b'"' => self.string(start)?,
            b'$' => {
                self.pos += 1;
                self.eat_while(|c| c.is_ascii_alphanumeric() || c == b'_');
                Kind::SysName
            }
            b'\\' => {
                self.pos += 1;
                if self.eat_while(|c| !c.is_ascii_whitespace()).is_empty() {
                    return Err(self.err(start, "empty escaped identifier"));
                }
                Kind::Ident
            }
            _ => Kind::Punct(self.punct(start)?),
        };
        let text = match kind {
            Kind::Str => &self.src[start + 1..self.pos - 1],
            Kind::Ident if c == b'\\' => &self.src[start + 1..self.pos],
            _ => &self.src[start..self.pos],
        };
        Ok(Some(SpannedToken {
            token: Token { kind, text },
            offset: start as u32,
        }))
    }

    fn string(&mut self, start: usize) -> Result<Kind, ParseError> {
        self.pos += 1; // opening quote
        loop {
            match self.at(0) {
                None => return Err(self.err(start, "unterminated string literal")),
                Some(b'"') => break,
                Some(b'\\') if self.at(1).is_none() => {
                    return Err(self.err(start, "unterminated string escape"))
                }
                Some(b'\\') => self.pos += 2,
                Some(_) => self.pos += 1,
            }
        }
        self.pos += 1;
        Ok(Kind::Str)
    }

    fn number(&mut self, start: usize) -> Result<Kind, ParseError> {
        let digits = self.eat_while(|c| c.is_ascii_digit() || c == b'_');
        // A size prefix?
        let end = self.pos;
        self.skip_trivia()?;
        if self.at(0) == Some(b'\'') {
            let size = decimal(digits)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| self.err(start, "number size out of range"))?;
            if size == 0 || size > 1_000_000 {
                return Err(self.err(start, "unreasonable literal size"));
            }
            return self.based_number(start, Some(size));
        }
        self.pos = end;
        let v = decimal(digits).ok_or_else(|| self.err(start, "decimal literal out of range"))?;
        // Unsized decimal literals are signed per IEEE 1364 (this is what
        // makes `for (i = 6; i >= 0; ...)` terminate).
        let width = 32.max(128 - v.leading_zeros() as usize);
        Ok(self.literal(None, true, LogicVec::from_u128(width, v)))
    }

    fn based_number(&mut self, start: usize, size: Option<usize>) -> Result<Kind, ParseError> {
        self.pos += 1; // the quote
        let mut base = self.at(0).map(|c| c.to_ascii_lowercase());
        let signed = base == Some(b's');
        if signed {
            self.pos += 1;
            base = self.at(0).map(|c| c.to_ascii_lowercase());
        }
        let radix_bits = match base {
            None => return Err(self.err(start, "truncated based literal")),
            Some(b'b') => 1,
            Some(b'o') => 3,
            Some(b'h') => 4,
            Some(b'd') => 0,
            Some(_) => return Err(self.err(start, "unknown number base")),
        };
        self.pos += 1;
        self.skip_trivia()?;
        let digits = self.eat_while(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'?');
        if digits.bytes().all(|c| c == b'_') {
            return Err(self.err(start, "based literal with no digits"));
        }
        let value = if radix_bits == 0 {
            let v = decimal(digits)
                .ok_or_else(|| self.err(start, "bad decimal digits in based literal"))?;
            LogicVec::from_u128(size.unwrap_or(32), v)
        } else {
            planes(digits, radix_bits, size).map_err(|msg| self.err(start, msg))?
        };
        Ok(self.literal(size, signed, value))
    }

    fn literal(&mut self, size: Option<usize>, signed: bool, value: LogicVec) -> Kind {
        self.numbers.push(NumberLit {
            size,
            signed,
            value,
        });
        Kind::Number(self.numbers.len() as u32 - 1)
    }

    fn punct(&mut self, start: usize) -> Result<Punct, ParseError> {
        use Punct::*;
        let (p, len) = match (self.at(0).expect("peeked"), self.at(1), self.at(2)) {
            (b'>', Some(b'>'), Some(b'>')) => (AShr, 3),
            (b'>', Some(b'>'), _) => (Shr, 2),
            (b'>', Some(b'='), _) => (GtEq, 2),
            (b'<', Some(b'<'), _) => (Shl, 2),
            (b'<', Some(b'='), _) => (NonBlocking, 2),
            (b'+', Some(b':'), _) => (PlusColon, 2),
            (b'-', Some(b':'), _) => (MinusColon, 2),
            (b'&', Some(b'&'), _) => (AmpAmp, 2),
            (b'|', Some(b'|'), _) => (PipePipe, 2),
            (b'^', Some(b'~'), _) | (b'~', Some(b'^'), _) => (TildeCaret, 2),
            (b'~', Some(b'&'), _) => (TildeAmp, 2),
            (b'~', Some(b'|'), _) => (TildePipe, 2),
            (b'!', Some(b'='), _) => (BangEq, 2),
            (b'=', Some(b'='), _) => (EqEq, 2),
            (b'(', ..) => (LParen, 1),
            (b')', ..) => (RParen, 1),
            (b'[', ..) => (LBracket, 1),
            (b']', ..) => (RBracket, 1),
            (b'{', ..) => (LBrace, 1),
            (b'}', ..) => (RBrace, 1),
            (b';', ..) => (Semi, 1),
            (b',', ..) => (Comma, 1),
            (b'.', ..) => (Dot, 1),
            (b'@', ..) => (At, 1),
            (b'#', ..) => (Hash, 1),
            (b'?', ..) => (Question, 1),
            (b':', ..) => (Colon, 1),
            (b'+', ..) => (Plus, 1),
            (b'-', ..) => (Minus, 1),
            (b'*', ..) => (Star, 1),
            (b'/', ..) => (Slash, 1),
            (b'%', ..) => (Percent, 1),
            (b'&', ..) => (Amp, 1),
            (b'|', ..) => (Pipe, 1),
            (b'^', ..) => (Caret, 1),
            (b'~', ..) => (Tilde, 1),
            (b'!', ..) => (Bang, 1),
            (b'=', ..) => (Assign, 1),
            (b'<', ..) => (Lt, 1),
            (b'>', ..) => (Gt, 1),
            _ => {
                let c = self.src[start..].chars().next().expect("peeked");
                return Err(self.err(start, &format!("unexpected character {c:?}")));
            }
        };
        self.pos += len;
        Ok(p)
    }
}

/// The value of decimal digits with `_` separators, or `None` when one
/// is not a digit or the value leaves `u128`.
fn decimal(digits: &str) -> Option<u128> {
    digits
        .bytes()
        .filter(|&c| c != b'_')
        .try_fold(0u128, |v, c| {
            let d = (c as char).to_digit(10)?;
            v.checked_mul(10)?.checked_add(u128::from(d))
        })
}

/// Decodes binary, octal or hex digits (`radix_bits` bits each, `_`
/// skipped) into a value `size` bits wide, or for an unsized literal as
/// wide as its digits and at least 32. Digits are shifted into a pair of
/// plane words, which are written out whenever the next digit would not
/// fit. A sized value keeps the low bits of its digits and, when its
/// leading digit is `x` or `z`/`?`, pads with that; otherwise with zeros.
fn planes(digits: &str, radix_bits: usize, size: Option<usize>) -> Result<LogicVec, &'static str> {
    let digits = digits
        .bytes()
        .filter(|&c| c != b'_')
        .map(|c| c.to_ascii_lowercase());
    let natural = digits.clone().count() * radix_bits;
    let mut value = match (size, digits.clone().next()) {
        (Some(w), Some(b'x')) => LogicVec::filled_x(w),
        (Some(w), Some(b'z' | b'?')) => LogicVec::filled_z(w),
        (w, _) => LogicVec::zeros(w.unwrap_or(natural.max(32))),
    };
    let ones = (1u64 << radix_bits) - 1;
    let (mut lo, mut n, mut val, mut unk) = (natural, 0, 0u64, 0u64);
    for c in digits {
        let (v, u) = match c {
            b'x' => (0, ones),
            b'z' | b'?' => (ones, ones),
            _ => match (c as char).to_digit(16).map(u64::from) {
                None => return Err("bad digit in literal"),
                Some(d) if d > ones => return Err("digit too large for base"),
                Some(d) => (d, 0),
            },
        };
        if n + radix_bits > 64 {
            value.set_planes(lo, n, val, unk);
            (n, val, unk) = (0, 0, 0);
        }
        (val, unk) = ((val << radix_bits) | v, (unk << radix_bits) | u);
        n += radix_bits;
        lo -= radix_bits;
    }
    value.set_planes(lo, n, val, unk);
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::Bit;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src)
            .expect("lex ok")
            .tokens
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    fn tok(kind: Kind, text: &str) -> Token<'_> {
        Token { kind, text }
    }

    /// The number literals of `src`, in order.
    fn numbers(src: &str) -> Vec<NumberLit> {
        lex(src).expect("lex ok").numbers
    }

    #[test]
    fn a_token_is_24_bytes_and_with_its_offset_32() {
        assert_eq!(std::mem::size_of::<Token>(), 24);
        assert_eq!(std::mem::size_of::<SpannedToken>(), 32);
    }

    #[test]
    fn keywords_and_idents() {
        let t = toks("module foo_1 endmodule always_ff");
        assert_eq!(t[0], tok(Kind::Keyword(Keyword::Module), "module"));
        assert_eq!(t[1], tok(Kind::Ident, "foo_1"));
        assert_eq!(t[2], tok(Kind::Keyword(Keyword::Endmodule), "endmodule"));
        assert_eq!(t[3], tok(Kind::Ident, "always_ff"));
    }

    #[test]
    fn numbers_sized() {
        let n = numbers("4'b1010 8'hFF 3'd5 12'o777 16'h_ab_cd");
        assert_eq!(n[0].size, Some(4));
        assert_eq!(n[0].value.to_u64(), Some(0b1010));
        assert_eq!(n[1].value.to_u64(), Some(0xff));
        assert_eq!(n[2].size, Some(3));
        assert_eq!(n[2].value.to_u64(), Some(5));
        assert_eq!(n[3].value.to_u64(), Some(0o777));
        assert_eq!(n[4].value.to_u64(), Some(0xabcd));
        let kinds: Vec<Kind> = toks("4'b1010 8'hFF").iter().map(|t| t.kind).collect();
        assert_eq!(kinds, [Kind::Number(0), Kind::Number(1)]);
    }

    #[test]
    fn numbers_with_x_and_z() {
        let n = numbers("4'b10xz 8'hxz 4'b? 1'bx");
        assert_eq!(n[0].value.bit(3), Bit::One);
        assert_eq!(n[0].value.bit(2), Bit::Zero);
        assert_eq!(n[0].value.bit(1), Bit::X);
        assert_eq!(n[0].value.bit(0), Bit::Z);
        // '?' pads with z
        for i in 0..4 {
            assert_eq!(n[2].value.bit(i), Bit::Z);
        }
    }

    #[test]
    fn bare_decimal_is_32_bits() {
        let n = numbers("42");
        assert_eq!(n[0].size, None);
        assert_eq!(n[0].value.width(), 32);
        assert_eq!(n[0].value.to_u64(), Some(42));
    }

    #[test]
    fn size_with_space() {
        let n = numbers("8 'hA5");
        assert_eq!(n[0].size, Some(8));
        assert_eq!(n[0].value.to_u64(), Some(0xa5));
    }

    #[test]
    fn operators_longest_match() {
        let t = toks("<= << >= >> >>> == != ~^ ^~ && || +: -:");
        use Punct::*;
        let expect = [
            NonBlocking,
            Shl,
            GtEq,
            Shr,
            AShr,
            EqEq,
            BangEq,
            TildeCaret,
            TildeCaret,
            AmpAmp,
            PipePipe,
            PlusColon,
            MinusColon,
        ];
        for (i, p) in expect.iter().enumerate() {
            assert_eq!(t[i].kind, Kind::Punct(*p), "operator {i}");
        }
    }

    #[test]
    fn comments_and_directives_skipped() {
        let t = toks("a // line\n /* block\nmore */ b `timescale 1ns/1ps\nc");
        assert_eq!(
            t,
            vec![
                tok(Kind::Ident, "a"),
                tok(Kind::Ident, "b"),
                tok(Kind::Ident, "c")
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        let t = toks(r#""hello\nworld" "a\"b""#);
        assert_eq!(t[0], tok(Kind::Str, r"hello\nworld"));
        assert_eq!(t[1], tok(Kind::Str, r#"a\"b"#));
    }

    #[test]
    fn sysnames() {
        let t = toks("$display $fdisplay $finish");
        assert_eq!(t[0], tok(Kind::SysName, "$display"));
        assert_eq!(t[2], tok(Kind::SysName, "$finish"));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn signed_literal() {
        assert!(numbers("8'sb1010")[0].signed);
    }

    #[test]
    fn x_pad_to_size() {
        assert!(numbers("8'bx")[0].value.is_fully_unknown());
    }
}
