//! Tokenizer for the supported Verilog subset.

use crate::error::{ParseError, Span};
use crate::logic::{Bit, LogicVec};
use std::fmt;

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Token {
    /// Identifier or escaped identifier.
    Ident(String),
    /// A language keyword (`module`, `always`, ...).
    Keyword(Keyword),
    /// A sized or unsized number literal, e.g. `4'b1010`, `10`, `8'hFF`.
    Number(NumberLit),
    /// A string literal (quotes stripped, escapes resolved).
    Str(String),
    /// A system task or function name including the `$`, e.g. `$display`.
    SysName(String),
    /// Punctuation and operators.
    Punct(Punct),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::SysName(s) => write!(f, "{s}"),
            Token::Punct(p) => write!(f, "{p}"),
        }
    }
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

/// A token together with its source span.
#[derive(Clone, Debug)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Where it came from.
    pub span: Span,
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

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

/// Tokenizes `src`.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed literals, unterminated strings or
/// comments, and characters outside the supported grammar.
pub fn lex(src: &str) -> Result<Vec<SpannedToken>, ParseError> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(tok) = lx.next_token()? {
        out.push(tok);
    }
    Ok(out)
}

impl<'a> Lexer<'a> {
    fn span(&self) -> Span {
        Span {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => {
                                return Err(ParseError::new(start, "unterminated block comment"))
                            }
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                Some(b'`') => {
                    // Compiler directives (`timescale etc.) are skipped to
                    // end of line.
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Option<SpannedToken>, ParseError> {
        self.skip_trivia()?;
        let span = self.span();
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let token = match c {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident_or_keyword(),
            b'0'..=b'9' => self.number(span)?,
            b'\'' => self.based_number(span, None)?,
            b'"' => self.string(span)?,
            b'$' => self.sysname(),
            b'\\' => self.escaped_ident(span)?,
            _ => self.punct(span)?,
        };
        Ok(Some(SpannedToken { token, span }))
    }

    fn ident_or_keyword(&mut self) -> Token {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'$' {
                self.bump();
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .expect("identifier bytes are ascii")
            .to_string();
        match Keyword::from_str(&text) {
            Some(k) => Token::Keyword(k),
            None => Token::Ident(text),
        }
    }

    fn escaped_ident(&mut self, span: Span) -> Result<Token, ParseError> {
        self.bump(); // backslash
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                break;
            }
            self.bump();
        }
        if start == self.pos {
            return Err(ParseError::new(span, "empty escaped identifier"));
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| ParseError::new(span, "non-ascii escaped identifier"))?
            .to_string();
        Ok(Token::Ident(text))
    }

    fn sysname(&mut self) -> Token {
        let start = self.pos;
        self.bump(); // $
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        Token::SysName(
            std::str::from_utf8(&self.src[start..self.pos])
                .expect("sysname bytes are ascii")
                .to_string(),
        )
    }

    fn string(&mut self, span: Span) -> Result<Token, ParseError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(ParseError::new(span, "unterminated string literal")),
                Some(b'"') => break,
                Some(b'\\') => match self.bump() {
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'"') => s.push('"'),
                    Some(c) => s.push(c as char),
                    None => return Err(ParseError::new(span, "unterminated string escape")),
                },
                Some(c) => s.push(c as char),
            }
        }
        Ok(Token::Str(s))
    }

    fn number(&mut self, span: Span) -> Result<Token, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let digits: String = std::str::from_utf8(&self.src[start..self.pos])
            .expect("digits are ascii")
            .chars()
            .filter(|&c| c != '_')
            .collect();
        // A size prefix?
        let mut save = *self;
        self.skip_trivia()?;
        if self.peek() == Some(b'\'') {
            let size: usize = digits
                .parse()
                .map_err(|_| ParseError::new(span, "number size out of range"))?;
            if size == 0 || size > 1_000_000 {
                return Err(ParseError::new(span, "unreasonable literal size"));
            }
            return self.based_number(span, Some(size));
        }
        std::mem::swap(self, &mut save);
        let v: u128 = digits
            .parse()
            .map_err(|_| ParseError::new(span, "decimal literal out of range"))?;
        // Unsized decimal literals are signed per IEEE 1364 (this is what
        // makes `for (i = 6; i >= 0; ...)` terminate).
        Ok(Token::Number(NumberLit {
            size: None,
            signed: true,
            value: LogicVec::from_u128(32.max(128 - v.leading_zeros() as usize), v),
        }))
    }

    fn based_number(&mut self, span: Span, size: Option<usize>) -> Result<Token, ParseError> {
        self.bump(); // the quote
        let mut signed = false;
        let mut base = match self.bump() {
            Some(c) => c.to_ascii_lowercase(),
            None => return Err(ParseError::new(span, "truncated based literal")),
        };
        if base == b's' {
            signed = true;
            base = match self.bump() {
                Some(c) => c.to_ascii_lowercase(),
                None => return Err(ParseError::new(span, "truncated based literal")),
            };
        }
        let radix_bits = match base {
            b'b' => 1,
            b'o' => 3,
            b'h' => 4,
            b'd' => 0,
            _ => return Err(ParseError::new(span, "unknown number base")),
        };
        self.skip_trivia()?;
        let dstart = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'?' {
                self.bump();
            } else {
                break;
            }
        }
        let digits: Vec<char> = std::str::from_utf8(&self.src[dstart..self.pos])
            .expect("digits are ascii")
            .chars()
            .filter(|&c| c != '_')
            .collect();
        if digits.is_empty() {
            return Err(ParseError::new(span, "based literal with no digits"));
        }
        let value = if radix_bits == 0 {
            let text: String = digits.iter().collect();
            let v: u128 = text
                .parse()
                .map_err(|_| ParseError::new(span, "bad decimal digits in based literal"))?;
            let w = size.unwrap_or(32);
            LogicVec::from_u128(w, v)
        } else {
            let mut bits: Vec<Bit> = Vec::new();
            for ch in &digits {
                match ch.to_ascii_lowercase() {
                    'x' => bits.extend(std::iter::repeat_n(Bit::X, radix_bits)),
                    'z' | '?' => bits.extend(std::iter::repeat_n(Bit::Z, radix_bits)),
                    c => {
                        let d = c
                            .to_digit(16)
                            .ok_or_else(|| ParseError::new(span, "bad digit in literal"))?;
                        if d >= (1 << radix_bits) {
                            return Err(ParseError::new(span, "digit too large for base"));
                        }
                        for i in (0..radix_bits).rev() {
                            bits.push(if (d >> i) & 1 == 1 {
                                Bit::One
                            } else {
                                Bit::Zero
                            });
                        }
                    }
                }
            }
            let natural = LogicVec::from_bits_msb_first(&bits);
            match size {
                Some(s) => {
                    // Verilog pads with the leading digit when it is x/z,
                    // else zero-pads; truncates from the left when too long.
                    if s >= natural.width() {
                        let pad = match bits.first() {
                            Some(Bit::X) => Bit::X,
                            Some(Bit::Z) => Bit::Z,
                            _ => Bit::Zero,
                        };
                        let mut v = natural.zero_extend(s);
                        if pad != Bit::Zero {
                            for i in natural.width()..s {
                                v.set_bit(i, pad);
                            }
                        }
                        v
                    } else {
                        natural.slice(0, s)
                    }
                }
                None => natural.zero_extend(32.max(natural.width())),
            }
        };
        Ok(Token::Number(NumberLit {
            size,
            signed,
            value,
        }))
    }

    fn punct(&mut self, span: Span) -> Result<Token, ParseError> {
        use Punct::*;
        let c = self.bump().expect("peeked");
        let p = match c {
            b'(' => LParen,
            b')' => RParen,
            b'[' => LBracket,
            b']' => RBracket,
            b'{' => LBrace,
            b'}' => RBrace,
            b';' => Semi,
            b',' => Comma,
            b'.' => Dot,
            b'@' => At,
            b'#' => Hash,
            b'?' => Question,
            b':' => Colon,
            b'+' => {
                if self.peek() == Some(b':') {
                    self.bump();
                    PlusColon
                } else {
                    Plus
                }
            }
            b'-' => {
                if self.peek() == Some(b':') {
                    self.bump();
                    MinusColon
                } else {
                    Minus
                }
            }
            b'*' => Star,
            b'/' => Slash,
            b'%' => Percent,
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    AmpAmp
                } else {
                    Amp
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    PipePipe
                } else {
                    Pipe
                }
            }
            b'^' => {
                if self.peek() == Some(b'~') {
                    self.bump();
                    TildeCaret
                } else {
                    Caret
                }
            }
            b'~' => match self.peek() {
                Some(b'^') => {
                    self.bump();
                    TildeCaret
                }
                Some(b'&') => {
                    self.bump();
                    TildeAmp
                }
                Some(b'|') => {
                    self.bump();
                    TildePipe
                }
                _ => Tilde,
            },
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    BangEq
                } else {
                    Bang
                }
            }
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    EqEq
                } else {
                    Assign
                }
            }
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.bump();
                    NonBlocking
                }
                Some(b'<') => {
                    self.bump();
                    Shl
                }
                _ => Lt,
            },
            b'>' => match (self.peek(), self.peek2()) {
                (Some(b'='), _) => {
                    self.bump();
                    GtEq
                }
                (Some(b'>'), Some(b'>')) => {
                    self.bump();
                    self.bump();
                    AShr
                }
                (Some(b'>'), _) => {
                    self.bump();
                    Shr
                }
                _ => Gt,
            },
            other => {
                return Err(ParseError::new(
                    span,
                    format!("unexpected character {:?}", other as char),
                ))
            }
        };
        Ok(Token::Punct(p))
    }
}

impl Clone for Lexer<'_> {
    fn clone(&self) -> Self {
        *self
    }
}
impl Copy for Lexer<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src)
            .expect("lex ok")
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn keywords_and_idents() {
        let t = toks("module foo_1 endmodule always_ff");
        assert_eq!(t[0], Token::Keyword(Keyword::Module));
        assert_eq!(t[1], Token::Ident("foo_1".into()));
        assert_eq!(t[2], Token::Keyword(Keyword::Endmodule));
        assert_eq!(t[3], Token::Ident("always_ff".into()));
    }

    #[test]
    fn numbers_sized() {
        let t = toks("4'b1010 8'hFF 3'd5 12'o777 16'h_ab_cd");
        match &t[0] {
            Token::Number(n) => {
                assert_eq!(n.size, Some(4));
                assert_eq!(n.value.to_u64(), Some(0b1010));
            }
            other => panic!("expected number, got {other:?}"),
        }
        match &t[1] {
            Token::Number(n) => assert_eq!(n.value.to_u64(), Some(0xff)),
            other => panic!("expected number, got {other:?}"),
        }
        match &t[2] {
            Token::Number(n) => {
                assert_eq!(n.size, Some(3));
                assert_eq!(n.value.to_u64(), Some(5));
            }
            other => panic!("expected number, got {other:?}"),
        }
        match &t[3] {
            Token::Number(n) => assert_eq!(n.value.to_u64(), Some(0o777)),
            other => panic!("expected number, got {other:?}"),
        }
        match &t[4] {
            Token::Number(n) => assert_eq!(n.value.to_u64(), Some(0xabcd)),
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn numbers_with_x_and_z() {
        let t = toks("4'b10xz 8'hxz 4'b? 1'bx");
        match &t[0] {
            Token::Number(n) => {
                use crate::logic::Bit;
                assert_eq!(n.value.bit(3), Bit::One);
                assert_eq!(n.value.bit(2), Bit::Zero);
                assert_eq!(n.value.bit(1), Bit::X);
                assert_eq!(n.value.bit(0), Bit::Z);
            }
            other => panic!("expected number, got {other:?}"),
        }
        match &t[2] {
            Token::Number(n) => {
                use crate::logic::Bit;
                // '?' pads with z
                for i in 0..4 {
                    assert_eq!(n.value.bit(i), Bit::Z);
                }
            }
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn bare_decimal_is_32_bits() {
        let t = toks("42");
        match &t[0] {
            Token::Number(n) => {
                assert_eq!(n.size, None);
                assert_eq!(n.value.width(), 32);
                assert_eq!(n.value.to_u64(), Some(42));
            }
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn size_with_space() {
        let t = toks("8 'hA5");
        match &t[0] {
            Token::Number(n) => {
                assert_eq!(n.size, Some(8));
                assert_eq!(n.value.to_u64(), Some(0xa5));
            }
            other => panic!("expected number, got {other:?}"),
        }
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
            assert_eq!(t[i], Token::Punct(*p), "operator {i}");
        }
    }

    #[test]
    fn comments_and_directives_skipped() {
        let t = toks("a // line\n /* block\nmore */ b `timescale 1ns/1ps\nc");
        assert_eq!(
            t,
            vec![
                Token::Ident("a".into()),
                Token::Ident("b".into()),
                Token::Ident("c".into())
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        let t = toks(r#""hello\nworld" "a\"b""#);
        assert_eq!(t[0], Token::Str("hello\nworld".into()));
        assert_eq!(t[1], Token::Str("a\"b".into()));
    }

    #[test]
    fn sysnames() {
        let t = toks("$display $fdisplay $finish");
        assert_eq!(t[0], Token::SysName("$display".into()));
        assert_eq!(t[2], Token::SysName("$finish".into()));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
    }

    #[test]
    fn signed_literal() {
        let t = toks("8'sb1010");
        match &t[0] {
            Token::Number(n) => assert!(n.signed),
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[test]
    fn x_pad_to_size() {
        let t = toks("8'bx");
        match &t[0] {
            Token::Number(n) => assert!(n.value.is_fully_unknown()),
            other => panic!("expected number, got {other:?}"),
        }
    }
}
