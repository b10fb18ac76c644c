//! Recursive-descent parser for the supported Verilog subset.
//!
//! The subset is what the dataset's golden designs, the generated
//! testbench drivers and their mutations and corruptions can contain:
//! ANSI and non-ANSI module headers, `wire`/`reg`/`integer` declarations
//! with descending constant ranges (and initializers), continuous
//! assignments, `always @(*)`, `always @(posedge a or posedge b)`, bare
//! `always` and `initial` processes, the statements `begin`/`end`,
//! blocking and non-blocking assignment, `if`, `case`, `for`, `#n`
//! delays and system tasks (the display tasks with every format
//! specifier, `$finish`, ...), module instantiation with ordered or named
//! connections, and expressions over the operators `+ - * / %`,
//! `& | ^ ~^ ^~`, `~ !`, the reductions `& | ^`, `&& ||`,
//! `== != < <= > >=`, `<< >> >>>` and `?:`, with concatenation,
//! replication and bit, part and indexed part selects, at Verilog
//! precedence.
//!
//! Everything else is a [`ParseError`], among it `parameter` and
//! `localparam`, `negedge` and level-sensitive event lists, `@(...)` as a
//! statement, `while`, `repeat` and `forever`, `casez` and `casex`,
//! system functions (`$signed`, `$time`, ...), the operators `**`, `===`,
//! `!==` and `<<<`, the reductions `~& ~| ~^`, `generate`, functions,
//! tasks and ascending ranges in declarations.
//!
//! The parser walks the tokens [`lex`] made of the whole file. A token is
//! a `Copy` kind and a slice of the source, so consuming one copies 24
//! bytes; an identifier is copied into the AST, and a string literal
//! unescaped, only as it is consumed. Binary operators are parsed by one
//! precedence-climbing loop over ten levels. An error's line and column
//! are computed from its token's byte offset ([`span_at`]) when the error
//! is built.
//!
//! Nesting is bounded: past [`MAX_DEPTH`] levels of expressions,
//! statements and lvalue concatenations the parse fails. Each binary
//! operator that deepens its left operand counts as a level too, so the
//! bound holds for the AST's depth. Every pass over the AST recurses, and
//! jobs run on threads with 2 MiB stacks: without the bound one deeply
//! nested text would overflow a stack and abort the whole run.

use crate::ast::*;
use crate::error::{ParseError, Span};
use crate::lexer::{lex, span_at, Keyword, Kind, Lexed, NumberLit, Punct, SpannedToken, Token};
use std::fmt;

/// The deepest nesting [`parse`] accepts (see the module docs).
pub const MAX_DEPTH: usize = 256;

/// Parses a complete source file.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered; generated-code callers
/// (AutoEval's Eval0) treat any error as "code has syntax errors".
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "module top(input a, output y); assign y = ~a; endmodule";
/// let file = correctbench_verilog::parse(src)?;
/// assert_eq!(file.modules[0].name, "top");
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<SourceFile, ParseError> {
    let _span = correctbench_obs::span(correctbench_obs::Phase::Parse);
    correctbench_obs::add(correctbench_obs::Counter::ParseBytes, src.len() as u64);
    let Lexed { tokens, numbers } = lex(src)?;
    let mut p = Parser {
        src,
        tokens,
        numbers,
        pos: 0,
        depth: 0,
    };
    let mut modules = Vec::new();
    while !p.at_end() {
        modules.push(p.module()?);
    }
    Ok(SourceFile::new(modules))
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<SpannedToken<'a>>,
    numbers: Vec<NumberLit>,
    pos: usize,
    depth: usize,
}

/// The binary operator a token spells and its precedence level, from 0
/// (`||`, loosest) to 9 (`* / %`, tightest). Every level is
/// left-associative.
fn binop(kind: Option<Kind>) -> Option<(BinaryOp, u8)> {
    use BinaryOp::*;
    use Punct as P;
    let Some(Kind::Punct(p)) = kind else {
        return None;
    };
    Some(match p {
        P::PipePipe => (LogicOr, 0),
        P::AmpAmp => (LogicAnd, 1),
        P::Pipe => (Or, 2),
        P::Caret => (Xor, 3),
        P::TildeCaret => (Xnor, 3),
        P::Amp => (And, 4),
        P::EqEq => (Eq, 5),
        P::BangEq => (Ne, 5),
        P::Lt => (Lt, 6),
        P::NonBlocking => (Le, 6), // `<=` in expression position
        P::Gt => (Gt, 6),
        P::GtEq => (Ge, 6),
        P::Shl => (Shl, 7),
        P::Shr => (Shr, 7),
        P::AShr => (AShr, 7),
        P::Plus => (Add, 8),
        P::Minus => (Sub, 8),
        P::Star => (Mul, 9),
        P::Slash => (Div, 9),
        P::Percent => (Mod, 9),
        _ => return None,
    })
}

/// A string literal's raw body with its escapes resolved: `\n` and `\t`,
/// and any other character after a backslash as itself.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('n') => '\n',
                Some('t') => '\t',
                Some(e) => e,
                None => break,
            },
            c => c,
        });
    }
    out
}

type Parsed<T> = Result<T, ParseError>;

/// A select after a name: `[i]`, `[msb:lsb]` or `[base +: width]`.
enum Select {
    Bit(Box<Expr>),
    Part(i64, i64),
    IndexedPart(Box<Expr>, usize),
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn span(&self) -> Span {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or_else(Span::default, |t| span_at(self.src, t.offset as usize))
    }

    fn peek(&self) -> Option<Kind> {
        self.tokens.get(self.pos).map(|t| t.token.kind)
    }

    /// Consumes the token at the cursor, which the caller has peeked.
    fn bump(&mut self) -> Token<'a> {
        self.pos += 1;
        self.tokens[self.pos - 1].token
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.span(), msg)
    }

    /// How an error names the token at the cursor.
    fn found(&self) -> String {
        let Some(t) = self.tokens.get(self.pos).map(|t| t.token) else {
            return "end of input".to_string();
        };
        match t.kind {
            Kind::Ident | Kind::SysName => format!("`{}`", t.text),
            Kind::Keyword(k) => format!("`{k}`"),
            Kind::Number(i) => format!("`{}`", self.numbers[i as usize]),
            Kind::Str => format!("`\"{}\"`", unescape(t.text)),
            Kind::Punct(p) => format!("`{p}`"),
        }
    }

    fn eat(&mut self, kind: impl Into<Kind>) -> bool {
        if self.peek() == Some(kind.into()) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect<K: Into<Kind> + fmt::Display + Copy>(&mut self, kind: K) -> Parsed<()> {
        if self.eat(kind) {
            return Ok(());
        }
        Err(self.err(format!("expected `{kind}`, found {}", self.found())))
    }

    fn ident(&mut self) -> Parsed<String> {
        if self.peek() != Some(Kind::Ident) {
            return Err(self.err(format!("expected identifier, found {}", self.found())));
        }
        Ok(self.bump().text.to_string())
    }

    /// The number literal at the cursor, consumed.
    fn number(&mut self) -> Parsed<&NumberLit> {
        let Some(Kind::Number(i)) = self.peek() else {
            return Err(self.err(format!("expected number, found {}", self.found())));
        };
        self.pos += 1;
        Ok(&self.numbers[i as usize])
    }

    /// Counts one more level of nesting, failing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Parsed<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        self.enter()?;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    /// One or more `f`s separated by commas.
    fn comma_list<T>(&mut self, mut f: impl FnMut(&mut Self) -> Parsed<T>) -> Parsed<Vec<T>> {
        let mut items = vec![f(self)?];
        while self.eat(Punct::Comma) {
            items.push(f(self)?);
        }
        Ok(items)
    }

    fn const_int(&mut self) -> Parsed<i64> {
        // Constant integer with optional leading minus (for ranges).
        // Bounds are clamped to ±2^31 so downstream width arithmetic
        // (`msb - lsb`, `lsb` rebasing) can never overflow an i64.
        let neg = self.eat(Punct::Minus);
        let v = self.number()?.value.to_u64();
        let v = v.ok_or_else(|| self.err("range bound must be a known constant"))?;
        if v > 1 << 31 {
            return Err(self.err("range bound out of range"));
        }
        let v = v as i64;
        Ok(if neg { -v } else { v })
    }

    /// A part select's folded `msb`, held to [`Parser::const_int`]'s
    /// ±2^31 bound for the same reason.
    fn part_msb(&self, first: &Expr) -> Parsed<i64> {
        let msb = const_expr_i64(first)
            .ok_or_else(|| self.err("part select bounds must be constants"))?;
        if msb.unsigned_abs() > 1 << 31 {
            return Err(self.err("range bound out of range"));
        }
        Ok(msb)
    }

    // ---- modules ----

    fn module(&mut self) -> Parsed<Module> {
        self.expect(Keyword::Module)?;
        let name = self.ident()?;
        let mut port_order = Vec::new();
        let mut ports: Vec<PortDecl> = Vec::new();
        if self.eat(Punct::LParen) && !self.eat(Punct::RParen) {
            self.comma_list(|p| p.port_entry(&mut port_order, &mut ports))?;
            self.expect(Punct::RParen)?;
        }
        self.expect(Punct::Semi)?;
        let mut items = Vec::new();
        while !self.eat(Keyword::Endmodule) {
            if self.at_end() {
                return Err(self.err("missing `endmodule`"));
            }
            self.item(&mut items, &mut ports, &port_order)?;
        }
        Ok(Module {
            name,
            port_order,
            ports,
            items,
        })
    }

    /// One entry of a module header: either a bare name (non-ANSI) or an
    /// ANSI declaration. ANSI declarations without a direction keyword
    /// reuse the previous entry's direction/type (`input a, b`).
    fn port_entry(&mut self, order: &mut Vec<String>, ports: &mut Vec<PortDecl>) -> Parsed<()> {
        let dir = if self.eat(Keyword::Input) {
            Direction::Input
        } else if self.eat(Keyword::Output) {
            Direction::Output
        } else if self.peek() == Some(Kind::Keyword(Keyword::Inout)) {
            return Err(self.err("inout ports are not supported"));
        } else {
            // Non-ANSI: just a name; the declaration appears in the body.
            order.push(self.ident()?);
            return Ok(());
        };
        let (net, signed, range) = self.port_type()?;
        loop {
            let name = self.ident()?;
            order.push(name.clone());
            ports.push(PortDecl {
                name,
                dir,
                net,
                signed,
                range,
            });
            // Additional names share the declaration until the next
            // direction keyword.
            let next = self.tokens.get(self.pos + 1).map(|t| t.token.kind);
            if self.peek() != Some(Kind::Punct(Punct::Comma)) || next != Some(Kind::Ident) {
                return Ok(());
            }
            self.pos += 1; // comma
        }
    }

    /// What follows a port's direction: `reg` or `wire`, `signed`, and a
    /// range.
    fn port_type(&mut self) -> Parsed<(NetKind, bool, Option<Range>)> {
        let net = if self.eat(Keyword::Reg) {
            NetKind::Reg
        } else {
            self.eat(Keyword::Wire);
            NetKind::Wire
        };
        let signed = self.eat(Keyword::Signed);
        Ok((net, signed, self.opt_range()?))
    }

    fn opt_range(&mut self) -> Parsed<Option<Range>> {
        if !self.eat(Punct::LBracket) {
            return Ok(None);
        }
        let msb = self.const_int()?;
        self.expect(Punct::Colon)?;
        let lsb = self.const_int()?;
        self.expect(Punct::RBracket)?;
        if msb < lsb {
            return Err(self.err("ascending ranges are not supported"));
        }
        Ok(Some(Range { msb, lsb }))
    }

    fn item(
        &mut self,
        items: &mut Vec<Item>,
        ports: &mut Vec<PortDecl>,
        port_order: &[String],
    ) -> Parsed<()> {
        use Keyword as K;
        match self.peek() {
            Some(Kind::Keyword(K::Input | K::Output)) => {
                return self.non_ansi_port_decl(ports, port_order)
            }
            Some(Kind::Keyword(k @ (K::Wire | K::Reg | K::Integer))) => {
                self.pos += 1;
                let kind = match k {
                    K::Wire => NetKind::Wire,
                    K::Reg => NetKind::Reg,
                    _ => NetKind::Integer,
                };
                items.push(Item::Net(self.net_decl(kind)?));
            }
            Some(Kind::Keyword(K::Assign)) => {
                self.pos += 1;
                let assigns = self.comma_list(|p| {
                    let lhs = p.lvalue()?;
                    p.expect(Punct::Assign)?;
                    Ok(Item::Assign(AssignItem {
                        lhs,
                        rhs: p.expr()?,
                    }))
                })?;
                items.extend(assigns);
                self.expect(Punct::Semi)?;
            }
            Some(Kind::Keyword(K::Always)) => {
                self.pos += 1;
                let event = if self.eat(Punct::At) {
                    Some(self.event_control()?)
                } else {
                    None
                };
                let body = self.stmt()?;
                items.push(Item::Always(AlwaysBlock { event, body }));
            }
            Some(Kind::Keyword(K::Initial)) => {
                self.pos += 1;
                items.push(Item::Initial(self.stmt()?));
            }
            Some(Kind::Ident) => {
                // Module instantiation: `mod inst ( ... );`
                let module = self.ident()?;
                let name = self.ident()?;
                self.expect(Punct::LParen)?;
                let conns = self.connections()?;
                self.expect(Punct::RParen)?;
                self.expect(Punct::Semi)?;
                items.push(Item::Instance(Instance {
                    module,
                    name,
                    conns,
                }));
            }
            Some(Kind::Keyword(k @ (K::Function | K::Generate | K::Genvar))) => {
                return Err(self.err(format!("`{k}` is not supported")));
            }
            _ => {
                let msg = format!("unexpected token in module body: {}", self.found());
                return Err(self.err(msg));
            }
        }
        Ok(())
    }

    fn non_ansi_port_decl(&mut self, ports: &mut Vec<PortDecl>, order: &[String]) -> Parsed<()> {
        let dir = if self.eat(Keyword::Input) {
            Direction::Input
        } else {
            self.expect(Keyword::Output)?;
            Direction::Output
        };
        let (net, signed, range) = self.port_type()?;
        self.comma_list(|p| {
            let name = p.ident()?;
            if !order.contains(&name) {
                return Err(p.err(format!("`{name}` is not listed in the module header")));
            }
            ports.push(PortDecl {
                name,
                dir,
                net,
                signed,
                range,
            });
            Ok(())
        })?;
        self.expect(Punct::Semi)
    }

    fn net_decl(&mut self, kind: NetKind) -> Parsed<NetDecl> {
        let signed = self.eat(Keyword::Signed);
        let range = if kind == NetKind::Integer {
            Some(Range { msb: 31, lsb: 0 })
        } else {
            self.opt_range()?
        };
        let names = self.comma_list(|p| {
            let name = p.ident()?;
            let init = if p.eat(Punct::Assign) {
                Some(p.expr()?)
            } else {
                None
            };
            Ok((name, init))
        })?;
        self.expect(Punct::Semi)?;
        Ok(NetDecl {
            kind,
            signed: signed || kind == NetKind::Integer,
            range,
            names,
        })
    }

    fn connections(&mut self) -> Parsed<Connections> {
        match self.peek() {
            Some(Kind::Punct(Punct::RParen)) => Ok(Connections::Ordered(Vec::new())),
            Some(Kind::Punct(Punct::Dot)) => Ok(Connections::Named(self.comma_list(|p| {
                p.expect(Punct::Dot)?;
                let port = p.ident()?;
                p.expect(Punct::LParen)?;
                let expr = if p.peek() == Some(Kind::Punct(Punct::RParen)) {
                    None
                } else {
                    Some(p.expr()?)
                };
                p.expect(Punct::RParen)?;
                Ok((port, expr))
            })?)),
            _ => Ok(Connections::Ordered(self.comma_list(Self::expr)?)),
        }
    }

    // ---- statements ----

    fn event_control(&mut self) -> Parsed<EventControl> {
        if self.eat(Punct::Star) {
            return Ok(EventControl::Star);
        }
        self.expect(Punct::LParen)?;
        if self.eat(Punct::Star) {
            self.expect(Punct::RParen)?;
            return Ok(EventControl::Star);
        }
        let mut signals = Vec::new();
        loop {
            self.expect(Keyword::Posedge)?;
            signals.push(self.ident()?);
            if !(self.eat(Keyword::Or) || self.eat(Punct::Comma)) {
                break;
            }
        }
        self.expect(Punct::RParen)?;
        Ok(EventControl::Posedge(signals))
    }

    fn stmt(&mut self) -> Parsed<Stmt> {
        self.nested(Self::stmt_body)
    }

    fn stmt_body(&mut self) -> Parsed<Stmt> {
        match self.peek() {
            Some(Kind::Keyword(Keyword::Begin)) => {
                self.pos += 1;
                // optional block label `: name`
                if self.eat(Punct::Colon) {
                    self.ident()?;
                }
                let mut stmts = Vec::new();
                while !self.eat(Keyword::End) {
                    if self.at_end() {
                        return Err(self.err("missing `end`"));
                    }
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt::Block(stmts))
            }
            Some(Kind::Keyword(Keyword::If)) => {
                self.pos += 1;
                self.expect(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect(Punct::RParen)?;
                let then_stmt = Box::new(self.stmt()?);
                let else_stmt = if self.eat(Keyword::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_stmt,
                    else_stmt,
                })
            }
            Some(Kind::Keyword(Keyword::Case)) => {
                self.pos += 1;
                self.expect(Punct::LParen)?;
                let expr = self.expr()?;
                self.expect(Punct::RParen)?;
                let mut arms = Vec::new();
                while !self.eat(Keyword::Endcase) {
                    if self.at_end() {
                        return Err(self.err("missing `endcase`"));
                    }
                    let labels = if self.eat(Keyword::Default) {
                        self.eat(Punct::Colon);
                        Vec::new()
                    } else {
                        let labels = self.comma_list(Self::expr)?;
                        self.expect(Punct::Colon)?;
                        labels
                    };
                    let body = self.stmt()?;
                    arms.push(CaseArm { labels, body });
                }
                Ok(Stmt::Case { expr, arms })
            }
            Some(Kind::Keyword(Keyword::For)) => {
                self.pos += 1;
                self.expect(Punct::LParen)?;
                let init = Box::new(self.simple_assign_stmt()?);
                self.expect(Punct::Semi)?;
                let cond = self.expr()?;
                self.expect(Punct::Semi)?;
                let step = Box::new(self.simple_assign_stmt()?);
                self.expect(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Some(Kind::Punct(Punct::Hash)) => {
                self.pos += 1;
                let delay = self.number()?.value.to_u64();
                let delay = delay.ok_or_else(|| self.err("delay must be a known constant"))?;
                let stmt = if self.eat(Punct::Semi) {
                    None
                } else {
                    Some(Box::new(self.stmt()?))
                };
                Ok(Stmt::Delay { delay, stmt })
            }
            Some(Kind::SysName) => {
                let name = self.bump().text.to_string();
                let mut args = Vec::new();
                if self.eat(Punct::LParen) && !self.eat(Punct::RParen) {
                    args = self.comma_list(|p| match p.peek() {
                        Some(Kind::Str) => Ok(SysArg::Str(unescape(p.bump().text))),
                        _ => Ok(SysArg::Expr(p.expr()?)),
                    })?;
                    self.expect(Punct::RParen)?;
                }
                self.expect(Punct::Semi)?;
                Ok(Stmt::SysCall { name, args })
            }
            Some(Kind::Punct(Punct::Semi)) => {
                self.pos += 1;
                Ok(Stmt::Empty)
            }
            _ => {
                let s = self.simple_assign_stmt()?;
                self.expect(Punct::Semi)?;
                Ok(s)
            }
        }
    }

    /// An assignment without the trailing semicolon (used by `for` headers).
    fn simple_assign_stmt(&mut self) -> Parsed<Stmt> {
        let lhs = self.lvalue()?;
        if self.eat(Punct::Assign) {
            Ok(Stmt::Blocking(lhs, self.expr()?))
        } else if self.eat(Punct::NonBlocking) {
            Ok(Stmt::NonBlocking(lhs, self.expr()?))
        } else {
            Err(self.err("expected `=` or `<=` in assignment"))
        }
    }

    fn lvalue(&mut self) -> Parsed<LValue> {
        if self.eat(Punct::LBrace) {
            return self.nested(|p| {
                let parts = p.comma_list(Self::lvalue)?;
                p.expect(Punct::RBrace)?;
                Ok(LValue::Concat(parts))
            });
        }
        let name = self.ident()?;
        Ok(match self.select()? {
            None => LValue::Ident(name),
            Some(Select::Bit(i)) => LValue::Bit(name, i),
            Some(Select::Part(msb, lsb)) => LValue::Part(name, msb, lsb),
            Some(Select::IndexedPart(base, w)) => LValue::IndexedPart(name, base, w),
        })
    }

    fn select(&mut self) -> Parsed<Option<Select>> {
        if !self.eat(Punct::LBracket) {
            return Ok(None);
        }
        let first = self.expr()?;
        let select = if self.eat(Punct::Colon) {
            let msb = self.part_msb(&first)?;
            Select::Part(msb, self.const_int()?)
        } else if self.eat(Punct::PlusColon) {
            let w = self.const_int()?;
            if w <= 0 {
                return Err(self.err("indexed part width must be positive"));
            }
            Select::IndexedPart(Box::new(first), w as usize)
        } else {
            Select::Bit(Box::new(first))
        };
        self.expect(Punct::RBracket)?;
        Ok(Some(select))
    }

    // ---- expressions ----

    fn expr(&mut self) -> Parsed<Expr> {
        self.nested(|p| {
            let cond = p.binary(0)?;
            if !p.eat(Punct::Question) {
                return Ok(cond);
            }
            let t = p.expr()?;
            p.expect(Punct::Colon)?;
            let f = p.expr()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(f)))
        })
    }

    /// Precedence climbing: an operand, then each operator of level `min`
    /// or tighter with its right operand, which takes only tighter
    /// operators. Each operator folded in nests the left operand one
    /// level deeper, and counts so until the loop ends.
    fn binary(&mut self, min: u8) -> Parsed<Expr> {
        let depth = self.depth;
        let mut lhs = self.unary()?;
        while let Some((op, level)) = binop(self.peek()).filter(|&(_, level)| level >= min) {
            self.enter()?;
            self.pos += 1;
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary(&mut self) -> Parsed<Expr> {
        use Punct as P;
        let op = match self.peek() {
            Some(Kind::Punct(P::Plus)) => UnaryOp::Plus,
            Some(Kind::Punct(P::Minus)) => UnaryOp::Neg,
            Some(Kind::Punct(P::Tilde)) => UnaryOp::Not,
            Some(Kind::Punct(P::Bang)) => UnaryOp::LogicNot,
            Some(Kind::Punct(P::Amp)) => UnaryOp::RedAnd,
            Some(Kind::Punct(P::Pipe)) => UnaryOp::RedOr,
            Some(Kind::Punct(P::Caret)) => UnaryOp::RedXor,
            _ => return self.primary(),
        };
        self.pos += 1;
        let operand = self.nested(Self::unary)?;
        Ok(Expr::Unary(op, Box::new(operand)))
    }

    fn primary(&mut self) -> Parsed<Expr> {
        match self.peek() {
            Some(Kind::Number(i)) => {
                self.pos += 1;
                let n = &self.numbers[i as usize];
                Ok(Expr::Literal {
                    value: n.value.clone(),
                    signed: n.signed,
                })
            }
            Some(Kind::Punct(Punct::LParen)) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(Punct::RParen)?;
                Ok(e)
            }
            Some(Kind::Punct(Punct::LBrace)) => {
                self.pos += 1;
                let first = self.expr()?;
                if self.peek() == Some(Kind::Punct(Punct::LBrace)) {
                    // replication `{n{e}}`
                    let n = const_expr_i64(&first);
                    let n = n.ok_or_else(|| self.err("replication count must be constant"))?;
                    if n <= 0 || n > 4096 {
                        return Err(self.err("replication count out of range"));
                    }
                    self.pos += 1; // inner `{`
                    let body = concat(self.comma_list(Self::expr)?);
                    self.expect(Punct::RBrace)?;
                    self.expect(Punct::RBrace)?;
                    return Ok(Expr::Repl(n as usize, Box::new(body)));
                }
                let mut parts = vec![first];
                while self.eat(Punct::Comma) {
                    parts.push(self.expr()?);
                }
                self.expect(Punct::RBrace)?;
                Ok(concat(parts))
            }
            Some(Kind::Ident) => {
                let name = self.ident()?;
                Ok(match self.select()? {
                    None => Expr::Ident(name),
                    Some(Select::Bit(i)) => Expr::Bit(name, i),
                    Some(Select::Part(msb, lsb)) => Expr::Part(name, msb, lsb),
                    Some(Select::IndexedPart(base, w)) => Expr::IndexedPart(name, base, w),
                })
            }
            _ => Err(self.err(format!("expected expression, found {}", self.found()))),
        }
    }
}

/// The parts of a concatenation, or its one part alone.
fn concat(mut parts: Vec<Expr>) -> Expr {
    if parts.len() == 1 {
        parts.pop().expect("one part")
    } else {
        Expr::Concat(parts)
    }
}

/// Folds a literal-only expression to an `i64` (used for range bounds and
/// replication counts at parse time). `None` when the expression is not
/// literal-only or a value along the way leaves `i64`.
fn const_expr_i64(e: &Expr) -> Option<i64> {
    match e {
        Expr::Literal { value, .. } => i64::try_from(value.to_u64()?).ok(),
        Expr::Unary(UnaryOp::Neg, inner) => const_expr_i64(inner)?.checked_neg(),
        Expr::Binary(op, a, b) => {
            let a = const_expr_i64(a)?;
            let b = const_expr_i64(b)?;
            match op {
                BinaryOp::Add => a.checked_add(b),
                BinaryOp::Sub => a.checked_sub(b),
                BinaryOp::Mul => a.checked_mul(b),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> SourceFile {
        parse(src).expect("parse ok")
    }

    #[test]
    fn minimal_module() {
        let f = parse_ok("module m; endmodule");
        assert_eq!(f.modules.len(), 1);
        assert_eq!(f.modules[0].name, "m");
    }

    #[test]
    fn ansi_ports() {
        let f = parse_ok(
            "module m(input wire [3:0] a, b, input clk, output reg [7:0] y, output z);\nendmodule",
        );
        let m = &f.modules[0];
        assert_eq!(m.port_order, vec!["a", "b", "clk", "y", "z"]);
        assert_eq!(m.ports.len(), 5);
        assert_eq!(m.ports[0].width(), 4);
        assert_eq!(m.ports[1].width(), 4);
        assert_eq!(m.ports[2].width(), 1);
        assert_eq!(m.ports[3].net, NetKind::Reg);
        assert_eq!(m.ports[3].dir, Direction::Output);
        assert_eq!(m.ports[4].width(), 1);
    }

    #[test]
    fn non_ansi_ports() {
        let f = parse_ok("module m(a, y);\ninput [1:0] a;\noutput reg y;\nendmodule");
        let m = &f.modules[0];
        assert_eq!(m.port_order, vec!["a", "y"]);
        assert_eq!(m.ports.len(), 2);
        assert_eq!(m.ports[0].dir, Direction::Input);
        assert_eq!(m.ports[1].net, NetKind::Reg);
    }

    #[test]
    fn continuous_assign() {
        let f = parse_ok("module m(input a, b, output y); assign y = a & b; endmodule");
        match &f.modules[0].items[0] {
            Item::Assign(a) => {
                assert_eq!(a.lhs, LValue::Ident("y".into()));
                assert!(matches!(a.rhs, Expr::Binary(BinaryOp::And, _, _)));
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn always_posedge() {
        let f = parse_ok(
            "module m(input clk, input d, output reg q);\nalways @(posedge clk) q <= d;\nendmodule",
        );
        match &f.modules[0].items[0] {
            Item::Always(a) => {
                assert_eq!(a.event, Some(EventControl::Posedge(vec!["clk".into()])));
                assert!(matches!(a.body, Stmt::NonBlocking(_, _)));
            }
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn always_star_and_case() {
        let f = parse_ok(
            "module m(input [1:0] s, output reg y);\nalways @(*) begin\ncase (s)\n2'd0: y = 1'b0;\n2'd1, 2'd2: y = 1'b1;\ndefault: y = 1'bx;\nendcase\nend\nendmodule",
        );
        match &f.modules[0].items[0] {
            Item::Always(a) => {
                assert_eq!(a.event, Some(EventControl::Star));
                match &a.body {
                    Stmt::Block(stmts) => match &stmts[0] {
                        Stmt::Case { arms, .. } => {
                            assert_eq!(arms.len(), 3);
                            assert_eq!(arms[1].labels.len(), 2);
                            assert!(arms[2].labels.is_empty());
                        }
                        other => panic!("expected case, got {other:?}"),
                    },
                    other => panic!("expected block, got {other:?}"),
                }
            }
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn expression_precedence() {
        let f = parse_ok("module m(output [7:0] y); assign y = 1 + 2 * 3 == 7 ? 4 : 5; endmodule");
        match &f.modules[0].items[0] {
            Item::Assign(a) => match &a.rhs {
                Expr::Ternary(cond, _, _) => match cond.as_ref() {
                    Expr::Binary(BinaryOp::Eq, lhs, _) => {
                        assert!(matches!(lhs.as_ref(), Expr::Binary(BinaryOp::Add, _, _)));
                    }
                    other => panic!("expected ==, got {other:?}"),
                },
                other => panic!("expected ternary, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn le_vs_nonblocking() {
        // `<=` is less-equal inside an expression, non-blocking in a stmt.
        let f = parse_ok(
            "module m(input clk, input [3:0] a, output reg y);\nalways @(posedge clk) y <= a <= 4'd5;\nendmodule",
        );
        match &f.modules[0].items[0] {
            Item::Always(b) => match &b.body {
                Stmt::NonBlocking(_, rhs) => {
                    assert!(matches!(rhs, Expr::Binary(BinaryOp::Le, _, _)));
                }
                other => panic!("expected nonblocking, got {other:?}"),
            },
            other => panic!("expected always, got {other:?}"),
        }
    }

    #[test]
    fn concat_repl_selects() {
        let f = parse_ok(
            "module m(input [7:0] a, output [15:0] y);\nassign y = {a[7:4], {3{a[0]}}, a[3 +: 4], a[2], 4'b1010 };\nendmodule",
        );
        match &f.modules[0].items[0] {
            Item::Assign(it) => match &it.rhs {
                Expr::Concat(parts) => {
                    assert_eq!(parts.len(), 5);
                    assert!(matches!(parts[0], Expr::Part(_, 7, 4)));
                    assert!(matches!(parts[1], Expr::Repl(3, _)));
                    assert!(matches!(parts[2], Expr::IndexedPart(_, _, 4)));
                    assert!(matches!(parts[3], Expr::Bit(_, _)));
                }
                other => panic!("expected concat, got {other:?}"),
            },
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn initial_with_delays_and_syscalls() {
        let f = parse_ok(
            "module tb;\nreg clk = 0;\nalways #5 clk = ~clk;\ninitial begin\n#10 $display(\"clk=%0d\", clk);\n#10;\n$finish;\nend\nendmodule",
        );
        let m = &f.modules[0];
        assert!(matches!(m.items[0], Item::Net(_)));
        match &m.items[1] {
            Item::Always(a) => {
                assert!(a.event.is_none());
                assert!(matches!(a.body, Stmt::Delay { delay: 5, .. }));
            }
            other => panic!("expected always, got {other:?}"),
        }
        match &m.items[2] {
            Item::Initial(Stmt::Block(stmts)) => {
                assert!(matches!(
                    stmts[0],
                    Stmt::Delay {
                        delay: 10,
                        stmt: Some(_)
                    }
                ));
                assert!(matches!(
                    stmts[1],
                    Stmt::Delay {
                        delay: 10,
                        stmt: None
                    }
                ));
                assert!(matches!(stmts[2], Stmt::SysCall { .. }));
            }
            other => panic!("expected initial block, got {other:?}"),
        }
    }

    #[test]
    fn instance_named_and_ordered() {
        let f =
            parse_ok("module tb;\nwire y; reg a;\nmux u1(.y(y), .a(a));\nmux u2(y, a);\nendmodule");
        match &f.modules[0].items[2] {
            Item::Instance(i) => {
                assert_eq!(i.module, "mux");
                assert!(matches!(i.conns, Connections::Named(_)));
            }
            other => panic!("expected instance, got {other:?}"),
        }
        match &f.modules[0].items[3] {
            Item::Instance(i) => assert!(matches!(i.conns, Connections::Ordered(_))),
            other => panic!("expected instance, got {other:?}"),
        }
    }

    #[test]
    fn for_loop() {
        let f = parse_ok(
            "module m(input [7:0] a, output reg [3:0] n);\ninteger i;\nalways @(*) begin\nn = 0;\nfor (i = 0; i < 8; i = i + 1) if (a[i]) n = n + 1;\nend\nendmodule",
        );
        assert!(matches!(f.modules[0].items[0], Item::Net(_)));
    }

    #[test]
    fn syntax_errors_detected() {
        assert!(parse("module m; assign ; endmodule").is_err());
        assert!(parse("module m(input a; endmodule").is_err());
        assert!(parse("module m; always @(posedge) x <= 1; endmodule").is_err());
        assert!(parse("module m; initial begin x = 1; endmodule").is_err());
        assert!(parse("garbage tokens here").is_err());
        assert!(parse("module m; wire [3:0 a; endmodule").is_err());
        // The constructs outside the subset.
        let assign = |rhs: &str| {
            format!("module m(input [7:0] a, b, output [7:0] y); assign y = {rhs}; endmodule")
        };
        let stmt = |body: &str| {
            format!("module m(input clk, output reg [7:0] y); initial begin {body} end endmodule")
        };
        let always = |event: &str| {
            format!("module m(input clk, a, output reg y); always @({event}) y <= a; endmodule")
        };
        for src in [
            "module m(output y); parameter K = 1'b1; assign y = K; endmodule".to_string(),
            "module m(output y); localparam K = 1'b1; assign y = K; endmodule".to_string(),
            always("negedge clk"),
            always("a"),
            always("posedge clk or a"),
            stmt("@(posedge clk) y = 8'd1;"),
            stmt("while (y < 8'd3) y = y + 8'd1;"),
            stmt("repeat (3) y = y + 8'd1;"),
            stmt("forever #5 y = ~y;"),
            stmt("casez (y) 8'b1???????: y = 8'd1; endcase"),
            stmt("casex (y) 8'b1xxxxxxx: y = 8'd1; endcase"),
            assign("$signed(a)"),
            assign("$unsigned(a)"),
            assign("$clog2(a)"),
            assign("$time"),
            assign("$stime"),
            assign("a ** b"),
            assign("a === b"),
            assign("a !== b"),
            assign("a <<< 1"),
            assign("~&a"),
            assign("~|a"),
            assign("~^a"),
        ] {
            assert!(parse(&src).is_err(), "{src}");
        }
        // Part-select bounds whose fold leaves `i64` or ±2^31: an error,
        // never a panic or a wrapped bound.
        for msb in [
            "64'h7fffffffffffffff*2",
            "64'h7fffffffffffffff+1",
            "-64'h8000000000000000",
            "64'hffffffffffffffff",
            "64'h80000001",
        ] {
            let rhs =
                format!("module m(input [7:0] a, output y); assign y = a[{msb}:0]; endmodule");
            let lhs =
                format!("module m(input a, output [7:0] y); assign y[{msb}:0] = a; endmodule");
            assert!(parse(&rhs).is_err(), "{rhs}");
            assert!(parse(&lhs).is_err(), "{lhs}");
        }
    }

    #[test]
    fn missing_endmodule() {
        assert!(parse("module m; wire a;").is_err());
    }

    #[test]
    fn signed_decl_and_ashr() {
        let f = parse_ok(
            "module m(input signed [7:0] a, output signed [7:0] y);\nassign y = a >>> 2;\nendmodule",
        );
        assert!(f.modules[0].ports[0].signed);
        match &f.modules[0].items[0] {
            Item::Assign(a) => assert!(matches!(a.rhs, Expr::Binary(BinaryOp::AShr, _, _))),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn multiple_modules() {
        let f = parse_ok("module a; endmodule\nmodule b; endmodule");
        assert_eq!(f.modules.len(), 2);
        assert!(f.module("b").is_some());
        assert!(f.module("c").is_none());
    }
}
