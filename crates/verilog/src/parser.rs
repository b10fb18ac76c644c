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

use crate::ast::*;
use crate::error::{ParseError, Span};
use crate::lexer::{lex, Keyword, NumberLit, Punct, SpannedToken, Token};

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
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut modules = Vec::new();
    while !p.at_end() {
        modules.push(p.module()?);
    }
    Ok(SourceFile::new(modules))
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn span(&self) -> Span {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or_else(Span::default, |t| t.span)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n).map(|t| &t.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.span(), msg)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek() == Some(&Token::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{p}`, found {}",
                self.peek()
                    .map_or("end of input".to_string(), |t| format!("`{t}`"))
            )))
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == Some(&Token::Keyword(k)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<(), ParseError> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{k}`, found {}",
                self.peek()
                    .map_or("end of input".to_string(), |t| format!("`{t}`"))
            )))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Token::Ident(_)) => {
                let Some(Token::Ident(s)) = self.bump() else {
                    unreachable!()
                };
                Ok(s)
            }
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other.map_or("end of input".to_string(), |t| format!("`{t}`"))
            ))),
        }
    }

    fn expect_number(&mut self) -> Result<NumberLit, ParseError> {
        match self.peek() {
            Some(Token::Number(_)) => {
                let Some(Token::Number(n)) = self.bump() else {
                    unreachable!()
                };
                Ok(n)
            }
            other => Err(self.err(format!(
                "expected number, found {}",
                other.map_or("end of input".to_string(), |t| format!("`{t}`"))
            ))),
        }
    }

    fn const_int(&mut self) -> Result<i64, ParseError> {
        // Constant integer with optional leading minus (for ranges).
        // Bounds are clamped to ±2^31 so downstream width arithmetic
        // (`msb - lsb`, `lsb` rebasing) can never overflow an i64.
        let neg = self.eat_punct(Punct::Minus);
        let n = self.expect_number()?;
        let v = n
            .value
            .to_u64()
            .ok_or_else(|| self.err("range bound must be a known constant"))?;
        if v > 1 << 31 {
            return Err(self.err("range bound out of range"));
        }
        let v = v as i64;
        Ok(if neg { -v } else { v })
    }

    /// A part select's folded `msb`, held to [`Parser::const_int`]'s
    /// ±2^31 bound for the same reason.
    fn part_msb(&self, first: &Expr) -> Result<i64, ParseError> {
        let msb = const_expr_i64(first)
            .ok_or_else(|| self.err("part select bounds must be constants"))?;
        if msb.unsigned_abs() > 1 << 31 {
            return Err(self.err("range bound out of range"));
        }
        Ok(msb)
    }

    // ---- modules ----

    fn module(&mut self) -> Result<Module, ParseError> {
        self.expect_keyword(Keyword::Module)?;
        let name = self.expect_ident()?;
        let mut port_order = Vec::new();
        let mut ports: Vec<PortDecl> = Vec::new();
        if self.eat_punct(Punct::LParen) && !self.eat_punct(Punct::RParen) {
            loop {
                self.port_entry(&mut port_order, &mut ports)?;
                if self.eat_punct(Punct::Comma) {
                    continue;
                }
                self.expect_punct(Punct::RParen)?;
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        let mut items = Vec::new();
        loop {
            if self.eat_keyword(Keyword::Endmodule) {
                break;
            }
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
    fn port_entry(
        &mut self,
        order: &mut Vec<String>,
        ports: &mut Vec<PortDecl>,
    ) -> Result<(), ParseError> {
        let dir = if self.eat_keyword(Keyword::Input) {
            Some(Direction::Input)
        } else if self.eat_keyword(Keyword::Output) {
            Some(Direction::Output)
        } else if self.peek() == Some(&Token::Keyword(Keyword::Inout)) {
            return Err(self.err("inout ports are not supported"));
        } else {
            None
        };
        match dir {
            None => {
                // Non-ANSI: just a name; the declaration appears in the body.
                let name = self.expect_ident()?;
                order.push(name);
                Ok(())
            }
            Some(dir) => {
                let net = if self.eat_keyword(Keyword::Reg) {
                    NetKind::Reg
                } else {
                    self.eat_keyword(Keyword::Wire);
                    NetKind::Wire
                };
                let signed = self.eat_keyword(Keyword::Signed);
                let range = self.opt_range()?;
                let name = self.expect_ident()?;
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
                while self.peek() == Some(&Token::Punct(Punct::Comma))
                    && matches!(self.peek_at(1), Some(Token::Ident(_)))
                {
                    self.bump(); // comma
                    let name = self.expect_ident()?;
                    order.push(name.clone());
                    ports.push(PortDecl {
                        name,
                        dir,
                        net,
                        signed,
                        range,
                    });
                }
                Ok(())
            }
        }
    }

    fn opt_range(&mut self) -> Result<Option<Range>, ParseError> {
        if !self.eat_punct(Punct::LBracket) {
            return Ok(None);
        }
        let msb = self.const_int()?;
        self.expect_punct(Punct::Colon)?;
        let lsb = self.const_int()?;
        self.expect_punct(Punct::RBracket)?;
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
    ) -> Result<(), ParseError> {
        match self.peek() {
            Some(Token::Keyword(Keyword::Input)) | Some(Token::Keyword(Keyword::Output)) => {
                self.non_ansi_port_decl(ports, port_order)
            }
            Some(Token::Keyword(Keyword::Wire)) => {
                self.bump();
                let d = self.net_decl(NetKind::Wire)?;
                items.push(Item::Net(d));
                Ok(())
            }
            Some(Token::Keyword(Keyword::Reg)) => {
                self.bump();
                let d = self.net_decl(NetKind::Reg)?;
                items.push(Item::Net(d));
                Ok(())
            }
            Some(Token::Keyword(Keyword::Integer)) => {
                self.bump();
                let d = self.net_decl(NetKind::Integer)?;
                items.push(Item::Net(d));
                Ok(())
            }
            Some(Token::Keyword(Keyword::Assign)) => {
                self.bump();
                loop {
                    let lhs = self.lvalue()?;
                    self.expect_punct(Punct::Assign)?;
                    let rhs = self.expr()?;
                    items.push(Item::Assign(AssignItem { lhs, rhs }));
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                Ok(())
            }
            Some(Token::Keyword(Keyword::Always)) => {
                self.bump();
                let event = if self.eat_punct(Punct::At) {
                    Some(self.event_control()?)
                } else {
                    None
                };
                let body = self.stmt()?;
                items.push(Item::Always(AlwaysBlock { event, body }));
                Ok(())
            }
            Some(Token::Keyword(Keyword::Initial)) => {
                self.bump();
                let body = self.stmt()?;
                items.push(Item::Initial(body));
                Ok(())
            }
            Some(Token::Ident(_)) => {
                // Module instantiation: `mod inst ( ... );`
                let module = self.expect_ident()?;
                let name = self.expect_ident()?;
                self.expect_punct(Punct::LParen)?;
                let conns = self.connections()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                items.push(Item::Instance(Instance {
                    module,
                    name,
                    conns,
                }));
                Ok(())
            }
            Some(Token::Keyword(k @ (Keyword::Function | Keyword::Generate | Keyword::Genvar))) => {
                Err(self.err(format!("`{k}` is not supported")))
            }
            other => Err(self.err(format!(
                "unexpected token in module body: {}",
                other.map_or("end of input".to_string(), |t| format!("`{t}`"))
            ))),
        }
    }

    fn non_ansi_port_decl(
        &mut self,
        ports: &mut Vec<PortDecl>,
        port_order: &[String],
    ) -> Result<(), ParseError> {
        let dir = if self.eat_keyword(Keyword::Input) {
            Direction::Input
        } else {
            self.expect_keyword(Keyword::Output)?;
            Direction::Output
        };
        let net = if self.eat_keyword(Keyword::Reg) {
            NetKind::Reg
        } else {
            self.eat_keyword(Keyword::Wire);
            NetKind::Wire
        };
        let signed = self.eat_keyword(Keyword::Signed);
        let range = self.opt_range()?;
        loop {
            let name = self.expect_ident()?;
            if !port_order.iter().any(|p| p == &name) {
                return Err(self.err(format!("`{name}` is not listed in the module header")));
            }
            ports.push(PortDecl {
                name,
                dir,
                net,
                signed,
                range,
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn net_decl(&mut self, kind: NetKind) -> Result<NetDecl, ParseError> {
        let signed = self.eat_keyword(Keyword::Signed);
        let range = if kind == NetKind::Integer {
            Some(Range { msb: 31, lsb: 0 })
        } else {
            self.opt_range()?
        };
        let mut names = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            names.push((name, init));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(NetDecl {
            kind,
            signed: signed || kind == NetKind::Integer,
            range,
            names,
        })
    }

    fn connections(&mut self) -> Result<Connections, ParseError> {
        if self.peek() == Some(&Token::Punct(Punct::RParen)) {
            return Ok(Connections::Ordered(Vec::new()));
        }
        if self.peek() == Some(&Token::Punct(Punct::Dot)) {
            let mut named = Vec::new();
            loop {
                self.expect_punct(Punct::Dot)?;
                let port = self.expect_ident()?;
                self.expect_punct(Punct::LParen)?;
                let expr = if self.peek() == Some(&Token::Punct(Punct::RParen)) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                named.push((port, expr));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            Ok(Connections::Named(named))
        } else {
            let mut ordered = Vec::new();
            loop {
                ordered.push(self.expr()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            Ok(Connections::Ordered(ordered))
        }
    }

    // ---- statements ----

    fn event_control(&mut self) -> Result<EventControl, ParseError> {
        if self.eat_punct(Punct::Star) {
            return Ok(EventControl::Star);
        }
        self.expect_punct(Punct::LParen)?;
        if self.eat_punct(Punct::Star) {
            self.expect_punct(Punct::RParen)?;
            return Ok(EventControl::Star);
        }
        let mut signals = Vec::new();
        loop {
            self.expect_keyword(Keyword::Posedge)?;
            signals.push(self.expect_ident()?);
            if self.eat_keyword(Keyword::Or) || self.eat_punct(Punct::Comma) {
                continue;
            }
            self.expect_punct(Punct::RParen)?;
            break;
        }
        Ok(EventControl::Posedge(signals))
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::Keyword(Keyword::Begin)) => {
                self.bump();
                // optional block label `: name`
                if self.eat_punct(Punct::Colon) {
                    self.expect_ident()?;
                }
                let mut stmts = Vec::new();
                while !self.eat_keyword(Keyword::End) {
                    if self.at_end() {
                        return Err(self.err("missing `end`"));
                    }
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt::Block(stmts))
            }
            Some(Token::Keyword(Keyword::If)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_stmt = Box::new(self.stmt()?);
                let else_stmt = if self.eat_keyword(Keyword::Else) {
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
            Some(Token::Keyword(Keyword::Case)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let expr = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let mut arms = Vec::new();
                while !self.eat_keyword(Keyword::Endcase) {
                    if self.at_end() {
                        return Err(self.err("missing `endcase`"));
                    }
                    let labels = if self.eat_keyword(Keyword::Default) {
                        self.eat_punct(Punct::Colon);
                        Vec::new()
                    } else {
                        let mut labels = vec![self.expr()?];
                        while self.eat_punct(Punct::Comma) {
                            labels.push(self.expr()?);
                        }
                        self.expect_punct(Punct::Colon)?;
                        labels
                    };
                    let body = self.stmt()?;
                    arms.push(CaseArm { labels, body });
                }
                Ok(Stmt::Case { expr, arms })
            }
            Some(Token::Keyword(Keyword::For)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = Box::new(self.simple_assign_stmt()?);
                self.expect_punct(Punct::Semi)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                let step = Box::new(self.simple_assign_stmt()?);
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Some(Token::Punct(Punct::Hash)) => {
                self.bump();
                let n = self.expect_number()?;
                let delay = n
                    .value
                    .to_u64()
                    .ok_or_else(|| self.err("delay must be a known constant"))?;
                let stmt = if self.eat_punct(Punct::Semi) {
                    None
                } else {
                    Some(Box::new(self.stmt()?))
                };
                Ok(Stmt::Delay { delay, stmt })
            }
            Some(Token::SysName(_)) => {
                let Some(Token::SysName(name)) = self.bump() else {
                    unreachable!()
                };
                let mut args = Vec::new();
                if self.eat_punct(Punct::LParen) && !self.eat_punct(Punct::RParen) {
                    loop {
                        match self.peek() {
                            Some(Token::Str(_)) => {
                                let Some(Token::Str(s)) = self.bump() else {
                                    unreachable!()
                                };
                                args.push(SysArg::Str(s));
                            }
                            _ => args.push(SysArg::Expr(self.expr()?)),
                        }
                        if self.eat_punct(Punct::Comma) {
                            continue;
                        }
                        self.expect_punct(Punct::RParen)?;
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::SysCall { name, args })
            }
            Some(Token::Punct(Punct::Semi)) => {
                self.bump();
                Ok(Stmt::Empty)
            }
            _ => {
                let s = self.simple_assign_stmt()?;
                self.expect_punct(Punct::Semi)?;
                Ok(s)
            }
        }
    }

    /// An assignment without the trailing semicolon (used by `for` headers).
    fn simple_assign_stmt(&mut self) -> Result<Stmt, ParseError> {
        let lhs = self.lvalue()?;
        if self.eat_punct(Punct::Assign) {
            let rhs = self.expr()?;
            Ok(Stmt::Blocking(lhs, rhs))
        } else if self.eat_punct(Punct::NonBlocking) {
            let rhs = self.expr()?;
            Ok(Stmt::NonBlocking(lhs, rhs))
        } else {
            Err(self.err("expected `=` or `<=` in assignment"))
        }
    }

    fn lvalue(&mut self) -> Result<LValue, ParseError> {
        if self.eat_punct(Punct::LBrace) {
            let mut parts = Vec::new();
            loop {
                parts.push(self.lvalue()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RBrace)?;
            return Ok(LValue::Concat(parts));
        }
        let name = self.expect_ident()?;
        if self.eat_punct(Punct::LBracket) {
            let first = self.expr()?;
            if self.eat_punct(Punct::Colon) {
                let msb = self.part_msb(&first)?;
                let lsb = self.const_int()?;
                self.expect_punct(Punct::RBracket)?;
                Ok(LValue::Part(name, msb, lsb))
            } else if self.eat_punct(Punct::PlusColon) {
                let w = self.const_int()?;
                if w <= 0 {
                    return Err(self.err("indexed part width must be positive"));
                }
                self.expect_punct(Punct::RBracket)?;
                Ok(LValue::IndexedPart(name, Box::new(first), w as usize))
            } else {
                self.expect_punct(Punct::RBracket)?;
                Ok(LValue::Bit(name, Box::new(first)))
            }
        } else {
            Ok(LValue::Ident(name))
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if self.eat_punct(Punct::Question) {
            let t = self.ternary()?;
            self.expect_punct(Punct::Colon)?;
            let f = self.ternary()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(f)))
        } else {
            Ok(cond)
        }
    }

    fn binop_at(&self, level: u8) -> Option<BinaryOp> {
        use BinaryOp::*;
        use Punct as P;
        let p = match self.peek() {
            Some(Token::Punct(p)) => *p,
            _ => return None,
        };
        let (op, lv) = match p {
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
        };
        if lv == level {
            Some(op)
        } else {
            None
        }
    }

    fn binary(&mut self, level: u8) -> Result<Expr, ParseError> {
        if level > 9 {
            return self.unary();
        }
        let mut lhs = self.binary(level + 1)?;
        while let Some(op) = self.binop_at(level) {
            self.bump();
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        use Punct as P;
        let op = match self.peek() {
            Some(Token::Punct(P::Plus)) => Some(UnaryOp::Plus),
            Some(Token::Punct(P::Minus)) => Some(UnaryOp::Neg),
            Some(Token::Punct(P::Tilde)) => Some(UnaryOp::Not),
            Some(Token::Punct(P::Bang)) => Some(UnaryOp::LogicNot),
            Some(Token::Punct(P::Amp)) => Some(UnaryOp::RedAnd),
            Some(Token::Punct(P::Pipe)) => Some(UnaryOp::RedOr),
            Some(Token::Punct(P::Caret)) => Some(UnaryOp::RedXor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let e = self.unary()?;
            return Ok(Expr::Unary(op, Box::new(e)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Number(_)) => {
                let Some(Token::Number(n)) = self.bump() else {
                    unreachable!()
                };
                Ok(Expr::Literal {
                    value: n.value,
                    signed: n.signed,
                })
            }
            Some(Token::Punct(Punct::LParen)) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Some(Token::Punct(Punct::LBrace)) => {
                self.bump();
                let first = self.expr()?;
                if self.peek() == Some(&Token::Punct(Punct::LBrace)) {
                    // replication `{n{e}}`
                    let n = const_expr_i64(&first)
                        .ok_or_else(|| self.err("replication count must be constant"))?;
                    if n <= 0 || n > 4096 {
                        return Err(self.err("replication count out of range"));
                    }
                    self.bump(); // inner `{`
                    let inner = self.expr()?;
                    let mut inner_parts = vec![inner];
                    while self.eat_punct(Punct::Comma) {
                        inner_parts.push(self.expr()?);
                    }
                    self.expect_punct(Punct::RBrace)?;
                    self.expect_punct(Punct::RBrace)?;
                    let body = if inner_parts.len() == 1 {
                        inner_parts.pop().expect("one element")
                    } else {
                        Expr::Concat(inner_parts)
                    };
                    return Ok(Expr::Repl(n as usize, Box::new(body)));
                }
                let mut parts = vec![first];
                while self.eat_punct(Punct::Comma) {
                    parts.push(self.expr()?);
                }
                self.expect_punct(Punct::RBrace)?;
                if parts.len() == 1 {
                    Ok(parts.pop().expect("one element"))
                } else {
                    Ok(Expr::Concat(parts))
                }
            }
            Some(Token::Ident(_)) => {
                let name = self.expect_ident()?;
                if self.eat_punct(Punct::LBracket) {
                    let first = self.expr()?;
                    if self.eat_punct(Punct::Colon) {
                        let msb = self.part_msb(&first)?;
                        let lsb = self.const_int()?;
                        self.expect_punct(Punct::RBracket)?;
                        Ok(Expr::Part(name, msb, lsb))
                    } else if self.eat_punct(Punct::PlusColon) {
                        let w = self.const_int()?;
                        if w <= 0 {
                            return Err(self.err("indexed part width must be positive"));
                        }
                        self.expect_punct(Punct::RBracket)?;
                        Ok(Expr::IndexedPart(name, Box::new(first), w as usize))
                    } else {
                        self.expect_punct(Punct::RBracket)?;
                        Ok(Expr::Bit(name, Box::new(first)))
                    }
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            other => Err(self.err(format!(
                "expected expression, found {}",
                other.map_or("end of input".to_string(), |t| format!("`{t}`"))
            ))),
        }
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
