//! Recursive-descent parser for the grammar of Figure 4 plus the action
//! language of §3.3.

use crate::ast::*;
use crate::lexer::{Lexer, ParseError, Token, TokenKind};

/// Parse a complete specification.
pub fn parse(source: &str) -> Result<Spec, ParseError> {
    let tokens = Lexer::new(source).tokenize()?;
    Parser { tokens, pos: 0 }.spec()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError {
            line: t.line,
            col: t.col,
            msg: msg.into(),
        }
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if &self.peek().kind == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), ParseError> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kind:?}, found {:?}", self.peek().kind)))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().kind.clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    /// Is the next token this keyword?
    fn at_word(&self, word: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s == word)
    }

    fn eat_word(&mut self, word: &str) -> bool {
        if self.at_word(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, word: &str) -> Result<(), ParseError> {
        if self.eat_word(word) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{word}', found {:?}", self.peek().kind)))
        }
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.peek().kind {
            TokenKind::Int(v) => {
                self.bump();
                Ok(v)
            }
            _ => Err(self.err("expected integer literal")),
        }
    }

    // ---- top level ----------------------------------------------------

    fn spec(&mut self) -> Result<Spec, ParseError> {
        self.expect_word("protocol")?;
        let name = self.ident()?;
        let uses = if self.eat_word("uses") {
            Some(self.ident()?)
        } else {
            None
        };
        self.eat(&TokenKind::Semi);

        self.expect_word("addressing")?;
        let addressing = match self.ident()?.as_str() {
            "hash" => AddressingMode::Hash,
            "ip" => AddressingMode::Ip,
            other => return Err(self.err(format!("unknown addressing mode '{other}'"))),
        };
        self.eat(&TokenKind::Semi);

        let mut trace = TraceMode::Off;
        if self.eat_word("trace_") {
            trace = match self.ident()?.as_str() {
                "off" => TraceMode::Off,
                "low" => TraceMode::Low,
                "med" => TraceMode::Med,
                "high" => TraceMode::High,
                other => return Err(self.err(format!("unknown trace level '{other}'"))),
            };
            self.eat(&TokenKind::Semi);
        }

        let mut spec = Spec {
            name,
            uses,
            addressing,
            trace,
            constants: Vec::new(),
            states: Vec::new(),
            neighbor_types: Vec::new(),
            transports: Vec::new(),
            messages: Vec::new(),
            state_vars: Vec::new(),
            transitions: Vec::new(),
        };

        while !matches!(self.peek().kind, TokenKind::Eof) {
            let section = self.ident()?;
            match section.as_str() {
                "constants" => self.constants(&mut spec)?,
                "states" => self.states(&mut spec)?,
                "neighbor_types" => self.neighbor_types(&mut spec)?,
                "transports" => self.transports(&mut spec)?,
                "messages" => self.messages(&mut spec)?,
                "state_variables" | "auxiliary_data" => self.state_vars(&mut spec)?,
                "transitions" => self.transitions(&mut spec)?,
                other => return Err(self.err(format!("unknown section '{other}'"))),
            }
        }
        Ok(spec)
    }

    fn constants(&mut self, spec: &mut Spec) -> Result<(), ParseError> {
        self.expect(TokenKind::LBrace)?;
        while !self.eat(&TokenKind::RBrace) {
            let name = self.ident()?;
            self.expect(TokenKind::Assign)?;
            let neg = self.eat(&TokenKind::Minus);
            let mut v = self.int()?;
            if neg {
                v = -v;
            }
            self.expect(TokenKind::Semi)?;
            spec.constants.push((name, v));
        }
        Ok(())
    }

    fn states(&mut self, spec: &mut Spec) -> Result<(), ParseError> {
        self.expect(TokenKind::LBrace)?;
        while !self.eat(&TokenKind::RBrace) {
            let s = self.ident()?;
            self.expect(TokenKind::Semi)?;
            spec.states.push(s);
        }
        Ok(())
    }

    fn type_name(&mut self) -> Result<TypeName, ParseError> {
        let w = self.ident()?;
        Ok(match w.as_str() {
            "int" => TypeName::Int,
            "bool" => TypeName::Bool,
            "node" => TypeName::Node,
            "key" => TypeName::Key,
            "payload" => TypeName::Payload,
            other => TypeName::Neighbor(other.to_string()),
        })
    }

    fn fields(&mut self) -> Result<Vec<Field>, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let mut out = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            let at = (self.peek().line, self.peek().col);
            let ty = self.type_name()?;
            let name = self.ident()?;
            self.expect(TokenKind::Semi)?;
            out.push(Field { ty, name, at });
        }
        Ok(out)
    }

    fn neighbor_types(&mut self, spec: &mut Spec) -> Result<(), ParseError> {
        self.expect(TokenKind::LBrace)?;
        while !self.eat(&TokenKind::RBrace) {
            let name = self.ident()?;
            let max = if let TokenKind::Int(v) = self.peek().kind {
                self.bump();
                v.max(1) as usize
            } else {
                1
            };
            let fields = self.fields()?;
            spec.neighbor_types.push(NeighborType { name, max, fields });
        }
        Ok(())
    }

    fn transports(&mut self, spec: &mut Spec) -> Result<(), ParseError> {
        self.expect(TokenKind::LBrace)?;
        while !self.eat(&TokenKind::RBrace) {
            let kind = match self.ident()?.as_str() {
                "TCP" => TransportKindDecl::Tcp,
                "UDP" => TransportKindDecl::Udp,
                "SWP" => TransportKindDecl::Swp,
                other => return Err(self.err(format!("unknown transport kind '{other}'"))),
            };
            let name = self.ident()?;
            self.expect(TokenKind::Semi)?;
            spec.transports.push(TransportDecl { kind, name });
        }
        Ok(())
    }

    fn messages(&mut self, spec: &mut Spec) -> Result<(), ParseError> {
        self.expect(TokenKind::LBrace)?;
        while !self.eat(&TokenKind::RBrace) {
            let first = self.ident()?;
            // `<transport> <name> { .. }` or `<name> { .. }` — decide by
            // whether another identifier follows.
            let (transport, name) = if matches!(self.peek().kind, TokenKind::Ident(_)) {
                (Some(first), self.ident()?)
            } else {
                (None, first)
            };
            let fields = self.fields()?;
            spec.messages.push(MessageDecl {
                transport,
                name,
                fields,
            });
        }
        Ok(())
    }

    fn state_vars(&mut self, spec: &mut Spec) -> Result<(), ParseError> {
        self.expect(TokenKind::LBrace)?;
        while !self.eat(&TokenKind::RBrace) {
            if self.eat_word("timer") {
                let name = self.ident()?;
                let (period_ms, period_const) = match self.peek().kind.clone() {
                    TokenKind::Int(v) => {
                        self.bump();
                        (Some(v), None)
                    }
                    // A constant name in declaration position: resolve it
                    // against the constants declared so far.
                    TokenKind::Ident(c) => {
                        self.bump();
                        match spec.constants.iter().find(|(n, _)| *n == c) {
                            Some(&(_, v)) => (Some(v), Some(c)),
                            None => {
                                return Err(self.err(format!(
                                    "timer '{name}' period references unknown constant '{c}' \
                                     (constants must be declared before use)"
                                )))
                            }
                        }
                    }
                    _ => (None, None),
                };
                self.expect(TokenKind::Semi)?;
                spec.state_vars.push(StateVar::Timer {
                    name,
                    period_ms,
                    period_const,
                });
                continue;
            }
            let fail_detect = self.eat_word("fail_detect");
            let ty = self.type_name()?;
            let name = self.ident()?;
            self.expect(TokenKind::Semi)?;
            match ty {
                TypeName::Neighbor(t) => spec.state_vars.push(StateVar::Neighbor {
                    ty: t,
                    name,
                    fail_detect,
                }),
                scalar => {
                    if fail_detect {
                        return Err(self.err("fail_detect applies to neighbor lists only"));
                    }
                    spec.state_vars.push(StateVar::Scalar { ty: scalar, name });
                }
            }
        }
        Ok(())
    }

    // ---- transitions ---------------------------------------------------

    fn transitions(&mut self, spec: &mut Spec) -> Result<(), ParseError> {
        self.expect(TokenKind::LBrace)?;
        while !self.eat(&TokenKind::RBrace) {
            let scope = self.state_expr()?;
            let trigger = if self.eat_word("API") {
                Trigger::Api(self.ident()?)
            } else if self.eat_word("timer") {
                Trigger::Timer(self.ident()?)
            } else if self.eat_word("recv") {
                Trigger::Recv(self.ident()?)
            } else if self.eat_word("forward") {
                Trigger::Forward(self.ident()?)
            } else if self.eat_word("error") {
                Trigger::Error
            } else {
                return Err(self.err("expected API/timer/recv/forward/error trigger"));
            };
            let mut locking = LockingOpt::Write;
            if self.eat(&TokenKind::LBracket) {
                while !self.eat(&TokenKind::RBracket) {
                    self.expect_word("locking")?;
                    locking = match self.ident()?.as_str() {
                        "read" => LockingOpt::Read,
                        "write" => LockingOpt::Write,
                        other => return Err(self.err(format!("unknown locking '{other}'"))),
                    };
                    self.eat(&TokenKind::Semi);
                }
            }
            let body = self.block()?;
            spec.transitions.push(Transition {
                scope,
                trigger,
                locking,
                body,
            });
        }
        Ok(())
    }

    /// `any`, a state name, `!expr`, `(e|e|..)`.
    fn state_expr(&mut self) -> Result<StateExpr, ParseError> {
        let mut lhs = self.state_atom()?;
        while self.eat(&TokenKind::Pipe) {
            let rhs = self.state_atom()?;
            lhs = StateExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn state_atom(&mut self) -> Result<StateExpr, ParseError> {
        if self.eat(&TokenKind::Bang) {
            return Ok(StateExpr::Not(Box::new(self.state_atom()?)));
        }
        if self.eat(&TokenKind::LParen) {
            let e = self.state_expr()?;
            self.expect(TokenKind::RParen)?;
            return Ok(e);
        }
        let w = self.ident()?;
        if w == "any" {
            Ok(StateExpr::Any)
        } else {
            Ok(StateExpr::Is(w))
        }
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(TokenKind::LBrace)?;
        let mut out = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        if self.eat_word("if") {
            self.expect(TokenKind::LParen)?;
            let cond = self.expr()?;
            self.expect(TokenKind::RParen)?;
            let then = self.block()?;
            let els = if self.eat_word("else") {
                if self.at_word("if") {
                    vec![self.stmt()?]
                } else {
                    self.block()?
                }
            } else {
                Vec::new()
            };
            return Ok(Stmt::If { cond, then, els });
        }
        if self.eat_word("foreach") {
            self.expect(TokenKind::LParen)?;
            let var = self.ident()?;
            self.expect_word("in")?;
            let list = self.ident()?;
            self.expect(TokenKind::RParen)?;
            let body = self.block()?;
            return Ok(Stmt::ForEach { var, list, body });
        }
        if self.eat_word("return") {
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::Return);
        }
        if self.eat_word("state_change") {
            self.expect(TokenKind::LParen)?;
            let s = self.ident()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::StateChange(s));
        }
        if self.eat_word("timer_resched") {
            self.expect(TokenKind::LParen)?;
            let name = self.ident()?;
            self.expect(TokenKind::Comma)?;
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::TimerResched(name, e));
        }
        if self.eat_word("timer_cancel") {
            self.expect(TokenKind::LParen)?;
            let name = self.ident()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::TimerCancel(name));
        }
        if self.eat_word("neighbor_add") {
            self.expect(TokenKind::LParen)?;
            let list = self.ident()?;
            self.expect(TokenKind::Comma)?;
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::NeighborAdd(list, e));
        }
        if self.eat_word("neighbor_remove") {
            self.expect(TokenKind::LParen)?;
            let list = self.ident()?;
            self.expect(TokenKind::Comma)?;
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::NeighborRemove(list, e));
        }
        if self.eat_word("neighbor_clear") {
            self.expect(TokenKind::LParen)?;
            let list = self.ident()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::NeighborClear(list));
        }
        if self.eat_word("upcall_notify") {
            self.expect(TokenKind::LParen)?;
            let list = self.ident()?;
            self.expect(TokenKind::Comma)?;
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::UpcallNotify(list, e));
        }
        if self.eat_word("deliver") {
            self.expect(TokenKind::LParen)?;
            let src = self.expr()?;
            self.expect(TokenKind::Comma)?;
            let payload = self.expr()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::Deliver { src, payload });
        }
        if self.eat_word("monitor") {
            self.expect(TokenKind::LParen)?;
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::Monitor(e));
        }
        if self.eat_word("unmonitor") {
            self.expect(TokenKind::LParen)?;
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::Unmonitor(e));
        }
        if self.eat_word("trace") {
            self.expect(TokenKind::LParen)?;
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::Trace(e));
        }
        if self.eat_word("quash") {
            self.expect(TokenKind::LParen)?;
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::Quash);
        }
        if self.eat_word("downcall") {
            self.expect(TokenKind::LParen)?;
            let api = self.ident()?;
            let mut args = Vec::new();
            while self.eat(&TokenKind::Comma) {
                args.push(self.expr()?);
            }
            self.expect(TokenKind::RParen)?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::DownCallApi { api, args });
        }
        // Either `ident = expr;` (assignment) or `msg(dest, args...);`.
        let name = self.ident()?;
        if self.eat(&TokenKind::Assign) {
            let e = self.expr()?;
            self.expect(TokenKind::Semi)?;
            return Ok(Stmt::Assign(name, e));
        }
        if self.eat(&TokenKind::LParen) {
            let mut args = Vec::new();
            if !self.eat(&TokenKind::RParen) {
                loop {
                    args.push(self.expr()?);
                    if self.eat(&TokenKind::RParen) {
                        break;
                    }
                    self.expect(TokenKind::Comma)?;
                }
            }
            self.expect(TokenKind::Semi)?;
            if args.is_empty() {
                return Err(self.err(format!("message send '{name}' needs a destination")));
            }
            let dest = args.remove(0);
            return Ok(Stmt::Send {
                message: name,
                dest,
                args,
            });
        }
        Err(self.err(format!("unexpected statement starting with '{name}'")))
    }

    // ---- expressions -----------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&TokenKind::OrOr) {
            let rhs = self.and_expr()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&TokenKind::AndAnd) {
            let rhs = self.cmp_expr()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek().kind {
            TokenKind::EqEq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&TokenKind::Bang) {
            return Ok(Expr::Not(Box::new(self.unary_expr()?)));
        }
        if self.eat(&TokenKind::Minus) {
            return Ok(Expr::Neg(Box::new(self.unary_expr()?)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        if let TokenKind::Int(v) = self.peek().kind {
            self.bump();
            return Ok(Expr::Int(v));
        }
        if self.eat(&TokenKind::LParen) {
            let e = self.expr()?;
            self.expect(TokenKind::RParen)?;
            return Ok(e);
        }
        let name = self.ident()?;
        match name.as_str() {
            "field" => {
                self.expect(TokenKind::LParen)?;
                let f = self.ident()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Field(f))
            }
            "neighbor_size" => {
                self.expect(TokenKind::LParen)?;
                let l = self.ident()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::NeighborSize(l))
            }
            "neighbor_query" => {
                self.expect(TokenKind::LParen)?;
                let l = self.ident()?;
                self.expect(TokenKind::Comma)?;
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::NeighborQuery(l, Box::new(e)))
            }
            "neighbor_random" => {
                self.expect(TokenKind::LParen)?;
                let l = self.ident()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::NeighborRandom(l))
            }
            "rtt" => {
                self.expect(TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Rtt(Box::new(e)))
            }
            "goodput" => {
                self.expect(TokenKind::LParen)?;
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Goodput(Box::new(e)))
            }
            "ring_dist" => {
                self.expect(TokenKind::LParen)?;
                let a = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let b = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::RingDist(Box::new(a), Box::new(b)))
            }
            "ring_between" => {
                self.expect(TokenKind::LParen)?;
                let x = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let lo = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let hi = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::RingBetween(Box::new(x), Box::new(lo), Box::new(hi)))
            }
            "digit" => {
                self.expect(TokenKind::LParen)?;
                let k = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let i = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let base = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::Digit(Box::new(k), Box::new(i), Box::new(base)))
            }
            "prefix_len" => {
                self.expect(TokenKind::LParen)?;
                let a = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let b = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::PrefixLen(Box::new(a), Box::new(b)))
            }
            "owner_of" => {
                self.expect(TokenKind::LParen)?;
                let k = self.expr()?;
                self.expect(TokenKind::Comma)?;
                let l = self.ident()?;
                self.expect(TokenKind::RParen)?;
                Ok(Expr::OwnerOf(Box::new(k), l))
            }
            _ => Ok(Expr::Var(name)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
        protocol mini;
        addressing hash;
        trace_ low;
        constants { PINT = 500; }
        states { joining; joined; }
        neighbor_types { parent 1 { } kids 4 { int delay; } }
        transports { TCP CTRL; UDP BULK; }
        messages { CTRL join { node who; } BULK data { key src; } }
        state_variables {
            parent papa;
            fail_detect kids children;
            timer q 1000;
            int count;
        }
        transitions {
            any API init {
                count = 0;
                state_change(joining);
            }
            joining recv join [locking read;] {
                if (field(who) == me) { return; }
                neighbor_add(children, from);
            }
            !(joining) timer q {
                count = count + 1;
                timer_resched(q, PINT);
            }
        }
    "#;

    #[test]
    fn parses_mini_spec() {
        let s = parse(MINI).unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.addressing, AddressingMode::Hash);
        assert_eq!(s.trace, TraceMode::Low);
        assert_eq!(s.constants, vec![("PINT".to_string(), 500)]);
        assert_eq!(s.states, vec!["joining", "joined"]);
        assert_eq!(s.neighbor_types.len(), 2);
        assert_eq!(s.neighbor_types[1].max, 4);
        assert_eq!(s.transports.len(), 2);
        assert_eq!(s.messages.len(), 2);
        assert_eq!(s.messages[0].transport.as_deref(), Some("CTRL"));
        assert_eq!(s.state_vars.len(), 4);
        assert_eq!(s.transitions.len(), 3);
    }

    #[test]
    fn uses_clause() {
        let s = parse("protocol scribe uses pastry; addressing hash;").unwrap();
        assert_eq!(s.uses.as_deref(), Some("pastry"));
    }

    #[test]
    fn transition_scoping_and_locking() {
        let s = parse(MINI).unwrap();
        let t = &s.transitions[1];
        assert!(t.scope.matches("joining"));
        assert!(!t.scope.matches("joined"));
        assert_eq!(t.locking, LockingOpt::Read);
        assert!(matches!(&t.trigger, Trigger::Recv(m) if m == "join"));
    }

    #[test]
    fn negated_scope() {
        let s = parse(MINI).unwrap();
        let t = &s.transitions[2];
        assert!(!t.scope.matches("joining"));
        assert!(t.scope.matches("joined"));
    }

    #[test]
    fn fail_detect_flag() {
        let s = parse(MINI).unwrap();
        assert!(matches!(
            &s.state_vars[1],
            StateVar::Neighbor { fail_detect: true, name, .. } if name == "children"
        ));
    }

    #[test]
    fn timer_with_period() {
        let s = parse(MINI).unwrap();
        assert!(matches!(
            &s.state_vars[2],
            StateVar::Timer {
                period_ms: Some(1000),
                ..
            }
        ));
    }

    #[test]
    fn expression_precedence() {
        let s = parse(
            "protocol p; addressing ip; transitions { any API init { x = 1 + 2 * 3 == 7; } }",
        )
        .unwrap();
        let Stmt::Assign(_, e) = &s.transitions[0].body[0] else {
            panic!()
        };
        // (1 + (2*3)) == 7
        let Expr::Bin(BinOp::Eq, lhs, _) = e else {
            panic!("top is ==")
        };
        let Expr::Bin(BinOp::Add, _, rhs) = &**lhs else {
            panic!("lhs is +")
        };
        assert!(matches!(&**rhs, Expr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn message_send_statement() {
        let s = parse(
            "protocol p; addressing ip; messages { hello { node who; } }
             transitions { any API init { hello(me, me); } }",
        )
        .unwrap();
        assert!(matches!(
            &s.transitions[0].body[0],
            Stmt::Send { message, args, .. } if message == "hello" && args.len() == 1
        ));
    }

    #[test]
    fn else_if_chains() {
        let s = parse(
            "protocol p; addressing ip; transitions { any API init {
                if (x == 1) { y = 1; } else if (x == 2) { y = 2; } else { y = 3; }
            } }",
        )
        .unwrap();
        let Stmt::If { els, .. } = &s.transitions[0].body[0] else {
            panic!()
        };
        assert!(matches!(&els[0], Stmt::If { .. }));
    }

    #[test]
    fn timer_period_resolves_constant_name() {
        let s = parse(
            "protocol p; addressing ip;
             constants { BEAT_MS = 750; }
             state_variables { timer t BEAT_MS; }",
        )
        .unwrap();
        assert!(matches!(
            &s.state_vars[0],
            StateVar::Timer {
                period_ms: Some(750),
                ..
            }
        ));
    }

    #[test]
    fn timer_period_unknown_constant_rejected() {
        let e = parse("protocol p; addressing ip; state_variables { timer t NOPE; }").unwrap_err();
        assert!(e.msg.contains("unknown constant 'NOPE'"), "{e}");
    }

    #[test]
    fn quash_and_downcall_statements() {
        let s = parse(
            "protocol s uses base; addressing hash;
             messages { ping { node who; } }
             transitions {
                any forward ping { quash(); }
                any API join { downcall(join, group); downcall(multicast, group, payload); }
             }",
        )
        .unwrap();
        assert!(matches!(&s.transitions[0].body[0], Stmt::Quash));
        assert!(matches!(
            &s.transitions[1].body[0],
            Stmt::DownCallApi { api, args } if api == "join" && args.len() == 1
        ));
        assert!(matches!(
            &s.transitions[1].body[1],
            Stmt::DownCallApi { api, args } if api == "multicast" && args.len() == 2
        ));
    }

    #[test]
    fn rtt_goodput_builtin_expressions() {
        let s = parse(
            "protocol p; addressing ip;
             state_variables { node papa; int x; }
             transitions { any API init { x = rtt(papa) + goodput(papa); } }",
        )
        .unwrap();
        let Stmt::Assign(_, Expr::Bin(BinOp::Add, lhs, rhs)) = &s.transitions[0].body[0] else {
            panic!()
        };
        assert!(matches!(&**lhs, Expr::Rtt(_)));
        assert!(matches!(&**rhs, Expr::Goodput(_)));
    }

    #[test]
    fn key_builtin_expressions() {
        let s = parse(
            "protocol p; addressing hash;
             neighbor_types { succs 4 { } }
             state_variables { key target; int x; bool b; node n; }
             transitions { any API init {
                 x = ring_dist(my_key, target);
                 b = ring_between(target, my_key, target);
                 x = digit(target, 0, 16) + prefix_len(my_key, target);
                 n = owner_of(target, succs);
                 target = my_key + 1024;
             } }",
        )
        .unwrap();
        let body = &s.transitions[0].body;
        assert!(matches!(&body[0], Stmt::Assign(_, Expr::RingDist(_, _))));
        assert!(matches!(
            &body[1],
            Stmt::Assign(_, Expr::RingBetween(_, _, _))
        ));
        let Stmt::Assign(_, Expr::Bin(BinOp::Add, lhs, rhs)) = &body[2] else {
            panic!()
        };
        assert!(matches!(&**lhs, Expr::Digit(_, _, _)));
        assert!(matches!(&**rhs, Expr::PrefixLen(_, _)));
        assert!(matches!(
            &body[3],
            Stmt::Assign(_, Expr::OwnerOf(_, l)) if l == "succs"
        ));
    }

    #[test]
    fn error_messages_carry_position() {
        let e = parse("protocol p; addressing nowhere;").unwrap_err();
        assert!(e.to_string().contains("unknown addressing"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn unknown_section_rejected() {
        let e = parse("protocol p; addressing ip; bogus { }").unwrap_err();
        assert!(e.msg.contains("unknown section"));
    }
}
