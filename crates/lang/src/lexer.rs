//! Tokenizer for the MACEDON language.
//!
//! `.mac` files use a C-flavored surface syntax: identifiers, integer
//! literals, punctuation, `//` line comments and `/* */` block comments.
//! Keywords are recognized by the parser (any identifier may be a
//! keyword in context), which keeps the grammar of Figure 4 faithful —
//! e.g. `states`, `recv`, `API` are plain words.

use std::fmt;

/// Lexical or syntactic error with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Kinds of tokens.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokenKind {
    Ident(String),
    Int(i64),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Assign, // =
    EqEq,   // ==
    Ne,     // !=
    Lt,
    Gt,
    Le,
    Ge,
    Bang,   // !
    AndAnd, // &&
    OrOr,   // ||
    Pipe,   // |
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Dot,
    Eof,
}

/// A token with its source position.
#[derive(Clone, Debug)]
pub struct Token {
    pub kind: TokenKind,
    pub line: u32,
    pub col: u32,
}

/// Streaming tokenizer.
pub struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Tokenize the whole input.
    pub fn tokenize(mut self) -> Result<Vec<Token>, ParseError> {
        let mut out = Vec::new();
        loop {
            let t = self.next_token()?;
            let done = t.kind == TokenKind::Eof;
            out.push(t);
            if done {
                return Ok(out);
            }
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            msg: msg.into(),
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
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => return Err(self.err("unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, ParseError> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let mk = |kind| Token { kind, line, col };
        let Some(c) = self.peek() else {
            return Ok(mk(TokenKind::Eof));
        };
        // Identifiers / keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                self.bump();
            }
            let word = std::str::from_utf8(&self.src[start..self.pos])
                .expect("ascii checked")
                .to_string();
            return Ok(mk(TokenKind::Ident(word)));
        }
        // Integers (decimal and 0x hex).
        if c.is_ascii_digit() {
            let start = self.pos;
            if c == b'0' && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
                self.bump();
                self.bump();
                while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                    self.bump();
                }
                let text = std::str::from_utf8(&self.src[start + 2..self.pos]).expect("ascii");
                let v = i64::from_str_radix(text, 16)
                    .map_err(|_| self.err(format!("bad hex literal 0x{text}")))?;
                return Ok(mk(TokenKind::Int(v)));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
            let v: i64 = text
                .parse()
                .map_err(|_| self.err(format!("bad integer {text}")))?;
            return Ok(mk(TokenKind::Int(v)));
        }
        self.bump();
        let kind = match c {
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'[' => TokenKind::LBracket,
            b']' => TokenKind::RBracket,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b'.' => TokenKind::Dot,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'=' if self.peek() == Some(b'=') => {
                self.bump();
                TokenKind::EqEq
            }
            b'=' => TokenKind::Assign,
            b'!' if self.peek() == Some(b'=') => {
                self.bump();
                TokenKind::Ne
            }
            b'!' => TokenKind::Bang,
            b'<' if self.peek() == Some(b'=') => {
                self.bump();
                TokenKind::Le
            }
            b'<' => TokenKind::Lt,
            b'>' if self.peek() == Some(b'=') => {
                self.bump();
                TokenKind::Ge
            }
            b'>' => TokenKind::Gt,
            b'&' if self.peek() == Some(b'&') => {
                self.bump();
                TokenKind::AndAnd
            }
            b'|' if self.peek() == Some(b'|') => {
                self.bump();
                TokenKind::OrOr
            }
            b'|' => TokenKind::Pipe,
            other => return Err(self.err(format!("unexpected character {:?}", other as char))),
        };
        Ok(Token { kind, line, col })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn words_and_punctuation() {
        use TokenKind::*;
        assert_eq!(
            kinds("states { joining; }"),
            vec![
                Ident("states".into()),
                LBrace,
                Ident("joining".into()),
                Semi,
                RBrace,
                Eof
            ]
        );
    }

    #[test]
    fn integers_decimal_and_hex() {
        use TokenKind::*;
        assert_eq!(kinds("42 0x2A"), vec![Int(42), Int(42), Eof]);
    }

    #[test]
    fn comments_are_skipped() {
        use TokenKind::*;
        assert_eq!(
            kinds("a // comment\n/* block\n comment */ b"),
            vec![Ident("a".into()), Ident("b".into()), Eof]
        );
    }

    #[test]
    fn two_char_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("== != <= >= && || ! | = < >"),
            vec![EqEq, Ne, Le, Ge, AndAnd, OrOr, Bang, Pipe, Assign, Lt, Gt, Eof]
        );
    }

    #[test]
    fn positions_tracked() {
        let toks = Lexer::new("a\n  b").tokenize().unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(Lexer::new("/* nope").tokenize().is_err());
    }

    #[test]
    fn stray_character_errors() {
        let e = Lexer::new("@").tokenize().unwrap_err();
        assert!(e.msg.contains("unexpected"));
    }
}
