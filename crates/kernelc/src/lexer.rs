//! Lexer for the PEDF kernel language.
//!
//! The language is the restricted C subset the paper's filters are written
//! in (§IV-C): scalar arithmetic, control flow, struct locals and the
//! `pedf.io.* / pedf.data.* / pedf.attribute.*` framework accesses. Tokens
//! carry their source line so the code generator can emit a faithful line
//! table — source-level debugging of kernels is half the point.
//!
//! The lexer walks the source's bytes and hands out [`Tok`]s that borrow
//! it: an identifier is a slice of the source, and a token is `Copy`, so
//! lexing allocates only the token vector. Every token the language has is
//! ASCII; a multi-byte character is decoded only where it can stand,
//! which is as whitespace (skipped, as `char::is_whitespace` says) or in a
//! comment, and anywhere else it is the "unexpected character" error.
//! Columns still count characters: each line keeps how many bytes its
//! multi-byte characters add beyond one.

use std::fmt;

/// A lexical token, borrowing identifiers from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'src> {
    Ident(&'src str),
    Num(u32),
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    // operators
    Assign,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    // keywords
    KwVoid,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwBreak,
    KwContinue,
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Num(n) => write!(f, "`{n}`"),
            Tok::Eof => write!(f, "end of file"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// A token with its 1-based source line and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned<'src> {
    pub tok: Tok<'src>,
    pub line: u32,
    pub col: u32,
}

/// Lexing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.col, self.msg)
    }
}

/// Is `b` a UTF-8 continuation byte (one a multi-byte character adds)?
fn continuation(b: u8) -> usize {
    usize::from(b & 0xc0 == 0x80)
}

/// The operator or punctuation token starting at `i`, with its width.
fn punct<'src>(bytes: &[u8], i: usize) -> Option<(Tok<'src>, usize)> {
    let two = match (bytes[i], bytes.get(i + 1)) {
        (b'<', Some(b'<')) => Some(Tok::Shl),
        (b'>', Some(b'>')) => Some(Tok::Shr),
        (b'<', Some(b'=')) => Some(Tok::Le),
        (b'>', Some(b'=')) => Some(Tok::Ge),
        (b'=', Some(b'=')) => Some(Tok::EqEq),
        (b'!', Some(b'=')) => Some(Tok::Ne),
        (b'&', Some(b'&')) => Some(Tok::AndAnd),
        (b'|', Some(b'|')) => Some(Tok::OrOr),
        _ => None,
    };
    if let Some(t) = two {
        return Some((t, 2));
    }
    let one = match bytes[i] {
        b'(' => Tok::LParen,
        b')' => Tok::RParen,
        b'{' => Tok::LBrace,
        b'}' => Tok::RBrace,
        b'[' => Tok::LBracket,
        b']' => Tok::RBracket,
        b';' => Tok::Semi,
        b',' => Tok::Comma,
        b'.' => Tok::Dot,
        b'=' => Tok::Assign,
        b'+' => Tok::Plus,
        b'-' => Tok::Minus,
        b'*' => Tok::Star,
        b'/' => Tok::Slash,
        b'%' => Tok::Percent,
        b'&' => Tok::Amp,
        b'|' => Tok::Pipe,
        b'^' => Tok::Caret,
        b'~' => Tok::Tilde,
        b'!' => Tok::Bang,
        b'<' => Tok::Lt,
        b'>' => Tok::Gt,
        _ => return None,
    };
    Some((one, 1))
}

/// Tokenize `src`. Comments (`//` and `/* */`) are skipped; an unterminated
/// block comment is an error.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let bytes = src.as_bytes();
    let n = bytes.len();
    // Kernels run at about one token per four or five bytes.
    let mut out = Vec::with_capacity(n / 4 + 1);
    let mut i = 0;
    let mut line: u32 = 1;
    // Byte offset of the current line's first character, and how many
    // continuation bytes the line has before `i`: columns are 1-based
    // character offsets from the line's start.
    let mut line_start = 0usize;
    let mut extra = 0usize;

    while i < n {
        let b = bytes[i];
        let col = (i - line_start - extra + 1) as u32;
        match b {
            b'\n' => {
                line += 1;
                i += 1;
                line_start = i;
                extra = 0;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < n && bytes[i] != b'\n' {
                    extra += continuation(bytes[i]);
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = line;
                i += 2;
                loop {
                    if i + 1 >= n {
                        return Err(LexError {
                            line: start,
                            col,
                            msg: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        line_start = i + 1;
                        extra = 0;
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    extra += continuation(bytes[i]);
                    i += 1;
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let tok = match &src[start..i] {
                    "void" => Tok::KwVoid,
                    "if" => Tok::KwIf,
                    "else" => Tok::KwElse,
                    "while" => Tok::KwWhile,
                    "for" => Tok::KwFor,
                    "return" => Tok::KwReturn,
                    "break" => Tok::KwBreak,
                    "continue" => Tok::KwContinue,
                    word => Tok::Ident(word),
                };
                out.push(Spanned { tok, line, col });
            }
            b if b.is_ascii_digit() => {
                let start = i;
                let value = if b == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'X')) {
                    i += 2;
                    let hs = i;
                    while i < n && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    if hs == i {
                        return Err(LexError {
                            line,
                            col,
                            msg: "empty hex literal".into(),
                        });
                    }
                    let s = &src[hs..i];
                    u32::from_str_radix(s, 16).map_err(|_| LexError {
                        line,
                        col,
                        msg: format!("hex literal 0x{s} out of range"),
                    })?
                } else {
                    while i < n && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let s = &src[start..i];
                    s.parse::<u32>().map_err(|_| LexError {
                        line,
                        col,
                        msg: format!("literal {s} out of range"),
                    })?
                };
                out.push(Spanned {
                    tok: Tok::Num(value),
                    line,
                    col,
                });
            }
            _ => {
                // `i` is on a character boundary: every arm above stops
                // on an ASCII byte or at the end.
                let c = src[i..].chars().next().expect("i < n");
                if c.is_whitespace() {
                    i += c.len_utf8();
                    extra += c.len_utf8() - 1;
                    continue;
                }
                let Some((tok, width)) = punct(bytes, i) else {
                    return Err(LexError {
                        line,
                        col,
                        msg: format!("unexpected character `{c}`"),
                    });
                };
                out.push(Spanned { tok, line, col });
                i += width;
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
        col: (i - line_start - extra + 1) as u32,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_idents_numbers() {
        assert_eq!(
            toks("void work() { U32 x = 0x1F; }"),
            vec![
                Tok::KwVoid,
                Tok::Ident("work"),
                Tok::LParen,
                Tok::RParen,
                Tok::LBrace,
                Tok::Ident("U32"),
                Tok::Ident("x"),
                Tok::Assign,
                Tok::Num(31),
                Tok::Semi,
                Tok::RBrace,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            toks("a <= b >> 2 == c && d"),
            vec![
                Tok::Ident("a"),
                Tok::Le,
                Tok::Ident("b"),
                Tok::Shr,
                Tok::Num(2),
                Tok::EqEq,
                Tok::Ident("c"),
                Tok::AndAnd,
                Tok::Ident("d"),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let spanned = lex("a; // one\n/* two\nthree */ b;").unwrap();
        let b = spanned.iter().find(|s| s.tok == Tok::Ident("b")).unwrap();
        assert_eq!(b.line, 3);
    }

    #[test]
    fn pedf_dotted_access() {
        assert_eq!(
            toks("pedf.io.an_input[n]"),
            vec![
                Tok::Ident("pedf"),
                Tok::Dot,
                Tok::Ident("io"),
                Tok::Dot,
                Tok::Ident("an_input"),
                Tok::LBracket,
                Tok::Ident("n"),
                Tok::RBracket,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn errors_carry_lines() {
        let e = lex("a;\n@").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(lex("/* never ends").is_err());
        assert!(lex("0x").is_err());
        assert!(lex("99999999999").is_err());
    }

    #[test]
    fn tokens_and_errors_carry_columns() {
        let spanned = lex("ab = 7;\n  cd;").unwrap();
        let at = |t: &Tok| spanned.iter().find(|s| s.tok == *t).unwrap();
        assert_eq!(at(&Tok::Ident("ab")).col, 1);
        assert_eq!(at(&Tok::Assign).col, 4);
        assert_eq!(at(&Tok::Num(7)).col, 6);
        assert_eq!(at(&Tok::Ident("cd")).col, 3);

        let e = lex("x;\n  @").unwrap_err();
        assert_eq!((e.line, e.col), (2, 3));
        assert_eq!(e.to_string(), "line 2:3: unexpected character `@`");
    }
}
