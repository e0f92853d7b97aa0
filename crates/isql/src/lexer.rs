//! A hand-rolled lexer for I-SQL.
//!
//! [`lex`] scans the input's bytes and returns [`Token`]s that borrow from
//! it: an identifier is the `&str` span of its spelling, and a string
//! literal is the raw span between its quotes, `''` escapes included. The
//! parser undoes the escapes ([`unescape`]) only where it keeps a
//! literal's value (a `Literal::Str` or a `set local` value), so lexing
//! allocates nothing but the token vector.
//!
//! Every ASCII byte is classified directly. At a byte of 0x80 or above the
//! scan decodes that one `char` and asks `char::is_whitespace`,
//! `is_alphabetic` and `is_alphanumeric`, exactly as a `char`-by-`char`
//! lexer would, so Unicode letters start and continue identifiers,
//! Unicode whitespace (U+00A0, U+3000, …) separates tokens, and any other
//! character is an "unexpected character" error.

use std::fmt;

/// A lexical token, borrowing its text from the lexed input.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Token<'a> {
    /// Identifier or keyword (keywords are recognized case-insensitively by
    /// the parser; the original spelling is preserved).
    Ident(&'a str),
    /// Unsigned integer literal. The parser applies a leading `-`, so
    /// `-9223372036854775808` (`i64::MIN`) reads as a literal too.
    Int(u64),
    /// Single-quoted string literal: the raw text between the quotes, with
    /// its `''` escapes still in place (see [`unescape`]).
    Str(&'a str),
    LParen,
    RParen,
    Comma,
    Semicolon,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Str(raw) => write!(f, "'{}'", unescape(raw)),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
        }
    }
}

/// The value of a string literal's raw span: every `''` becomes `'`.
pub fn unescape(raw: &str) -> String {
    if raw.contains('\'') {
        raw.replace("''", "'")
    } else {
        raw.to_owned()
    }
}

/// A lexing/parsing error with a human-readable message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SqlError(pub String);

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error: {}", self.0)
    }
}

impl std::error::Error for SqlError {}

/// The `char` starting at byte `i` of `input` (a char boundary).
fn char_at(input: &str, i: usize) -> char {
    input[i..].chars().next().expect("i is inside the input")
}

/// Tokenize an I-SQL script. `--` comments run to end of line.
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, SqlError> {
    let bytes = input.as_bytes();
    let at = |i: usize| bytes.get(i).copied();
    // Statements average more than four bytes a token.
    let mut out = Vec::with_capacity(bytes.len() / 4 + 1);
    let mut i = 0;
    while let Some(b) = at(i) {
        let (token, len) = match b {
            b if b.is_ascii() && char::from(b).is_whitespace() => {
                i += 1;
                continue;
            }
            b'-' if at(i + 1) == Some(b'-') => {
                i = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |n| i + n);
                continue;
            }
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b',' => (Token::Comma, 1),
            b';' => (Token::Semicolon, 1),
            b'.' => (Token::Dot, 1),
            b'*' => (Token::Star, 1),
            b'+' => (Token::Plus, 1),
            b'-' => (Token::Minus, 1),
            b'/' => (Token::Slash, 1),
            b'=' => (Token::Eq, 1),
            b'!' if at(i + 1) == Some(b'=') => (Token::Ne, 2),
            b'<' => match at(i + 1) {
                Some(b'=') => (Token::Le, 2),
                Some(b'>') => (Token::Ne, 2),
                _ => (Token::Lt, 1),
            },
            b'>' if at(i + 1) == Some(b'=') => (Token::Ge, 2),
            b'>' => (Token::Gt, 1),
            b'\'' => {
                // The closing quote is the first `'` not followed by
                // another; a `''` pair stays in the raw span.
                let start = i + 1;
                let mut j = start;
                loop {
                    match bytes[j..].iter().position(|&b| b == b'\'') {
                        None => return Err(SqlError("unterminated string literal".into())),
                        Some(n) if at(j + n + 1) == Some(b'\'') => j += n + 2,
                        Some(n) => {
                            j += n;
                            break;
                        }
                    }
                }
                (Token::Str(&input[start..j]), j + 1 - i)
            }
            b'0'..=b'9' => {
                let len = bytes[i..]
                    .iter()
                    .position(|b| !b.is_ascii_digit())
                    .unwrap_or(bytes.len() - i);
                let text = &input[i..i + len];
                let n = text
                    .parse::<u64>()
                    .map_err(|_| SqlError(format!("invalid integer {text}")))?;
                (Token::Int(n), len)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => ident(input, i),
            b if b.is_ascii() => {
                return Err(SqlError(format!(
                    "unexpected character '{}'",
                    char::from(b)
                )))
            }
            _ => {
                let c = char_at(input, i);
                if c.is_whitespace() {
                    i += c.len_utf8();
                    continue;
                }
                if !c.is_alphabetic() {
                    return Err(SqlError(format!("unexpected character '{c}'")));
                }
                ident(input, i)
            }
        };
        out.push(token);
        i += len;
    }
    Ok(out)
}

/// The identifier starting at byte `start` and its byte length: letters,
/// digits and `_`, Unicode ones decoded where a byte is not ASCII.
fn ident(input: &str, start: usize) -> (Token<'_>, usize) {
    let bytes = input.as_bytes();
    let mut i = start;
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_alphanumeric() || b == b'_' {
            i += 1;
        } else if b.is_ascii() {
            break;
        } else {
            let c = char_at(input, i);
            if !c.is_alphanumeric() {
                break;
            }
            i += c.len_utf8();
        }
    }
    (Token::Ident(&input[start..i]), i - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lexes_a_query() {
        let toks = lex("select certain Arr from HFlights choice of Dep;").unwrap();
        assert_eq!(toks.len(), 9);
        assert_eq!(toks[0], Token::Ident("select"));
        assert_eq!(toks.last(), Some(&Token::Semicolon));
    }

    #[test]
    fn strings_and_escapes() {
        let toks = lex("where Skill = 'Web' and X = 'O''Brien'").unwrap();
        assert!(toks.contains(&Token::Str("Web")));
        assert!(toks.contains(&Token::Str("O''Brien")));
        assert_eq!(unescape("O''Brien"), "O'Brien");
        assert_eq!(Token::Str("O''Brien").to_string(), "'O'Brien'");
    }

    #[test]
    fn comparison_operators() {
        let toks = lex("a != b <> c <= d >= e < f > g = h").unwrap();
        let ops: Vec<&Token> = toks
            .iter()
            .filter(|t| !matches!(t, Token::Ident(_)))
            .collect();
        assert_eq!(
            ops,
            vec![
                &Token::Ne,
                &Token::Ne,
                &Token::Le,
                &Token::Ge,
                &Token::Lt,
                &Token::Gt,
                &Token::Eq
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("select * -- everything\nfrom R;").unwrap();
        assert_eq!(toks.len(), 5);
    }

    #[test]
    fn errors() {
        assert!(lex("select 'oops").is_err());
        assert!(lex("select @").is_err());
    }

    #[test]
    fn numbers() {
        let toks = lex("1000000").unwrap();
        assert_eq!(toks, vec![Token::Int(1_000_000)]);
        assert_eq!(
            lex("9223372036854775808").unwrap(),
            vec![Token::Int(1 << 63)]
        );
        assert!(lex("18446744073709551616").is_err());
    }

    /// A token as the lexer before this one produced it: owned text, with
    /// a string literal's escapes undone.
    #[derive(Clone, PartialEq, Debug)]
    enum OwnedToken {
        Ident(String),
        Int(u64),
        Str(String),
        LParen,
        RParen,
        Comma,
        Semicolon,
        Dot,
        Star,
        Plus,
        Minus,
        Slash,
        Eq,
        Ne,
        Lt,
        Le,
        Gt,
        Ge,
    }

    fn owned(t: Token<'_>) -> OwnedToken {
        match t {
            Token::Ident(s) => OwnedToken::Ident(s.to_owned()),
            Token::Int(n) => OwnedToken::Int(n),
            Token::Str(raw) => OwnedToken::Str(unescape(raw)),
            Token::LParen => OwnedToken::LParen,
            Token::RParen => OwnedToken::RParen,
            Token::Comma => OwnedToken::Comma,
            Token::Semicolon => OwnedToken::Semicolon,
            Token::Dot => OwnedToken::Dot,
            Token::Star => OwnedToken::Star,
            Token::Plus => OwnedToken::Plus,
            Token::Minus => OwnedToken::Minus,
            Token::Slash => OwnedToken::Slash,
            Token::Eq => OwnedToken::Eq,
            Token::Ne => OwnedToken::Ne,
            Token::Lt => OwnedToken::Lt,
            Token::Le => OwnedToken::Le,
            Token::Gt => OwnedToken::Gt,
            Token::Ge => OwnedToken::Ge,
        }
    }

    /// The lexer before the byte scan, kept verbatim as the referee: it
    /// collects the input into `char`s and builds a `String` per
    /// identifier and string literal.
    fn reference_lex(input: &str) -> Result<Vec<OwnedToken>, SqlError> {
        use OwnedToken as Token;
        let mut out = Vec::new();
        let bytes: Vec<char> = input.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            let c = bytes[i];
            match c {
                c if c.is_whitespace() => i += 1,
                '-' if bytes.get(i + 1) == Some(&'-') => {
                    while i < bytes.len() && bytes[i] != '\n' {
                        i += 1;
                    }
                }
                '(' => {
                    out.push(Token::LParen);
                    i += 1;
                }
                ')' => {
                    out.push(Token::RParen);
                    i += 1;
                }
                ',' => {
                    out.push(Token::Comma);
                    i += 1;
                }
                ';' => {
                    out.push(Token::Semicolon);
                    i += 1;
                }
                '.' => {
                    out.push(Token::Dot);
                    i += 1;
                }
                '*' => {
                    out.push(Token::Star);
                    i += 1;
                }
                '+' => {
                    out.push(Token::Plus);
                    i += 1;
                }
                '-' => {
                    out.push(Token::Minus);
                    i += 1;
                }
                '/' => {
                    out.push(Token::Slash);
                    i += 1;
                }
                '=' => {
                    out.push(Token::Eq);
                    i += 1;
                }
                '!' if bytes.get(i + 1) == Some(&'=') => {
                    out.push(Token::Ne);
                    i += 2;
                }
                '<' => {
                    if bytes.get(i + 1) == Some(&'=') {
                        out.push(Token::Le);
                        i += 2;
                    } else if bytes.get(i + 1) == Some(&'>') {
                        out.push(Token::Ne);
                        i += 2;
                    } else {
                        out.push(Token::Lt);
                        i += 1;
                    }
                }
                '>' => {
                    if bytes.get(i + 1) == Some(&'=') {
                        out.push(Token::Ge);
                        i += 2;
                    } else {
                        out.push(Token::Gt);
                        i += 1;
                    }
                }
                '\'' => {
                    let mut s = String::new();
                    i += 1;
                    loop {
                        match bytes.get(i) {
                            None => return Err(SqlError("unterminated string literal".into())),
                            Some('\'') if bytes.get(i + 1) == Some(&'\'') => {
                                s.push('\'');
                                i += 2;
                            }
                            Some('\'') => {
                                i += 1;
                                break;
                            }
                            Some(&ch) => {
                                s.push(ch);
                                i += 1;
                            }
                        }
                    }
                    out.push(Token::Str(s));
                }
                c if c.is_ascii_digit() => {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text: String = bytes[start..i].iter().collect();
                    let n = text
                        .parse::<u64>()
                        .map_err(|_| SqlError(format!("invalid integer {text}")))?;
                    out.push(Token::Int(n));
                }
                c if c.is_alphabetic() || c == '_' => {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                        i += 1;
                    }
                    out.push(Token::Ident(bytes[start..i].iter().collect()));
                }
                other => return Err(SqlError(format!("unexpected character '{other}'"))),
            }
        }
        Ok(out)
    }

    /// Script fragments for the referee: SQL, Unicode letters and
    /// whitespace, escapes, unterminated strings, trailing comments, long
    /// integers, every two-character operator and characters no token
    /// starts with.
    const FRAGMENTS: [&str; 48] = [
        "select",
        "SELECT",
        "from",
        "where",
        "R.A",
        "_x1",
        "Zürich",
        "東京",
        "x٣",
        "٣",
        "Ünit",
        "é",
        " ",
        "\n",
        "\t",
        "\u{a0}",
        "\u{3000}",
        "\u{85}",
        "'Web'",
        "'O''Brien'",
        "''",
        "''''",
        "'東''京'",
        "'unterminated",
        "'",
        "-- comment",
        "--",
        "-",
        "0",
        "42",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551615",
        "18446744073709551616",
        "123456789012345678901",
        "!=",
        "<>",
        "<=",
        ">=",
        "<",
        ">",
        "=",
        "!",
        "(),;.*+/",
        "@",
        "—",
        "\u{b}\u{c}\r",
        "\u{1f}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn lexes_as_the_reference(picks in collection::vec(0usize..FRAGMENTS.len(), 0..24)) {
            let script: String = picks.iter().map(|&p| FRAGMENTS[p]).collect();
            let got = lex(&script).map(|ts| ts.into_iter().map(owned).collect::<Vec<_>>());
            prop_assert_eq!(got, reference_lex(&script), "{:?}", script);
        }
    }
}
