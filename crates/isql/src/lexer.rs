//! A hand-rolled lexer for I-SQL.

use std::fmt;

/// A lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Token {
    /// Identifier or keyword (keywords are recognized case-insensitively by
    /// the parser; the original spelling is preserved).
    Ident(String),
    /// Unsigned integer literal. The parser applies a leading `-`, so
    /// `-9223372036854775808` (`i64::MIN`) reads as a literal too.
    Int(u64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
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

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Str(s) => write!(f, "'{s}'"),
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

/// A lexing/parsing error with a human-readable message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SqlError(pub String);

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error: {}", self.0)
    }
}

impl std::error::Error for SqlError {}

/// Tokenize an I-SQL script. `--` comments run to end of line.
pub fn lex(input: &str) -> Result<Vec<Token>, SqlError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_query() {
        let toks = lex("select certain Arr from HFlights choice of Dep;").unwrap();
        assert_eq!(toks.len(), 9);
        assert_eq!(toks[0], Token::Ident("select".into()));
        assert_eq!(toks.last(), Some(&Token::Semicolon));
    }

    #[test]
    fn strings_and_escapes() {
        let toks = lex("where Skill = 'Web' and X = 'O''Brien'").unwrap();
        assert!(toks.contains(&Token::Str("Web".into())));
        assert!(toks.contains(&Token::Str("O'Brien".into())));
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
}
