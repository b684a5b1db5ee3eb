//! A minimal Rust lexer over comment/string-stripped source.
//!
//! The input is the output of the crate's comment/string stripper
//! (every comment and literal *content* already blanked to spaces, line
//! boundaries preserved), so the lexer never has to reason about
//! escapes: a string literal is a pair of quotes around spaces, a char
//! literal likewise, and everything else is idents, numbers and
//! punctuation. Each token carries its 1-based source line, which is
//! all the downstream tree/symbol passes need for diagnostics.

/// The coarse token classes the semantic passes distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `lock`, `HashMap`, ...).
    Ident,
    /// A numeric literal (including hex/underscore forms).
    Num,
    /// A (blanked) string literal.
    Str,
    /// A (blanked) char literal.
    Char,
    /// A lifetime (`'a`).
    Lifetime,
    /// Punctuation; multi-char operators `::`, `->`, `=>`, `..`, `&&`,
    /// `||`, `<=`, `>=`, `==`, `!=` are single tokens.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Token text (empty for blanked `Str`/`Char` literals).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

impl Tok {
    /// Whether this token is the identifier `word`.
    #[must_use]
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }

    /// Whether this token is the punctuation `p`.
    #[must_use]
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }
}

/// Multi-character operators lexed as one token.
const JOINED: [&str; 10] = ["::", "->", "=>", "..", "&&", "||", "<=", ">=", "==", "!="];

/// Lexes stripped source lines (see `strip_source` in the crate root)
/// into a flat token stream.
#[must_use]
pub fn lex(stripped: &[String]) -> Vec<Tok> {
    let mut toks = Vec::new();
    let mut in_str = false;
    for (idx, line) in stripped.iter().enumerate() {
        let line_no = idx + 1;
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        if in_str {
            // Inside a multi-line string: contents are blanked, so just
            // look for the closing quote.
            while i < chars.len() && chars[i] != '"' {
                i += 1;
            }
            if i >= chars.len() {
                continue;
            }
            in_str = false;
            i += 1;
        }
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c == '"' {
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: line_no,
                });
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '"' {
                    j += 1;
                }
                if j < chars.len() {
                    i = j + 1;
                } else {
                    in_str = true;
                    i = chars.len();
                }
                continue;
            }
            if c == '\'' {
                // A stripped char literal is quotes around spaces; a
                // lifetime is a quote glued to an identifier.
                let mut j = i + 1;
                while j < chars.len() && chars[j] == ' ' {
                    j += 1;
                }
                if j > i + 1 && j < chars.len() && chars[j] == '\'' {
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line: line_no,
                    });
                    i = j + 1;
                } else {
                    let mut name = String::new();
                    let mut k = i + 1;
                    while k < chars.len() && is_ident_char(chars[k]) {
                        name.push(chars[k]);
                        k += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: name,
                        line: line_no,
                    });
                    i = k;
                }
                continue;
            }
            if c.is_ascii_digit() {
                let mut text = String::new();
                let mut j = i;
                while j < chars.len() {
                    let ch = chars[j];
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        text.push(ch);
                        j += 1;
                    } else if ch == '.'
                        && !text.contains('.')
                        && chars.get(j + 1).is_some_and(char::is_ascii_digit)
                    {
                        text.push('.');
                        j += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text,
                    line: line_no,
                });
                i = j;
                continue;
            }
            if is_ident_start(c) {
                let mut text = String::new();
                let mut j = i;
                while j < chars.len() && is_ident_char(chars[j]) {
                    text.push(chars[j]);
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text,
                    line: line_no,
                });
                i = j;
                continue;
            }
            // Punctuation, joining the two-char operators.
            let pair: String = chars[i..chars.len().min(i + 2)].iter().collect();
            if JOINED.contains(&pair.as_str()) {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: pair,
                    line: line_no,
                });
                i += 2;
            } else {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line: line_no,
                });
                i += 1;
            }
        }
    }
    toks
}

/// Index of the token matching `open` (one of `(`/`[`/`{`) at `at`,
/// or `toks.len()` when unbalanced.
#[must_use]
pub fn match_delim(toks: &[Tok], at: usize) -> usize {
    let (open, close) = match toks.get(at).map(|t| t.text.as_str()) {
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        Some("{") => ("{", "}"),
        _ => return toks.len(),
    };
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(at) {
        if t.kind == TokKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
    }
    toks.len()
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip_source;

    fn lex_src(source: &str) -> Vec<Tok> {
        lex(&strip_source(source))
    }

    #[test]
    fn idents_numbers_and_joined_punct() {
        let toks = lex_src("let x = a.b_c :: <u8> (0xFF, 1_000) -> 1.5;\n");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            [
                "let", "x", "=", "a", ".", "b_c", "::", "<", "u8", ">", "(", "0xFF", ",",
                "1_000", ")", "->", "1.5", ";"
            ]
        );
    }

    #[test]
    fn strings_chars_and_lifetimes() {
        let toks = lex_src("fn f<'a>(s: &'a str) { g(\"HashMap\", 'x'); }\n");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Str));
        assert!(toks.iter().any(|t| t.kind == TokKind::Char));
        // Blanked literal contents never leak tokens.
        assert!(!toks.iter().any(|t| t.text == "HashMap"));
    }

    #[test]
    fn multiline_strings_keep_following_lines() {
        let toks = lex_src("let s = \"first\nsecond\";\nlet t = 1;\n");
        assert!(toks.iter().any(|t| t.is_ident("t") && t.line == 3));
    }

    #[test]
    fn ranges_are_not_decimals() {
        let toks = lex_src("for i in 0..10 {}\n");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["for", "i", "in", "0", "..", "10", "{", "}"]);
    }

    #[test]
    fn delimiters_match() {
        let toks = lex_src("f(a, (b), [c{d}])\n");
        assert_eq!(match_delim(&toks, 1), toks.len() - 1);
    }
}
