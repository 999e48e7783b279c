//! A minimal hand-rolled Rust lexer: just enough token structure for the
//! audit rules, with comments preserved as trivia.
//!
//! The lexer's one job is to make the rule passes immune to the classic
//! grep failure modes: a `partial_cmp` inside a string literal, an
//! `unsafe` inside a doc comment, a `// stop` comment "satisfying" the
//! stop-flag rule. Everything that is not a comment or a literal becomes
//! a token with a line number; literals collapse to an opaque [`Tok::Lit`]
//! so their *contents* can never match a rule.

/// A lexed token kind. Literal contents are deliberately opaque to the
/// ident-matching rules: only [`Tok::Ident`] participates in identifier
/// searches, so nothing inside a string can ever satisfy (or trip) a
/// token rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`unsafe`, `while`, `partial_cmp`, ...).
    Ident(String),
    /// A single punctuation character (`#`, `[`, `(`, `.`, `{`, ...).
    Punct(char),
    /// Char/byte/numeric literal, contents stripped.
    Lit,
    /// String literal (plain, raw, or byte). The contents are preserved —
    /// the workspace model reads trace-name literals out of them — but no
    /// rule matches identifiers inside a `Str`.
    Str(String),
    /// A lifetime such as `'a` (distinct from a char literal).
    Lifetime,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

/// A comment, preserved for suppression markers and allow-justification.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Text after the `//` / `/*` opener (closing `*/` stripped).
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// `true` for `/* ... */` comments.
    pub block: bool,
}

/// Lexer output: the token stream plus comment trivia.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Is `ident` present anywhere in `tokens[range]`?
    pub fn has_ident_containing(&self, range: std::ops::Range<usize>, needle: &str) -> bool {
        self.tokens[range]
            .iter()
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s.to_ascii_lowercase().contains(needle)))
    }
}

/// The identifier at `toks[k]`, if that token is one.
pub(crate) fn ident_at(toks: &[Token], k: usize) -> Option<&str> {
    match toks.get(k).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The punctuation character at `toks[k]`, if that token is one.
pub(crate) fn punct_at(toks: &[Token], k: usize) -> Option<char> {
    match toks.get(k).map(|t| &t.tok) {
        Some(Tok::Punct(c)) => Some(*c),
        _ => None,
    }
}

/// Index of the matching close delimiter for the open delimiter at `open`.
pub(crate) fn matching(toks: &[Token], open: usize, oc: char, cc: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct(c) if c == oc => depth += 1,
            Tok::Punct(c) if c == cc => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => (),
        }
    }
    None
}

/// Lexes Rust source. Never fails: unterminated constructs consume to EOF,
/// which is the forgiving behaviour a linter wants (rustc reports the real
/// error; the audit still sees every token before the breakage).
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Consume chars of a (possibly multi-line) region, tracking newlines.
    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < b.len() {
        let c = b[i];
        if c == '\n' || c.is_whitespace() {
            bump!();
            continue;
        }
        // Line comment (includes /// and //! doc comments).
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            let start_line = line;
            i += 2;
            let mut text = String::new();
            while i < b.len() && b[i] != '\n' {
                text.push(b[i]);
                i += 1;
            }
            out.comments.push(Comment {
                text,
                line: start_line,
                block: false,
            });
            continue;
        }
        // Block comment, nested per Rust rules.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let start_line = line;
            i += 2;
            let mut depth = 1usize;
            let mut text = String::new();
            while i < b.len() && depth > 0 {
                if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    text.push_str("/*");
                    i += 2;
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    if depth > 0 {
                        text.push_str("*/");
                    }
                    i += 2;
                } else {
                    text.push(b[i]);
                    bump!();
                }
            }
            out.comments.push(Comment {
                text,
                line: start_line,
                block: true,
            });
            continue;
        }
        // Raw / byte string prefixes: r"", r#""#, b"", br#""#, rb is not
        // Rust but costs nothing to reject naturally (it lexes as ident).
        if (c == 'r' || c == 'b') && raw_or_byte_string_start(&b, i) {
            let start_line = line;
            // Skip prefix letters; `r` anywhere in the prefix means no
            // escape processing inside the literal.
            let mut raw = false;
            while i < b.len() && (b[i] == 'r' || b[i] == 'b') {
                raw |= b[i] == 'r';
                i += 1;
            }
            let mut hashes = 0usize;
            while i < b.len() && b[i] == '#' {
                hashes += 1;
                i += 1;
            }
            debug_assert!(i < b.len() && b[i] == '"');
            i += 1; // opening quote
            let mut text = String::new();
            loop {
                if i >= b.len() {
                    break;
                }
                if b[i] == '\\' && !raw {
                    text.push(b[i]);
                    i += 1;
                    if i < b.len() {
                        text.push(b[i]);
                        bump!();
                    }
                    continue;
                }
                if b[i] == '"' {
                    let mut j = i + 1;
                    let mut seen = 0usize;
                    while j < b.len() && b[j] == '#' && seen < hashes {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        i = j;
                        break;
                    }
                }
                text.push(b[i]);
                bump!();
            }
            out.tokens.push(Token {
                tok: Tok::Str(text),
                line: start_line,
            });
            continue;
        }
        // Identifier / keyword (also handles raw identifiers r#ident).
        if c.is_alphabetic() || c == '_' {
            let start_line = line;
            let mut s = String::new();
            while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                s.push(b[i]);
                i += 1;
            }
            out.tokens.push(Token {
                tok: Tok::Ident(s),
                line: start_line,
            });
            continue;
        }
        // Raw identifier `r#ident` never reaches here (consumed as ident
        // `r` + Punct('#') + ident) — close enough for rule purposes.
        // Number literal (also eats suffixes and exponents).
        if c.is_ascii_digit() {
            let start_line = line;
            while i < b.len() {
                let d = b[i];
                let fraction = d == '.' && i + 1 < b.len() && b[i + 1].is_ascii_digit();
                let exponent_sign = (d == '+' || d == '-')
                    && i > 0
                    && (b[i - 1] == 'e' || b[i - 1] == 'E')
                    && i + 1 < b.len()
                    && b[i + 1].is_ascii_digit();
                if d.is_alphanumeric() || d == '_' || fraction || exponent_sign {
                    i += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                tok: Tok::Lit,
                line: start_line,
            });
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let start_line = line;
            i += 1;
            let mut text = String::new();
            while i < b.len() {
                if b[i] == '\\' {
                    text.push(b[i]);
                    i += 1;
                    if i < b.len() {
                        text.push(b[i]);
                        bump!();
                    }
                    continue;
                }
                if b[i] == '"' {
                    i += 1;
                    break;
                }
                text.push(b[i]);
                bump!();
            }
            out.tokens.push(Token {
                tok: Tok::Str(text),
                line: start_line,
            });
            continue;
        }
        // Lifetime vs char literal.
        if c == '\'' {
            let start_line = line;
            let next = b.get(i + 1).copied();
            let after = b.get(i + 2).copied();
            let is_lifetime =
                matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
            if is_lifetime {
                i += 1;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    tok: Tok::Lifetime,
                    line: start_line,
                });
            } else {
                i += 1;
                while i < b.len() {
                    if b[i] == '\\' {
                        i += 1;
                        if i < b.len() {
                            i += 1;
                        }
                        continue;
                    }
                    if b[i] == '\'' {
                        i += 1;
                        break;
                    }
                    bump!();
                }
                out.tokens.push(Token {
                    tok: Tok::Lit,
                    line: start_line,
                });
            }
            continue;
        }
        // Everything else: single punctuation char.
        out.tokens.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }
    out
}

/// Does `b[i..]` start a raw or byte string literal (`r"`, `r#`+`"`,
/// `b"`, `br"`, `br#`+`"`)?
fn raw_or_byte_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    // One or two prefix letters from {r, b}, in the real orders r / b / br.
    let mut prefix = String::new();
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') && prefix.len() < 2 {
        prefix.push(b[j]);
        j += 1;
    }
    if !matches!(prefix.as_str(), "r" | "b" | "br") {
        return false;
    }
    // `b` takes no hashes; `r`/`br` may.
    if prefix != "b" {
        while j < b.len() && b[j] == '#' {
            j += 1;
        }
    }
    // Raw identifiers (`r#ident`) fall through to the ident path because
    // they have hashes but no quote.
    j < b.len() && b[j] == '"'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r##"
            // unsafe in a comment
            /* partial_cmp in /* a nested */ block */
            let s = "unsafe partial_cmp";
            let r = r#"unsafe "quoted" inside"#;
            let b = b"unsafe";
            let c = 'u';
            fn real_ident() {}
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|s| s == "unsafe"));
        assert!(!ids.iter().any(|s| s == "partial_cmp"));
        assert!(ids.iter().any(|s| s == "real_ident"));
    }

    #[test]
    fn comments_carry_lines_and_text() {
        let src = "fn a() {}\n// audit:allow(x): y\nfn b() {}\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 2);
        assert_eq!(lexed.comments[0].text.trim(), "audit:allow(x): y");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x';";
        let lexed = lex(src);
        let lifetimes = lexed
            .tokens
            .iter()
            .filter(|t| t.tok == Tok::Lifetime)
            .count();
        assert_eq!(lifetimes, 3);
        // 'x' is a literal, not a lifetime; nothing after it was eaten.
        assert!(lexed.tokens.iter().any(|t| t.tok == Tok::Lit));
    }

    #[test]
    fn multiline_string_keeps_line_numbers() {
        let src = "let s = \"line\nline\nline\";\nfn after() {}";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| matches!(&t.tok, Tok::Ident(s) if s == "after"))
            .unwrap();
        assert_eq!(after.line, 4);
    }

    #[test]
    fn string_contents_are_preserved_but_not_idents() {
        let lexed = lex(r##"trace::span("race.best_t"); let r = r#"raw.name"#;"##);
        let strs: Vec<&str> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, ["race.best_t", "raw.name"]);
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let ids = idents(r#"let s = "a\"unsafe\"b"; fn ok() {}"#);
        assert!(!ids.iter().any(|s| s == "unsafe"));
        assert!(ids.iter().any(|s| s == "ok"));
    }
}
