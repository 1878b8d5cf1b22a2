//! A minimal Rust lexer: identifier and punctuation tokens with line
//! numbers; comments, strings, char literals and lifetimes are stripped.
//!
//! The lint rules only need word-level structure (`fn`, `match`, `.` +
//! `unwrap` + `(`, `ident` + `[` …), so the lexer deliberately does not
//! classify keywords, numbers or multi-character operators beyond the two
//! the rules care about: `=>` and `->` (arm/return markers that would
//! otherwise confuse angle-bracket depth counts).

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text: an identifier/number word, or a punctuation string
    /// (single char, or the fused `=>` / `->`).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// True for identifier/number words.
    pub is_ident: bool,
}

impl Token {
    fn ident(text: String, line: u32) -> Self {
        Token {
            text,
            line,
            is_ident: true,
        }
    }

    fn punct(text: &str, line: u32) -> Self {
        Token {
            text: text.to_string(),
            line,
            is_ident: false,
        }
    }

    /// True when this token is the given punctuation.
    pub fn is(&self, p: &str) -> bool {
        !self.is_ident && self.text == p
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `source`, stripping comments, strings and lifetimes.
pub fn lex(source: &str) -> Vec<Token> {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    let at = |i: usize| chars.get(i).copied();

    while let Some(c) = at(i) {
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if at(i + 1) == Some('/') => {
                while let Some(c) = at(i) {
                    if c == '\n' {
                        break;
                    }
                    i += 1;
                }
            }
            '/' if at(i + 1) == Some('*') => {
                i += 2;
                let mut depth = 1u32;
                while depth > 0 {
                    match at(i) {
                        None => break,
                        Some('\n') => {
                            line += 1;
                            i += 1;
                        }
                        Some('/') if at(i + 1) == Some('*') => {
                            depth += 1;
                            i += 2;
                        }
                        Some('*') if at(i + 1) == Some('/') => {
                            depth -= 1;
                            i += 2;
                        }
                        Some(_) => i += 1,
                    }
                }
            }
            '"' => {
                i += 1;
                while let Some(c) = at(i) {
                    match c {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            '\'' => {
                // Char literal or lifetime.
                if at(i + 1) == Some('\\') {
                    // Escaped char literal: skip to the closing quote.
                    i += 2;
                    while let Some(c) = at(i) {
                        i += 1;
                        if c == '\'' {
                            break;
                        }
                    }
                } else if at(i + 2) == Some('\'') && at(i + 1).is_some() {
                    i += 3; // plain char literal like 'a'
                } else {
                    // Lifetime: skip the quote and the identifier after it.
                    i += 1;
                    while at(i).is_some_and(is_ident_char) {
                        i += 1;
                    }
                }
            }
            c if is_ident_char(c) => {
                let start_line = line;
                let mut word = String::new();
                while let Some(c) = at(i) {
                    if !is_ident_char(c) {
                        break;
                    }
                    word.push(c);
                    i += 1;
                }
                // Raw strings (r"…", r#"…"#, br#"…"#) and raw identifiers
                // (r#match) share the `r` prefix; disambiguate here.
                if (word == "r" || word == "b" || word == "br")
                    && matches!(at(i), Some('"') | Some('#'))
                {
                    let mut hashes = 0usize;
                    let mut j = i;
                    while at(j) == Some('#') {
                        hashes += 1;
                        j += 1;
                    }
                    if at(j) == Some('"') && word != "b" {
                        // Raw string: skip until `"` followed by `hashes` #s.
                        i = j + 1;
                        'raw: while let Some(c) = at(i) {
                            if c == '\n' {
                                line += 1;
                            }
                            if c == '"' {
                                let mut k = 0usize;
                                while k < hashes {
                                    if at(i + 1 + k) != Some('#') {
                                        i += 1;
                                        continue 'raw;
                                    }
                                    k += 1;
                                }
                                i += 1 + hashes;
                                break;
                            }
                            i += 1;
                        }
                        continue;
                    }
                    if hashes == 1 && at(j).is_some_and(is_ident_char) {
                        // Raw identifier: keep reading the word.
                        i = j;
                        word.clear();
                        while at(i).is_some_and(is_ident_char) {
                            if let Some(c) = at(i) {
                                word.push(c);
                            }
                            i += 1;
                        }
                    }
                }
                tokens.push(Token::ident(word, start_line));
            }
            '=' if at(i + 1) == Some('>') => {
                tokens.push(Token::punct("=>", line));
                i += 2;
            }
            '-' if at(i + 1) == Some('>') => {
                tokens.push(Token::punct("->", line));
                i += 2;
            }
            c => {
                tokens.push(Token::punct(&c.to_string(), line));
                i += 1;
            }
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let src = "fn a() { // unwrap()\n let x = \"panic!\"; /* expect( */ }";
        let w = words(src);
        assert!(!w.contains(&"unwrap".to_string()));
        assert!(!w.contains(&"panic".to_string()));
        assert!(!w.contains(&"expect".to_string()));
        assert!(w.contains(&"fn".to_string()));
    }

    #[test]
    fn tracks_lines() {
        let toks = lex("a\nb\n  c");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 3]);
    }

    #[test]
    fn lifetimes_and_char_literals() {
        let w = words("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(!w.contains(&"x".to_string()) || w.iter().filter(|t| *t == "x").count() == 1);
        let w = words("let c = '\\n'; let l: &'static str = s;");
        assert!(w.contains(&"c".to_string()));
        assert!(!w.contains(&"n".to_string()));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let w = words("let s = r#\"unwrap() panic!\"#; done");
        assert!(!w.contains(&"unwrap".to_string()));
        assert!(w.contains(&"done".to_string()));
    }

    #[test]
    fn fat_arrow_is_one_token() {
        let toks = lex("_ => 1,");
        assert!(toks.iter().any(|t| t.is("=>")));
        assert!(!toks.iter().any(|t| t.is("=")));
    }

    #[test]
    fn nested_block_comments() {
        let w = words("/* a /* b */ unwrap */ ok");
        assert_eq!(w, vec!["ok"]);
    }
}
