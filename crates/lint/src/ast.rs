//! A lightweight item-level parser on top of [`crate::lexer`].
//!
//! The per-file rules of v1 only needed token patterns; the workspace-wide
//! passes (call-graph panic propagation, unit-taint dataflow, ledger
//! coverage, lock ordering) need to know *which function* a
//! token belongs to, what its parameters and return type look like, and
//! which `impl`/`trait` block owns it. This module extracts exactly that —
//! an index of `fn`, `struct`, `enum` and `impl` items with token spans —
//! without attempting to be a full Rust parser. Everything it cannot
//! recognise is skipped, never an error: the fuzz tests pin down that
//! `parse_file` terminates and never panics on arbitrary input.

use crate::lexer::Token;

/// Keywords that can prefix an item before the `fn`/`struct`/`enum` word.
const ITEM_QUALIFIERS: [&str; 6] = ["pub", "const", "async", "unsafe", "extern", "default"];

/// Everything the analyzer derives from one file's content.
#[derive(Debug)]
pub struct ParsedUnit {
    /// The lexed token stream.
    pub tokens: Vec<Token>,
    /// `#[cfg(test)]` token spans ([`crate::rules::excluded_spans`]).
    pub excluded: Vec<(usize, usize)>,
    /// The item index.
    pub index: FileIndex,
}

/// Lex and parse one source string.
pub fn parse_unit(source: &str) -> ParsedUnit {
    let tokens = crate::lexer::lex(source);
    let excluded = crate::rules::excluded_spans(&tokens);
    let index = parse_file(&tokens, &excluded);
    ParsedUnit {
        tokens,
        excluded,
        index,
    }
}

/// One workspace file: its path plus its parse.
#[derive(Debug)]
pub struct ParsedSource {
    /// Workspace-relative path (`crates/<crate>/src/<file>.rs`).
    pub path: String,
    /// The parsed content.
    pub unit: ParsedUnit,
}

/// One `name: Type` fn parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding name.
    pub name: String,
    /// Primary type identifier (first path ident: `Vec`, `f64`, `Power`).
    pub ty_primary: String,
}

/// Who owns a function item.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Owner {
    /// `impl Type { … }` or `impl Trait for Type { … }` — the type.
    pub self_ty: Option<String>,
    /// `impl Trait for Type { … }` — the trait.
    pub trait_ty: Option<String>,
    /// Declared inside a `trait Name { … }` block (a default method or a
    /// signature-only declaration).
    pub in_trait_decl: Option<String>,
}

/// One indexed `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Enclosing impl/trait context.
    pub owner: Owner,
    /// Declared `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Takes a `self` receiver (method rather than free/associated fn).
    pub has_self: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameters, in order (the `self` receiver is not included).
    pub params: Vec<Param>,
    /// Primary identifier of the return type (`f64`, `Power`, …), if any.
    pub ret_primary: Option<String>,
    /// Token index range `(open, close)` of the body `{ … }`, inclusive of
    /// both braces. `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
    /// Starts inside a `#[cfg(test)]` span.
    pub in_test: bool,
}

/// One module-scope `static` item. A lock held in a static is one lock
/// in every function that takes it, which lock-discipline must know.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// Static name.
    pub name: String,
    /// Starts inside a `#[cfg(test)]` span.
    pub in_test: bool,
}

/// One indexed `struct` item.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
}

/// One indexed `enum` item.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// Declared `pub`.
    pub is_pub: bool,
    /// Traits named in `#[derive(…)]` attributes directly above the item.
    pub derives: Vec<String>,
    /// Starts inside a `#[cfg(test)]` span.
    pub in_test: bool,
}

/// The item index of one file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    /// Functions, in source order (nested fns appear after their parent).
    pub fns: Vec<FnItem>,
    /// Structs, in source order.
    pub structs: Vec<StructItem>,
    /// Enums, in source order.
    pub enums: Vec<EnumItem>,
    /// Module-scope statics, in source order.
    pub statics: Vec<StaticItem>,
}

impl FileIndex {
    /// The innermost function whose body span contains token index `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (span width, fn index)
        for (i, f) in self.fns.iter().enumerate() {
            if let Some((open, close)) = f.body {
                if idx >= open && idx <= close {
                    let width = close - open;
                    if best.is_none_or(|(w, _)| width < w) {
                        best = Some((width, i));
                    }
                }
            }
        }
        best.map(|(_, i)| i)
    }
}

/// Index of the token closing the delimiter opened at `open_idx`, or the
/// stream end when unbalanced.
pub(crate) fn matching_close(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0i32;
    let mut j = open_idx;
    while let Some(t) = tokens.get(j) {
        if t.is(open) {
            depth += 1;
        } else if t.is(close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Context stack entry while walking the token stream.
#[derive(Debug, Clone)]
struct Scope {
    owner: Owner,
    /// Token index of the scope's closing `}`.
    close: usize,
}

/// Parse one file's token stream into an item index. `excluded` holds the
/// `#[cfg(test)]` token spans from [`crate::rules::excluded_spans`]; items
/// starting inside one are marked `in_test`.
pub fn parse_file(tokens: &[Token], excluded: &[(usize, usize)]) -> FileIndex {
    let in_excluded = |idx: usize| excluded.iter().any(|&(s, e)| idx >= s && idx < e);
    let mut index = FileIndex::default();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut derives: Vec<String> = Vec::new();
    let mut i = 0usize;

    while let Some(t) = tokens.get(i) {
        // Pop scopes we have walked out of.
        while scopes.last().is_some_and(|s| i > s.close) {
            scopes.pop();
        }

        if t.is("#") && tokens.get(i + 1).is_some_and(|b| b.is("[")) {
            // Attribute: harvest derive lists, then skip the whole attr.
            let close = matching_close(tokens, i + 1, "[", "]");
            if tokens
                .get(i + 2)
                .is_some_and(|d| d.is_ident && d.text == "derive")
            {
                for dt in tokens.get(i + 3..close).unwrap_or_default() {
                    if dt.is_ident {
                        derives.push(dt.text.clone());
                    }
                }
            }
            i = close + 1;
            continue;
        }

        if !t.is_ident {
            i += 1;
            continue;
        }

        match t.text.as_str() {
            "impl" => {
                if let Some((scope, next)) = parse_impl_header(tokens, i) {
                    scopes.push(scope);
                    i = next;
                    derives.clear();
                    continue;
                }
            }
            "trait" => {
                if let Some((scope, next)) = parse_trait_header(tokens, i) {
                    scopes.push(scope);
                    i = next;
                    derives.clear();
                    continue;
                }
            }
            "fn" => {
                let is_pub = preceded_by_pub(tokens, i);
                let owner = scopes.last().map(|s| s.owner.clone()).unwrap_or_default();
                if let Some((item, next)) = parse_fn(tokens, i, owner, is_pub, in_excluded(i)) {
                    index.fns.push(item);
                    // Do not jump past the body: nested fns inside it must
                    // be indexed too. Step past the signature only.
                    i = next;
                    derives.clear();
                    continue;
                }
            }
            "struct" => {
                if let Some((item, next)) = parse_struct(tokens, i) {
                    index.structs.push(item);
                    i = next;
                    derives.clear();
                    continue;
                }
            }
            "enum" => {
                let name_ok = tokens.get(i + 1).is_some_and(|n| n.is_ident);
                if name_ok {
                    let name = tokens
                        .get(i + 1)
                        .map(|n| n.text.clone())
                        .unwrap_or_default();
                    index.enums.push(EnumItem {
                        name,
                        is_pub: preceded_by_pub(tokens, i),
                        derives: derives.clone(),
                        in_test: in_excluded(i),
                    });
                    derives.clear();
                }
            }
            "static" => {
                // `static [mut] NAME : Type = …;` — the `'static` lifetime
                // never reaches here (the lexer strips lifetimes whole).
                if let Some((item, next)) = parse_static(tokens, i, in_excluded(i)) {
                    index.statics.push(item);
                    i = next;
                    derives.clear();
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    index
}

/// Parse a `static` item starting at the `static` keyword. Returns the
/// item and the index past its name (the type and initializer are
/// scanned normally).
fn parse_static(tokens: &[Token], static_idx: usize, in_test: bool) -> Option<(StaticItem, usize)> {
    let mut j = static_idx + 1;
    if tokens.get(j).is_some_and(|m| m.is_ident && m.text == "mut") {
        j += 1;
    }
    let name = tokens.get(j).filter(|n| n.is_ident)?.text.clone();
    Some((StaticItem { name, in_test }, j + 1))
}

/// True when the item keyword at `idx` is preceded by a `pub` qualifier
/// (scanning back over other item qualifiers and `pub(crate)` groups).
fn preceded_by_pub(tokens: &[Token], idx: usize) -> bool {
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let Some(t) = tokens.get(j) else { break };
        if t.is(")") {
            // Possibly the close of `pub(crate)`; keep scanning left.
            let mut depth = 1i32;
            while j > 0 && depth > 0 {
                j -= 1;
                if let Some(p) = tokens.get(j) {
                    if p.is(")") {
                        depth += 1;
                    } else if p.is("(") {
                        depth -= 1;
                    }
                }
            }
            continue;
        }
        if t.is_ident && t.text == "pub" {
            return true;
        }
        if t.is_ident && ITEM_QUALIFIERS.contains(&t.text.as_str()) {
            continue;
        }
        break;
    }
    false
}

/// Parse `impl <generics?> Path (for Path)? … {`, returning the scope and
/// the index just past the opening `{`.
fn parse_impl_header(tokens: &[Token], impl_idx: usize) -> Option<(Scope, usize)> {
    let mut j = impl_idx + 1;
    // Skip generic parameters.
    if tokens.get(j).is_some_and(|t| t.is("<")) {
        j = skip_angles(tokens, j);
    }
    let (first, mut j) = parse_type_path(tokens, j)?;
    let mut owner = Owner {
        self_ty: Some(first.clone()),
        trait_ty: None,
        in_trait_decl: None,
    };
    if tokens.get(j).is_some_and(|t| t.is_ident && t.text == "for") {
        let (self_ty, next) = parse_type_path(tokens, j + 1)?;
        owner = Owner {
            self_ty: Some(self_ty),
            trait_ty: Some(first),
            in_trait_decl: None,
        };
        j = next;
    }
    // Skip a where clause up to the block.
    while let Some(t) = tokens.get(j) {
        if t.is("{") {
            let close = matching_close(tokens, j, "{", "}");
            return Some((Scope { owner, close }, j + 1));
        }
        if t.is(";") {
            return None;
        }
        j += 1;
    }
    None
}

/// Parse `trait Name … {`, returning the scope and the index past `{`.
fn parse_trait_header(tokens: &[Token], trait_idx: usize) -> Option<(Scope, usize)> {
    let name = tokens
        .get(trait_idx + 1)
        .filter(|t| t.is_ident)?
        .text
        .clone();
    let mut j = trait_idx + 2;
    while let Some(t) = tokens.get(j) {
        if t.is("{") {
            let close = matching_close(tokens, j, "{", "}");
            let owner = Owner {
                self_ty: None,
                trait_ty: None,
                in_trait_decl: Some(name),
            };
            return Some((Scope { owner, close }, j + 1));
        }
        if t.is(";") {
            return None;
        }
        j += 1;
    }
    None
}

/// Read a type path at `j`: `A`, `A::B`, `A<…>`; returns the *last* path
/// ident (the type name) and the index past the path (including any
/// trailing generic arguments).
fn parse_type_path(tokens: &[Token], start: usize) -> Option<(String, usize)> {
    let mut j = start;
    // Leading `&`/`mut`/`dyn` qualifiers.
    loop {
        match tokens.get(j) {
            Some(t) if t.is("&") => j += 1,
            Some(t) if t.is_ident && (t.text == "mut" || t.text == "dyn") => j += 1,
            _ => break,
        }
    }
    let mut name = tokens.get(j).filter(|t| t.is_ident)?.text.clone();
    j += 1;
    loop {
        if tokens.get(j).is_some_and(|t| t.is(":")) && tokens.get(j + 1).is_some_and(|t| t.is(":"))
        {
            if let Some(next) = tokens.get(j + 2).filter(|t| t.is_ident) {
                name = next.text.clone();
                j += 3;
                continue;
            }
        }
        if tokens.get(j).is_some_and(|t| t.is("<")) {
            j = skip_angles(tokens, j);
            continue;
        }
        break;
    }
    Some((name, j))
}

/// Index just past the `>` closing the `<` at `open_idx` (depth-aware;
/// `->`/`=>` are fused by the lexer so they cannot confuse the count).
fn skip_angles(tokens: &[Token], open_idx: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open_idx;
    while let Some(t) = tokens.get(j) {
        if t.is("<") {
            depth += 1;
        } else if t.is(">") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t.is("{") || t.is(";") {
            return j; // malformed generics — bail at the item boundary
        }
        j += 1;
    }
    tokens.len()
}

/// Parse a `fn` item starting at the `fn` keyword. Returns the item and
/// the index to resume scanning from (just past the signature, so nested
/// items inside the body are still visited).
fn parse_fn(
    tokens: &[Token],
    fn_idx: usize,
    owner: Owner,
    is_pub: bool,
    in_test: bool,
) -> Option<(FnItem, usize)> {
    let name_tok = tokens.get(fn_idx + 1).filter(|t| t.is_ident)?;
    let name = name_tok.text.clone();
    let line = tokens.get(fn_idx).map(|t| t.line).unwrap_or(0);
    let mut j = fn_idx + 2;
    if tokens.get(j).is_some_and(|t| t.is("<")) {
        j = skip_angles(tokens, j);
    }
    if !tokens.get(j).is_some_and(|t| t.is("(")) {
        return None;
    }
    let params_close = matching_close(tokens, j, "(", ")");
    let (params, has_self) = parse_params(tokens, j + 1, params_close);

    // Return type.
    let mut k = params_close + 1;
    let mut ret_primary = None;
    if tokens.get(k).is_some_and(|t| t.is("->")) {
        let mut r = k + 1;
        loop {
            match tokens.get(r) {
                Some(t) if t.is("&") => r += 1,
                Some(t)
                    if t.is_ident && (t.text == "mut" || t.text == "dyn" || t.text == "impl") =>
                {
                    r += 1
                }
                _ => break,
            }
        }
        ret_primary = tokens.get(r).filter(|t| t.is_ident).map(|t| t.text.clone());
        k = r;
    }

    // Body: first `{` before a depth-0 `;` (a `;` means a declaration).
    let mut body = None;
    let mut m = k;
    while let Some(t) = tokens.get(m) {
        if t.is("{") {
            body = Some((m, matching_close(tokens, m, "{", "}")));
            break;
        }
        if t.is(";") {
            break;
        }
        m += 1;
    }

    Some((
        FnItem {
            name,
            owner,
            is_pub,
            has_self,
            line,
            params,
            ret_primary,
            body,
            in_test,
        },
        params_close + 1,
    ))
}

/// Parse a parameter list between `(` at `start-1` and `)` at `end`.
/// Returns the named params and whether a `self` receiver is present.
fn parse_params(tokens: &[Token], start: usize, end: usize) -> (Vec<Param>, bool) {
    let mut params = Vec::new();
    let mut has_self = false;
    let mut j = start;
    while j < end {
        // One parameter: [pattern] `:` [type], ending at a depth-0 `,`.
        let param_start = j;
        let mut colon = None;
        let mut depth = 0i32;
        let mut m = j;
        while m < end {
            let Some(t) = tokens.get(m) else { break };
            if t.is("(") || t.is("[") || t.is("{") || t.is("<") {
                depth += 1;
            } else if t.is(")") || t.is("]") || t.is("}") || t.is(">") {
                depth -= 1;
            } else if depth == 0 && t.is(":") && colon.is_none() {
                // `::` inside a default-type path must not count.
                let double = tokens.get(m + 1).is_some_and(|n| n.is(":"))
                    || tokens.get(m.wrapping_sub(1)).is_some_and(|p| p.is(":"));
                if !double {
                    colon = Some(m);
                }
            } else if depth == 0 && t.is(",") {
                break;
            }
            m += 1;
        }
        let param_end = m;
        // Detect a self receiver: any bare `self` ident before the colon
        // (or in the whole param when there is no colon).
        let probe_end = colon.unwrap_or(param_end);
        let is_self = tokens
            .get(param_start..probe_end)
            .unwrap_or_default()
            .iter()
            .any(|t| t.is_ident && t.text == "self");
        if is_self {
            has_self = true;
        } else if let Some(c) = colon {
            // Name: last ident before the colon (skips `mut`, `ref`).
            let name_tok = tokens
                .get(param_start..c)
                .unwrap_or_default()
                .iter()
                .rev()
                .find(|t| t.is_ident && t.text != "mut" && t.text != "ref");
            if let Some(nt) = name_tok {
                let ty_primary = tokens
                    .get(c + 1..param_end)
                    .unwrap_or_default()
                    .iter()
                    .find(|t| t.is_ident && t.text != "mut" && t.text != "dyn" && t.text != "impl")
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                params.push(Param {
                    name: nt.text.clone(),
                    ty_primary,
                });
            }
        }
        j = param_end + 1;
    }
    (params, has_self)
}

/// Parse a `struct` item starting at the `struct` keyword.
fn parse_struct(tokens: &[Token], struct_idx: usize) -> Option<(StructItem, usize)> {
    let name = tokens
        .get(struct_idx + 1)
        .filter(|t| t.is_ident)?
        .text
        .clone();
    let mut j = struct_idx + 2;
    if tokens.get(j).is_some_and(|t| t.is("<")) {
        j = skip_angles(tokens, j);
    }
    // Skip a where clause.
    while let Some(t) = tokens.get(j) {
        if t.is("{") || t.is("(") || t.is(";") {
            break;
        }
        j += 1;
    }
    let next = match tokens.get(j) {
        Some(t) if t.is("{") => matching_close(tokens, j, "{", "}") + 1,
        Some(t) if t.is("(") => matching_close(tokens, j, "(", ")") + 1,
        _ => j + 1,
    };
    Some((StructItem { name }, next))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::excluded_spans;

    fn parse(src: &str) -> FileIndex {
        let tokens = lex(src);
        let excluded = excluded_spans(&tokens);
        parse_file(&tokens, &excluded)
    }

    #[test]
    fn free_fn_with_params_and_return() {
        let idx = parse("pub fn f(a: f64, b: Vec<usize>) -> Power { a }");
        assert_eq!(idx.fns.len(), 1);
        let f = &idx.fns[0];
        assert_eq!(f.name, "f");
        assert!(f.is_pub);
        assert!(!f.has_self);
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "a");
        assert_eq!(f.params[0].ty_primary, "f64");
        assert_eq!(f.params[1].ty_primary, "Vec");
        assert_eq!(f.ret_primary.as_deref(), Some("Power"));
        assert!(f.body.is_some());
    }

    #[test]
    fn impl_blocks_set_owner() {
        let src =
            "impl Foo { fn a(&self) {} }\nimpl Scheduler for Foo { fn plan(&mut self, x: u32) {} }";
        let idx = parse(src);
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.fns[0].owner.self_ty.as_deref(), Some("Foo"));
        assert_eq!(idx.fns[0].owner.trait_ty, None);
        assert!(idx.fns[0].has_self);
        assert_eq!(idx.fns[1].owner.self_ty.as_deref(), Some("Foo"));
        assert_eq!(idx.fns[1].owner.trait_ty.as_deref(), Some("Scheduler"));
        assert_eq!(idx.fns[1].params.len(), 1);
    }

    #[test]
    fn generic_impls_and_paths() {
        let src = "impl<T: Clone> Wrap<T> { fn get(&self) -> T { self.0.clone() } }\n\
                   impl std::fmt::Display for Wrap<u8> { fn fmt(&self) {} }";
        let idx = parse(src);
        assert_eq!(idx.fns[0].owner.self_ty.as_deref(), Some("Wrap"));
        assert_eq!(idx.fns[1].owner.trait_ty.as_deref(), Some("Display"));
        assert_eq!(idx.fns[1].owner.self_ty.as_deref(), Some("Wrap"));
    }

    #[test]
    fn trait_decl_with_default_method() {
        let src = "pub trait Scheduler { fn plan(&mut self); fn both(&mut self) { self.plan() } }";
        let idx = parse(src);
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.fns[0].owner.in_trait_decl.as_deref(), Some("Scheduler"));
        assert!(idx.fns[0].body.is_none(), "declaration has no body");
        assert!(idx.fns[1].body.is_some(), "default method has a body");
    }

    #[test]
    fn nested_fns_are_indexed_and_enclosing_fn_resolves() {
        let src = "fn outer() { fn inner() { work(); } inner(); }";
        let idx = parse(src);
        assert_eq!(idx.fns.len(), 2);
        let names: Vec<&str> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        // `work` is inside both bodies; the innermost must win.
        let tokens = lex(src);
        let work_idx = tokens
            .iter()
            .position(|t| t.is_ident && t.text == "work")
            .unwrap();
        let encl = idx.enclosing_fn(work_idx).unwrap();
        assert_eq!(idx.fns[encl].name, "inner");
    }

    #[test]
    fn enums_collect_derives() {
        let src = "#[derive(Debug, Clone, Serialize)]\npub enum Kind { A, B }\nenum Private { X }";
        let idx = parse(src);
        assert_eq!(idx.enums.len(), 2);
        assert_eq!(idx.enums[0].name, "Kind");
        assert!(idx.enums[0].is_pub);
        assert!(idx.enums[0].derives.iter().any(|d| d == "Serialize"));
        assert!(idx.enums[0].derives.iter().any(|d| d == "Clone"));
        assert!(!idx.enums[1].is_pub);
        assert!(idx.enums[1].derives.is_empty());
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests { fn t() {} }";
        let idx = parse(src);
        assert_eq!(idx.fns.len(), 2);
        assert!(!idx.fns[0].in_test);
        assert!(idx.fns[1].in_test);
    }

    #[test]
    fn tuple_and_unit_structs() {
        let idx = parse("struct T(u32, f64);\nstruct U;\npub struct S { count: usize }");
        let names: Vec<&str> = idx.structs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["T", "U", "S"]);
    }

    #[test]
    fn statics_are_indexed() {
        let src = "static VIOLATIONS: AtomicU64 = AtomicU64::new(0);\n\
                   pub static mut RAW: f64 = 0.0;\n\
                   fn f() { let x: &'static str = s; }";
        let idx = parse(src);
        let names: Vec<&str> = idx.statics.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["VIOLATIONS", "RAW"]);
    }

    #[test]
    fn malformed_input_does_not_panic() {
        for src in [
            "fn",
            "fn (",
            "impl",
            "impl {",
            "struct",
            "enum",
            "fn f(x:",
            "impl X for {",
            "trait",
            "fn f<(>)",
            "}}}}{{{{",
        ] {
            let _ = parse(src);
        }
    }
}
