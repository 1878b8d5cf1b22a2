//! A lightweight item-level parser on top of [`crate::lexer`].
//!
//! The per-file rules of v1 only needed token patterns; the workspace-wide
//! passes (call-graph panic propagation, unit-taint dataflow, ledger
//! coverage, concurrency regions) need to know *which function* a
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

/// One `name: Type` pair (a fn parameter or a struct field).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Binding or field name.
    pub name: String,
    /// Flattened type tokens, space-joined (e.g. `Vec < usize >`).
    pub ty: String,
    /// Primary type identifier (first path ident: `Vec`, `f64`, `Power`).
    pub ty_primary: String,
    /// 1-based line of the name token.
    pub line: u32,
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
    /// Generic-parameter bounds, from both the inline `<T: …>` list and
    /// the `where` clause: `(type parameter, bound identifiers)`.
    pub generic_bounds: Vec<(String, Vec<String>)>,
}

impl FnItem {
    /// Names of parameters whose type is a generic bound by a closure
    /// trait (`Fn`/`FnMut`/`FnOnce`) *and* a thread-crossing marker
    /// (`Sync`/`Send`). Such parameters are how fork-join helpers like
    /// `parallel_map` receive the closures they run concurrently, so any
    /// workspace function with one is a parallel-execution boundary —
    /// auto-discovered, the same way domain enums are.
    pub fn sync_closure_params(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter(|p| {
                self.generic_bounds.iter().any(|(ty, bounds)| {
                    *ty == p.ty_primary
                        && bounds
                            .iter()
                            .any(|b| b == "Fn" || b == "FnMut" || b == "FnOnce")
                        && bounds.iter().any(|b| b == "Sync" || b == "Send")
                })
            })
            .map(|p| p.name.as_str())
            .collect()
    }
}

/// One indexed closure expression (`|x| …`, `move |x| { … }`, `|| …`).
///
/// Closures are where the concurrency rules look for captured mutable
/// state: anything their bodies touch that is not a parameter or a local
/// `let` binding crosses the closure boundary from the enclosing scope.
#[derive(Debug, Clone)]
pub struct ClosureItem {
    /// Parameter names bound by the closure (pattern idents flattened).
    pub params: Vec<String>,
    /// Token index range `(start, end)` of the body, inclusive. A braced
    /// body spans its `{`/`}`; an expression body spans its tokens.
    pub body: (usize, usize),
    /// 1-based line of the opening `|`.
    pub line: u32,
    /// Declared with `move`.
    pub is_move: bool,
}

/// One module-scope `static` item. Statics with interior-mutable types
/// (atomics, locks) and `static mut` declarations are process-global
/// shared state the concurrency rules must see.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// Static name.
    pub name: String,
    /// Primary type identifier (`AtomicU64`, `Mutex`, `f64`, …).
    pub ty_primary: String,
    /// Declared `static mut`.
    pub is_mut: bool,
    /// 1-based line of the `static` keyword.
    pub line: u32,
    /// Starts inside a `#[cfg(test)]` span.
    pub in_test: bool,
}

/// One indexed `struct` item.
#[derive(Debug, Clone)]
pub struct StructItem {
    /// Struct name.
    pub name: String,
    /// Declared `pub`.
    pub is_pub: bool,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields (empty for tuple/unit structs).
    pub fields: Vec<Param>,
    /// Starts inside a `#[cfg(test)]` span.
    pub in_test: bool,
}

/// One indexed `enum` item.
#[derive(Debug, Clone)]
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// Declared `pub`.
    pub is_pub: bool,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
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
    /// Closure expressions, in source order (nested closures included).
    pub closures: Vec<ClosureItem>,
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

    /// Indices of closures whose body starts inside `(span_lo, span_hi)`
    /// (inclusive token range), in source order.
    pub fn closures_in(&self, span_lo: usize, span_hi: usize) -> Vec<usize> {
        self.closures
            .iter()
            .enumerate()
            .filter(|(_, c)| c.body.0 >= span_lo && c.body.0 <= span_hi)
            .map(|(i, _)| i)
            .collect()
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
                if let Some((item, next)) =
                    parse_struct(tokens, i, preceded_by_pub(tokens, i), in_excluded(i))
                {
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
                        line: t.line,
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
    index.closures = index_closures(tokens);
    index
}

/// Parse a `static` item starting at the `static` keyword. Returns the
/// item and the index past the name/type header (the initializer is
/// scanned normally so nested closures inside it are still indexed).
fn parse_static(tokens: &[Token], static_idx: usize, in_test: bool) -> Option<(StaticItem, usize)> {
    let line = tokens.get(static_idx)?.line;
    let mut j = static_idx + 1;
    let is_mut = tokens.get(j).is_some_and(|m| m.is_ident && m.text == "mut");
    if is_mut {
        j += 1;
    }
    let name = tokens.get(j).filter(|n| n.is_ident)?.text.clone();
    let mut ty_primary = String::new();
    if tokens.get(j + 1).is_some_and(|c| c.is(":")) {
        let mut k = j + 2;
        loop {
            match tokens.get(k) {
                Some(t) if t.is("&") => k += 1,
                Some(t) if t.is_ident && (t.text == "mut" || t.text == "dyn") => k += 1,
                _ => break,
            }
        }
        ty_primary = tokens
            .get(k)
            .filter(|t| t.is_ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
    }
    Some((
        StaticItem {
            name,
            ty_primary,
            is_mut,
            line,
            in_test,
        },
        j + 1,
    ))
}

/// Scan the whole token stream for closure expressions. A `|` opens a
/// closure only in expression position: after `(`, `,`, `=`, `{`, `;`,
/// `return`, or a `move` qualifier — which keeps pattern alternation
/// (`A | B =>`) and bitwise-or (`a | b`) out.
fn index_closures(tokens: &[Token]) -> Vec<ClosureItem> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let Some(t) = tokens.get(i) else { break };
        if !t.is("|") {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
        let is_move = prev.is_some_and(|p| p.is_ident && p.text == "move");
        let expr_pos = is_move
            || prev.is_none()
            || prev.is_some_and(|p| {
                p.is("(")
                    || p.is(",")
                    || p.is("=")
                    || p.is("{")
                    || p.is(";")
                    || (p.is_ident && p.text == "return")
            });
        if !expr_pos {
            continue;
        }
        // Find the closing `|` of the parameter list at depth 0; bail on
        // anything that cannot be a parameter list.
        let mut depth = 0i32;
        let mut close = None;
        let mut j = i + 1;
        while let Some(p) = tokens.get(j) {
            if p.is("(") || p.is("[") || p.is("{") || p.is("<") {
                depth += 1;
            } else if p.is(")") || p.is("]") || p.is("}") || p.is(">") {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if depth == 0 && (p.is(";") || p.is("=>") || p.is("=")) {
                break; // leading-pipe pattern or stray bitwise-or
            } else if depth == 0 && p.is("|") {
                close = Some(j);
                break;
            }
            j += 1;
        }
        let Some(close) = close else { continue };
        // Parameter names: idents before the `:` of each comma group,
        // flattened through tuple/struct patterns.
        let mut params = Vec::new();
        let mut seen_colon = false;
        for p in tokens.get(i + 1..close).unwrap_or_default() {
            if p.is(",") {
                seen_colon = false;
            } else if p.is(":") {
                seen_colon = true;
            } else if p.is_ident && !seen_colon && p.text != "mut" && p.text != "ref" {
                params.push(p.text.clone());
            }
        }
        // Body: a braced block, or an expression up to a depth-0
        // `,`/`;`/closing delimiter.
        let body_start = close + 1;
        let Some(first) = tokens.get(body_start) else {
            continue;
        };
        let body = if first.is("{") {
            (body_start, matching_close(tokens, body_start, "{", "}"))
        } else {
            let mut depth = 0i32;
            let mut m = body_start;
            while let Some(p) = tokens.get(m) {
                if p.is("(") || p.is("[") || p.is("{") {
                    depth += 1;
                } else if p.is(")") || p.is("]") || p.is("}") {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if depth == 0 && (p.is(",") || p.is(";")) {
                    break;
                }
                m += 1;
            }
            if m == body_start {
                continue; // empty body — not a closure we can analyze
            }
            (body_start, m - 1)
        };
        out.push(ClosureItem {
            params,
            body,
            line: t.line,
            is_move,
        });
    }
    out
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
    let mut inline_generics = None;
    if tokens.get(j).is_some_and(|t| t.is("<")) {
        let end = skip_angles(tokens, j);
        if end > j + 1 {
            inline_generics = Some((j + 1, end - 1));
        }
        j = end;
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

    // Body: first `{` before a depth-0 `;` (a `;` means a declaration),
    // harvesting a `where` clause on the way.
    let mut body = None;
    let mut where_start = None;
    let mut sig_end = None;
    let mut m = k;
    while let Some(t) = tokens.get(m) {
        if t.is("{") {
            let close = matching_close(tokens, m, "{", "}");
            body = Some((m, close));
            sig_end = Some(m);
            break;
        }
        if t.is(";") {
            sig_end = Some(m);
            break;
        }
        if t.is_ident && t.text == "where" && where_start.is_none() {
            where_start = Some(m + 1);
        }
        m += 1;
    }

    let mut generic_bounds = Vec::new();
    if let Some((lo, hi)) = inline_generics {
        collect_bounds(tokens.get(lo..hi).unwrap_or_default(), &mut generic_bounds);
    }
    if let Some(w) = where_start {
        let end = sig_end.unwrap_or(tokens.len());
        collect_bounds(tokens.get(w..end).unwrap_or_default(), &mut generic_bounds);
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
            generic_bounds,
        },
        params_close + 1,
    ))
}

/// Collect `T: Bound + Bound` clauses from a token range (an inline
/// generics list without its angle brackets, or a `where` clause body)
/// into `out`. Bound identifiers are gathered flat — for
/// `F: Fn(T) -> R + Sync` that is `[Fn, T, R, Sync]` — an
/// over-approximation that errs toward discovering *more* parallel
/// boundaries, never fewer.
fn collect_bounds(tokens: &[Token], out: &mut Vec<(String, Vec<String>)>) {
    let flush = |start: usize, end: usize, out: &mut Vec<(String, Vec<String>)>| {
        let clause = tokens.get(start..end).unwrap_or_default();
        let mut depth = 0i32;
        let mut colon = None;
        for (i, t) in clause.iter().enumerate() {
            if t.is("(") || t.is("[") || t.is("{") || t.is("<") {
                depth += 1;
            } else if t.is(")") || t.is("]") || t.is("}") || t.is(">") {
                depth -= 1;
            } else if depth == 0 && t.is(":") {
                let double = clause.get(i + 1).is_some_and(|n| n.is(":"))
                    || (i > 0 && clause.get(i - 1).is_some_and(|p| p.is(":")));
                if !double {
                    colon = Some(i);
                    break;
                }
            }
        }
        let Some(c) = colon else { return };
        let Some(name) = clause
            .get(..c)
            .unwrap_or_default()
            .iter()
            .find(|t| t.is_ident)
        else {
            return;
        };
        let bounds: Vec<String> = clause
            .get(c + 1..)
            .unwrap_or_default()
            .iter()
            .filter(|t| t.is_ident)
            .map(|t| t.text.clone())
            .collect();
        if !bounds.is_empty() {
            out.push((name.text.clone(), bounds));
        }
    };
    let mut depth = 0i32;
    let mut clause_start = 0usize;
    for (m, t) in tokens.iter().enumerate() {
        if t.is("(") || t.is("[") || t.is("{") || t.is("<") {
            depth += 1;
        } else if t.is(")") || t.is("]") || t.is("}") || t.is(">") {
            depth -= 1;
        } else if depth == 0 && t.is(",") {
            flush(clause_start, m, out);
            clause_start = m + 1;
        }
    }
    flush(clause_start, tokens.len(), out);
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
                let ty_tokens = tokens.get(c + 1..param_end).unwrap_or_default();
                let ty = ty_tokens
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ");
                let ty_primary = ty_tokens
                    .iter()
                    .find(|t| t.is_ident && t.text != "mut" && t.text != "dyn" && t.text != "impl")
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                params.push(Param {
                    name: nt.text.clone(),
                    ty,
                    ty_primary,
                    line: nt.line,
                });
            }
        }
        j = param_end + 1;
    }
    (params, has_self)
}

/// Parse a `struct` item starting at the `struct` keyword.
fn parse_struct(
    tokens: &[Token],
    struct_idx: usize,
    is_pub: bool,
    in_test: bool,
) -> Option<(StructItem, usize)> {
    let name = tokens
        .get(struct_idx + 1)
        .filter(|t| t.is_ident)?
        .text
        .clone();
    let line = tokens.get(struct_idx).map(|t| t.line).unwrap_or(0);
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
    match tokens.get(j) {
        Some(t) if t.is("{") => {
            let close = matching_close(tokens, j, "{", "}");
            let (fields, _) = parse_params(tokens, j + 1, close);
            Some((
                StructItem {
                    name,
                    is_pub,
                    line,
                    fields,
                    in_test,
                },
                close + 1,
            ))
        }
        Some(t) if t.is("(") => {
            let close = matching_close(tokens, j, "(", ")");
            Some((
                StructItem {
                    name,
                    is_pub,
                    line,
                    fields: Vec::new(),
                    in_test,
                },
                close + 1,
            ))
        }
        _ => Some((
            StructItem {
                name,
                is_pub,
                line,
                fields: Vec::new(),
                in_test,
            },
            j + 1,
        )),
    }
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
    fn struct_fields_with_types() {
        let idx = parse("pub struct S { pub records: HashMap<String, u32>, count: usize }");
        assert_eq!(idx.structs.len(), 1);
        let s = &idx.structs[0];
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "records");
        assert_eq!(s.fields[0].ty_primary, "HashMap");
        assert_eq!(s.fields[1].ty_primary, "usize");
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
        let idx = parse("struct T(u32, f64);\nstruct U;");
        assert_eq!(idx.structs.len(), 2);
        assert!(idx.structs[0].fields.is_empty());
        assert!(idx.structs[1].fields.is_empty());
    }

    #[test]
    fn generic_bounds_inline_and_where() {
        let idx = parse(
            "pub fn parallel_map<T: Send, R: Send, F>(threads: usize, items: Vec<T>, f: F) \
             -> Vec<R> where F: Fn(T) -> R + Sync { body() }",
        );
        let f = &idx.fns[0];
        assert!(f
            .generic_bounds
            .iter()
            .any(|(ty, b)| ty == "T" && b.contains(&"Send".to_string())));
        assert!(f.generic_bounds.iter().any(|(ty, b)| ty == "F"
            && b.contains(&"Fn".to_string())
            && b.contains(&"Sync".to_string())));
        assert_eq!(f.sync_closure_params(), vec!["f"]);
        // A plain callback (no Sync/Send) is not a parallel boundary.
        let idx = parse("fn for_each<F: FnMut(u32)>(f: F) {}");
        assert!(idx.fns[0].sync_closure_params().is_empty());
    }

    #[test]
    fn closures_are_indexed() {
        let src = "fn f() { let g = |x: u32, (a, b)| x + a; run(move || { push(v); }); \
                   match t { A | B => 1, _ => 2 }; let n = c | d; }";
        let idx = parse(src);
        assert_eq!(idx.closures.len(), 2, "{:?}", idx.closures);
        assert_eq!(idx.closures[0].params, vec!["x", "a", "b"]);
        assert!(!idx.closures[0].is_move);
        assert!(idx.closures[1].params.is_empty());
        assert!(idx.closures[1].is_move);
        // The move closure's body is the braced block.
        let tokens = lex(src);
        let (lo, hi) = idx.closures[1].body;
        assert!(tokens[lo].is("{") && tokens[hi].is("}"));
        // closures_in finds both inside f's body.
        let (open, close) = idx.fns[0].body.unwrap();
        assert_eq!(idx.closures_in(open, close).len(), 2);
    }

    #[test]
    fn closure_expression_body_ends_at_comma() {
        let src = "fn f() { fold(0.0, |acc, x| acc + x, tail); }";
        let idx = parse(src);
        assert_eq!(idx.closures.len(), 1);
        let tokens = lex(src);
        let (_, hi) = idx.closures[0].body;
        // Body must stop before the `,` that precedes `tail`.
        assert!(tokens[hi].is_ident && tokens[hi].text == "x");
    }

    #[test]
    fn statics_are_indexed() {
        let src = "static VIOLATIONS: AtomicU64 = AtomicU64::new(0);\n\
                   pub static mut RAW: f64 = 0.0;\n\
                   fn f() { let x: &'static str = s; }";
        let idx = parse(src);
        assert_eq!(idx.statics.len(), 2);
        assert_eq!(idx.statics[0].name, "VIOLATIONS");
        assert_eq!(idx.statics[0].ty_primary, "AtomicU64");
        assert!(!idx.statics[0].is_mut);
        assert_eq!(idx.statics[1].name, "RAW");
        assert!(idx.statics[1].is_mut);
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
