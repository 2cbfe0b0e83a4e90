//! The front end every source analysis reads.
//!
//! * [`FileCtx`] — one file's [`crate::lex`] tokens with the per-line
//!   facts every rule needs: comment text, whether a line holds code,
//!   `#[cfg(test)]` regions and `lint: allow(…)` waivers. Test code is
//!   one predicate, [`FileCtx::is_test`]: a file under a `tests/`
//!   directory, or a line inside a `#[cfg(test)]` item.
//! * [`items`] — one walk over a file's items. It yields each `fn`,
//!   `struct`, `enum`, `trait`, `const`, `static`, `type`, `mod` and `use`
//!   once, with its visibility, its enclosing `impl` type, whether it is a
//!   method, a fn's body token range, and whether it is test code. An
//!   `impl` block opens only where an item can start, so `impl Trait` in
//!   a signature never files a nested fn under a phantom type.
//! * [`call_at`] — one definition of a call site: `name(…)`,
//!   `qual::name(…)` or `.name(…)`, each optionally with a `::<…>`
//!   turbofish, and never a keyword or a `fn` item's own name.
//!
//! `graph`, `locks` and `dead` read the walk and the call sites; each
//! keeps only its own semantics on top (call resolution, guard scopes,
//! identifier uses). `lint` reads [`FileCtx`].

use std::path::{Path, PathBuf};

use crate::lex::{lex, Tok, TokKind};

/// Identifiers that look like calls but are control flow or bindings.
pub(crate) const KEYWORDS: [&str; 22] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "fn",
    "move", "ref", "in", "as", "dyn", "unsafe", "const", "static", "await", "box", "yield",
];

/// Tokenized file with the per-line facts every rule needs.
pub(crate) struct FileCtx<'s> {
    pub(crate) src: &'s str,
    pub(crate) toks: Vec<Tok>,
    /// Indices into `toks` of code tokens only.
    pub(crate) code: Vec<usize>,
    /// Per line (0-based): concatenated comment text.
    pub(crate) comments: Vec<String>,
    /// Per line (0-based): the line carries at least one code token.
    pub(crate) has_code: Vec<bool>,
    /// Per line (0-based): inside a `#[cfg(test)]` item.
    in_test: Vec<bool>,
}

impl<'s> FileCtx<'s> {
    pub(crate) fn new(src: &'s str) -> FileCtx<'s> {
        let toks = lex(src);
        let nlines = src.as_bytes().iter().filter(|&&b| b == b'\n').count() + 1;
        let mut comments = vec![String::new(); nlines];
        let mut has_code = vec![false; nlines];
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind.is_code())
            .map(|(i, _)| i)
            .collect();
        for t in &toks {
            let text = t.text(src);
            if t.kind.is_comment() {
                for (k, part) in text.split('\n').enumerate() {
                    let l = t.line as usize - 1 + k;
                    if l < nlines {
                        comments[l].push_str(part);
                    }
                }
            } else if t.kind.is_code() {
                let span_lines = text.matches('\n').count();
                for k in 0..=span_lines {
                    let l = t.line as usize - 1 + k;
                    if l < nlines {
                        has_code[l] = true;
                    }
                }
            }
        }
        let mut ctx = FileCtx {
            src,
            toks,
            code,
            comments,
            has_code,
            in_test: vec![false; nlines],
        };
        ctx.mark_test_regions();
        ctx
    }

    /// Text of the code token at code-index `ci` (`""` out of range).
    pub(crate) fn ctext(&self, ci: usize) -> &str {
        self.code
            .get(ci)
            .map_or("", |&i| self.toks[i].text(self.src))
    }

    pub(crate) fn ctok(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }

    /// Whether the code tokens starting at `ci` spell out `pat`.
    pub(crate) fn seq_at(&self, ci: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, want)| self.ctext(ci + k) == *want)
    }

    /// Mark every line inside an item annotated `#[cfg(test)]` (tracked
    /// by brace depth over code tokens from the attribute on; an item
    /// with no braces ends at its first `;` outside brackets).
    fn mark_test_regions(&mut self) {
        let attr = ["#", "[", "cfg", "(", "test", ")", "]"];
        let mut ci = 0;
        while ci < self.code.len() {
            if !self.seq_at(ci, &attr) {
                ci += 1;
                continue;
            }
            let start_line = self.ctok(ci).line as usize;
            let mut depth = 0i64;
            let mut nest = 0i64;
            let mut opened = false;
            let mut j = ci + attr.len();
            let mut end_line = self.in_test.len();
            while j < self.code.len() {
                match self.ctext(j) {
                    "{" => {
                        depth += 1;
                        opened = true;
                    }
                    "}" => depth -= 1,
                    "(" | "[" => nest += 1,
                    ")" | "]" => nest -= 1,
                    _ => {}
                }
                // A brace-less item (`use …;`, `const …;`, `mod x;`)
                // ends at its own `;`, not at the next item's `}`.
                let bare_end = !opened && nest == 0 && self.ctext(j) == ";";
                if bare_end || (opened && depth <= 0) {
                    let t = self.ctok(j);
                    end_line = t.line as usize + t.text(self.src).matches('\n').count();
                    break;
                }
                j += 1;
            }
            for l in start_line..=end_line.min(self.in_test.len()) {
                self.in_test[l - 1] = true;
            }
            ci = j + 1;
        }
    }

    /// Whether 1-based `line` of the file at `relpath` is test code: the
    /// file sits under a `tests/` directory, or the line is inside a
    /// `#[cfg(test)]` item.
    pub(crate) fn is_test(&self, relpath: &str, line: u32) -> bool {
        is_test_path(relpath) || self.in_test_region(line)
    }

    /// Whether 1-based `line` is inside a `#[cfg(test)]` item.
    pub(crate) fn in_test_region(&self, line: u32) -> bool {
        self.in_test
            .get((line as usize).wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// `lint: allow(<rule>)` waiver in a comment on `line`, or on a
    /// comment-only line just above it (1-based). A waiver trailing the
    /// code of the line above belongs to that line.
    pub(crate) fn waived(&self, line: usize, rule: &str) -> bool {
        let tag = format!("lint: allow({rule})");
        let hit = |l: usize| {
            l >= 1
                && self
                    .comments
                    .get(l - 1)
                    .is_some_and(|c| c.contains(tag.as_str()))
        };
        let above = line >= 2 && self.has_code.get(line - 2) == Some(&false) && hit(line - 1);
        hit(line) || above
    }

    /// Code-index of the first token of the statement containing code
    /// token `ci`: the token after the nearest preceding `;`, `{`, or
    /// `}` (or the first code token of the file).
    pub(crate) fn stmt_start(&self, ci: usize) -> usize {
        let mut s = ci;
        while s > 0 {
            if matches!(self.ctext(s - 1), ";" | "{" | "}") {
                break;
            }
            s -= 1;
        }
        s
    }

    /// Code-index one past the last token of the statement containing
    /// `ci`: up to and including the next `;`, or stopping before the
    /// next `{`/`}` (conservative — block arguments end the walk).
    pub(crate) fn stmt_end(&self, ci: usize) -> usize {
        let mut e = ci;
        while e < self.code.len() {
            match self.ctext(e) {
                ";" => return e + 1,
                "{" | "}" if e > ci => return e,
                _ => e += 1,
            }
        }
        e
    }
}

/// Normalize a path to forward slashes relative to `root` (best effort).
pub(crate) fn rel(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Whether `relpath` lies under a `tests/` directory.
pub(crate) fn is_test_path(relpath: &str) -> bool {
    relpath.contains("/tests/") || relpath.starts_with("tests/")
}

/// Recursively collect `.rs` files under `dir` (or `dir` itself when it
/// is a file), skipping build output and VCS internals.
pub(crate) fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if dir.is_file() {
        out.push(dir.to_path_buf());
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Item keywords the walk yields.
const ITEM_KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use",
];

/// Who outside its module can name an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Vis {
    /// No `pub`.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in …)`.
    Restricted,
    /// `pub`.
    Pub,
}

/// One item, as [`items`] yields it.
#[derive(Clone, Debug)]
pub(crate) struct Item {
    /// Item keyword: one of [`ITEM_KINDS`].
    pub(crate) kind: &'static str,
    /// Code index of the keyword.
    pub(crate) kw: usize,
    /// Code index of the name (of the keyword, for a `use`).
    pub(crate) at: usize,
    /// The name (empty for a `use`).
    pub(crate) name: String,
    /// 1-based line of the name.
    pub(crate) line: u32,
    pub(crate) vis: Vis,
    /// Type of the innermost `impl` block around the item, at any depth.
    pub(crate) impl_type: Option<String>,
    /// A `fn` directly inside an `impl` body.
    pub(crate) method: bool,
    /// A fn's body: the code indices of its braces, inclusive (`None`
    /// for a declaration ending in `;`, and for every other kind).
    pub(crate) body: Option<(usize, usize)>,
    /// [`FileCtx::is_test`] at the name's line.
    pub(crate) test: bool,
}

/// Every item of the file at `relpath`, in source order: free and
/// nested fns, methods, trait declarations and the items inside
/// `#[cfg(test)]` modules alike.
pub(crate) fn items(ctx: &FileCtx, relpath: &str) -> Vec<Item> {
    // Per open `{`: `Some(impl type)` when it opens an `impl` body.
    let mut blocks: Vec<Option<Option<String>>> = Vec::new();
    let mut pending_impl = None;
    let mut out = Vec::new();
    for ci in 0..ctx.code.len() {
        match ctx.ctext(ci) {
            "{" => blocks.push(pending_impl.take()),
            "}" => {
                blocks.pop();
            }
            // An `impl` item: the keyword where an item can start, not
            // `impl Trait` in a signature or a type.
            "impl" if ci == 0 || matches!(ctx.ctext(ci - 1), "}" | ";" | "{" | "]" | "unsafe") => {
                pending_impl = Some(parse_impl_type(ctx, ci + 1));
            }
            kw => {
                let Some(&kind) = ITEM_KINDS.iter().find(|&&k| k == kw) else {
                    continue;
                };
                let at = match kind {
                    "use" => ci,
                    "static" if ctx.ctext(ci + 1) == "mut" => ci + 2,
                    _ => ci + 1,
                };
                if kind != "use" && !is_name(ctx, at) {
                    continue;
                }
                let line = ctx.ctok(at).line;
                out.push(Item {
                    kind,
                    kw: ci,
                    at,
                    name: if kind == "use" { "" } else { ctx.ctext(at) }.to_string(),
                    line,
                    vis: vis_before(ctx, ci),
                    impl_type: blocks.iter().rev().find_map(Option::clone).flatten(),
                    method: kind == "fn" && matches!(blocks.last(), Some(Some(_))),
                    body: (kind == "fn").then(|| fn_body_range(ctx, at + 1)).flatten(),
                    test: ctx.is_test(relpath, line),
                });
            }
        }
    }
    out
}

/// Whether code token `ci` is an identifier that can name an item.
fn is_name(ctx: &FileCtx, ci: usize) -> bool {
    ci < ctx.code.len()
        && ctx.ctok(ci).kind == TokKind::Ident
        && !matches!(ctx.ctext(ci), "fn" | "unsafe" | "extern" | "async")
}

/// Visibility of the item whose keyword is code token `kw`, read back
/// over its qualifiers (`pub const fn`, `pub unsafe extern "C" fn`,
/// `pub async fn`).
fn vis_before(ctx: &FileCtx, kw: usize) -> Vis {
    let mut j = kw;
    while j > 0
        && (matches!(ctx.ctext(j - 1), "unsafe" | "async" | "extern")
            || (ctx.ctext(j - 1) == "const" && !is_name(ctx, j))
            || ctx.ctok(j - 1).kind == TokKind::StrLit)
    {
        j -= 1;
    }
    match ctx.ctext(j.wrapping_sub(1)) {
        "pub" => Vis::Pub,
        ")" => {
            let open = (0..j - 1).rev().find(|&k| ctx.ctext(k) == "(");
            match open {
                Some(k) if k > 0 && ctx.ctext(k - 1) == "pub" => Vis::Restricted,
                _ => Vis::Private,
            }
        }
        _ => Vis::Private,
    }
}

/// The impl'd type name: last path segment before the opening `{`,
/// taking the `for` side when present (`impl Trait for Type`).
fn parse_impl_type(ctx: &FileCtx, mut ci: usize) -> Option<String> {
    let mut candidate: Option<String> = None;
    while ci < ctx.code.len() {
        let text = ctx.ctext(ci);
        match text {
            "{" | ";" => break,
            "<" => ci = skip_angles(ctx, ci),
            "for" => {
                candidate = None;
                ci += 1;
            }
            _ => {
                if ctx.ctok(ci).kind == TokKind::Ident && text != "dyn" && text != "mut" {
                    candidate = Some(text.to_string());
                }
                ci += 1;
            }
        }
    }
    candidate
}

/// Body code-token range of a fn whose signature starts at `ci` (just
/// after the name): `(open_brace_idx, close_brace_idx)` inclusive, or
/// `None` for a trait method ending in `;`.
fn fn_body_range(ctx: &FileCtx, mut ci: usize) -> Option<(usize, usize)> {
    let n = ctx.code.len();
    let mut paren = 0i64;
    while ci < n {
        match ctx.ctext(ci) {
            "(" => paren += 1,
            ")" => paren -= 1,
            "<" if paren == 0 => {
                ci = skip_angles(ctx, ci);
                continue;
            }
            ";" if paren == 0 => return None,
            "{" if paren == 0 => {
                let open = ci;
                let mut depth = 0i64;
                while ci < n {
                    match ctx.ctext(ci) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((open, ci));
                            }
                        }
                        _ => {}
                    }
                    ci += 1;
                }
                return Some((open, n.saturating_sub(1)));
            }
            _ => {}
        }
        ci += 1;
    }
    None
}

/// Skip a balanced `<…>` group starting at the `<` at code index `ci`;
/// returns the index one past the matching `>`.
pub(crate) fn skip_angles(ctx: &FileCtx, mut ci: usize) -> usize {
    let mut depth = 0i64;
    while ci < ctx.code.len() {
        match ctx.ctext(ci) {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth <= 0 {
                    return ci + 1;
                }
            }
            ";" | "{" => return ci, // malformed / not generics — bail
            _ => {}
        }
        ci += 1;
    }
    ci
}

/// How a call site is written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `f(…)`.
    Bare,
    /// `qual::f(…)`.
    Path,
    /// `.f(…)`.
    Method,
}

/// The call whose callee name is code token `ci`, by its form: `name(…)`,
/// `qual::name(…)` or `.name(…)`, each also with one `::<…>` turbofish
/// before the arguments. A keyword before a parenthesis (`if (…)`), a
/// macro (`name!(…)`) and the name of a `fn` item are not calls.
pub(crate) fn call_at(ctx: &FileCtx, ci: usize) -> Option<CallKind> {
    if ctx.ctok(ci).kind != TokKind::Ident
        || KEYWORDS.contains(&ctx.ctext(ci))
        || call_paren_after(ctx, ci + 1).is_none()
    {
        return None;
    }
    match ctx.ctext(ci.wrapping_sub(1)) {
        "fn" => None,
        "." => Some(CallKind::Method),
        ":" if ctx.ctext(ci.wrapping_sub(2)) == ":" => Some(CallKind::Path),
        _ => Some(CallKind::Bare),
    }
}

/// If a call's argument list opens at `ci` (allowing one `::<…>`
/// turbofish), return the index of the `(`.
fn call_paren_after(ctx: &FileCtx, ci: usize) -> Option<usize> {
    if ctx.ctext(ci) == "(" {
        return Some(ci);
    }
    if ctx.seq_at(ci, &[":", ":", "<"]) {
        let after = skip_angles(ctx, ci + 2);
        if ctx.ctext(after) == "(" {
            return Some(after);
        }
    }
    None
}
