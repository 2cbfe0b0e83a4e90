//! Workspace call graph + transitive hot-path analyses.
//!
//! A lightweight item parser over the [`crate::lex`] token stream finds
//! every `fn` item (free functions and `impl` methods, with body token
//! ranges) and every call site inside those bodies. Call sites are
//! resolved by name/path heuristics — this is *not* type inference, so
//! the resolver is deliberately conservative and keeps an explicit
//! **unresolved bucket** instead of guessing:
//!
//! * `path::f(…)` / `Type::f(…)` — resolved by impl-type + name, or by
//!   the module/crate the qualifier names;
//! * bare `f(…)` — same file, then same crate, then workspace-unique;
//!   capitalized non-matches are treated as tuple-struct/enum
//!   constructors and ignored;
//! * `.f(…)` method calls — resolved only when `f` is defined exactly
//!   once across all workspace impls *and* is not a common std method
//!   name (`STD_METHODS`); everything else lands in the unresolved
//!   bucket.
//!
//! On top of the graph sit two transitive analyses rooted at the σ-task
//! and GEMM kernels ([`DEFAULT_ROOTS`]): **allocation-freedom** (`vec!`,
//! `Vec::new`, `Vec::with_capacity`, `Box::new`, `format!`, `.to_vec()`,
//! `.collect()`, `.reserve(`, `.push(`, `.extend(`, `.to_string()`) and
//! **panic-freedom** (`.unwrap()` outside the `.lock().unwrap()` idiom,
//! `.expect(`, `panic!`, `todo!`, `unimplemented!`). A helper added
//! three calls below `dgemm` can no longer silently reintroduce heap
//! traffic or a panic into the zero-alloc hot path. Slice indexing
//! without `get` is tracked as a *soft* third category (counted, not
//! failing, unless `--strict-index`): the `Matrix` index operator is the
//! idiomatic access path throughout the kernels and panics only on
//! out-of-bounds, which the dimension checks exclude.
//!
//! Sites are suppressed by the same `lint: allow(alloc)` /
//! `lint: allow(unwrap)` / `lint: allow(index)` waivers the lint rules
//! honor, so one reviewed comment covers both engines.

use std::collections::HashMap;
use std::path::Path;

use crate::lex::TokKind;
use crate::lint::{collect_rs, FileCtx};
use fci_obs::JsonValue;

/// Hot-path roots the transitive analyses start from: the σ-task body,
/// the GEMM entry points, their one loop nest and the register tile.
pub const DEFAULT_ROOTS: [&str; 14] = [
    "process_task_into",
    // The same-spin routine's arithmetic pass, its per-rank charge walk
    // and its blocked transpose.
    "sub_block_kernel",
    "charge_walk",
    "transpose_block",
    "dgemm",
    "dgemm_prepacked",
    "macro_kernel",
    // The bounds-establishing entry to the tile, its width/mask dispatch
    // and the tile itself.
    "run_tile",
    "tile_of_width",
    "tile",
    // The sparse engine's per-iteration kernels (crates/sparse).
    "spmv_rows",
    "scan_gradient",
    // The connection walker both sparse solvers run per determinant.
    "walk_connections",
    // Called per CSR row and per CDFCI update.
    "diagonal_element",
];

/// Method names resolved to std/core rather than workspace impls; calls
/// to these never create graph edges and are not reported as unresolved.
pub(crate) const STD_METHODS: [&str; 112] = [
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_mut_ptr",
    "as_ptr",
    "as_ref",
    "as_secs_f64",
    "as_slice",
    "as_str",
    "binary_search",
    "borrow",
    "borrow_mut",
    "capacity",
    "ceil",
    "chain",
    "chars",
    "chunks",
    "chunks_exact",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "div_ceil",
    "drain",
    "elapsed",
    "ends_with",
    "entry",
    "enumerate",
    "expect",
    "extend",
    "filter",
    "filter_map",
    "find",
    "find_map",
    "flat_map",
    "flatten",
    "floor",
    "fold",
    "for_each",
    "get",
    "get_mut",
    "get_unchecked",
    "get_unchecked_mut",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_finite",
    "is_nan",
    "is_none",
    "is_none_or",
    "is_ok",
    "is_some",
    "is_some_and",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "load",
    "lock",
    "map",
    "map_err",
    "map_or",
    "max",
    "max_by_key",
    "min",
    "min_by_key",
    "next",
    "ok",
    "parse",
    "position",
    "powi",
    "push",
    "remove",
    "reserve",
    "resize",
    "rev",
    "skip",
    "sort",
    "sort_by",
    "sort_unstable",
    "splice",
    "split",
    "sqrt",
    "starts_with",
    "store",
    "sum",
    "swap_remove",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_into",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "zip",
];

/// Identifiers that look like calls but are control flow or bindings.
const KEYWORDS: [&str; 22] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "fn",
    "move", "ref", "in", "as", "dyn", "unsafe", "const", "static", "await", "box", "yield",
];

/// One `fn` item in the workspace.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Crate the file belongs to (directory under `crates/`, or the
    /// root package name for `src/`).
    pub krate: String,
    /// Workspace-relative file path with forward slashes.
    pub file: String,
    /// Enclosing `impl` type, if the fn is a method/associated fn.
    pub impl_type: Option<String>,
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `#[cfg(test)]` region or a `tests/` file — excluded from
    /// resolution so test helpers never shadow production fns.
    pub is_test: bool,
}

impl FnItem {
    /// `Type::name` or bare `name` for display.
    pub(crate) fn qual_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// What a finding inside a fn body is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// Heap-allocation site.
    Alloc,
    /// Panic site.
    Panic,
    /// Slice/matrix indexing without `get` (soft category).
    Index,
}

/// One alloc/panic/index site inside a fn body.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Category.
    pub kind: FindingKind,
    /// The matched construct (e.g. `vec!`, `.push(`, `.unwrap()`).
    pub what: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// How a call site was written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `f(…)`.
    Bare,
    /// `qual::f(…)`.
    Path,
    /// `.f(…)`.
    Method,
}

/// A call site that could not be resolved to a unique workspace fn.
#[derive(Clone, Debug)]
pub struct UnresolvedCall {
    /// Index of the calling fn in [`CallGraph::fns`].
    pub caller: usize,
    /// Callee name as written.
    pub name: String,
    /// Path qualifier, for `qual::f` calls.
    pub qual: Option<String>,
    /// Syntactic form.
    pub kind: CallKind,
    /// 1-based line of the call.
    pub line: u32,
    /// Why resolution gave up: `"unknown"` (no candidate) or
    /// `"ambiguous"` (several).
    pub reason: &'static str,
}

/// The workspace call graph plus per-fn local findings.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All fn items, in file order.
    pub fns: Vec<FnItem>,
    /// Resolved callee indices per fn (deduplicated).
    pub edges: Vec<Vec<usize>>,
    /// Call sites without a unique target.
    pub unresolved: Vec<UnresolvedCall>,
    /// Alloc/panic/index sites per fn (waived sites excluded).
    pub findings: Vec<Vec<Finding>>,
}

/// Raw call site before resolution.
struct RawCall {
    name: String,
    qual: Option<String>,
    kind: CallKind,
    line: u32,
    /// Code-token index of the callee name (for innermost-fn lookup).
    ci: usize,
}

/// Per-file parse product.
struct FileItems {
    /// (fn metadata, body code-token range).
    fns: Vec<(FnItem, Option<(usize, usize)>)>,
    calls: Vec<RawCall>,
    findings: Vec<(usize, Finding)>,
}

fn crate_of(relpath: &str) -> String {
    let mut parts = relpath.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("?").to_string(),
        Some("src") => "fcix".to_string(),
        Some(other) => other.to_string(),
        None => "?".to_string(),
    }
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

/// Parse one file: fn items with body ranges, call sites, findings.
fn parse_file(ctx: &FileCtx, relpath: &str) -> FileItems {
    let krate = crate_of(relpath);
    let mut out = FileItems {
        fns: Vec::new(),
        calls: Vec::new(),
        findings: Vec::new(),
    };

    // Pass 1: impl scopes and fn items.
    let mut depth = 0i64;
    let mut impl_stack: Vec<(Option<String>, i64)> = Vec::new();
    let mut pending_impl: Option<Option<String>> = None;
    let n = ctx.code.len();
    let mut ci = 0;
    while ci < n {
        let text = ctx.ctext(ci);
        match text {
            "{" => {
                depth += 1;
                if let Some(ty) = pending_impl.take() {
                    impl_stack.push((ty, depth));
                }
            }
            "}" => {
                if let Some((_, d)) = impl_stack.last() {
                    if *d == depth {
                        impl_stack.pop();
                    }
                }
                depth -= 1;
            }
            "impl" if ctx.ctok(ci).kind == TokKind::Ident => {
                pending_impl = Some(parse_impl_type(ctx, ci + 1));
            }
            "fn" if ctx.ctok(ci).kind == TokKind::Ident
                && ctx.code.get(ci + 1).is_some()
                && ctx.ctok(ci + 1).kind == TokKind::Ident =>
            {
                let name_tok = ctx.ctext(ci + 1).to_string();
                let line = ctx.ctok(ci).line;
                let body = fn_body_range(ctx, ci + 2);
                out.fns.push((
                    FnItem {
                        krate: krate.clone(),
                        file: relpath.to_string(),
                        impl_type: impl_stack.last().and_then(|(t, _)| t.clone()),
                        name: name_tok,
                        line,
                        is_test: ctx.is_test(relpath, line),
                    },
                    body,
                ));
            }
            _ => {}
        }
        ci += 1;
    }

    // Pass 2: call sites and findings over the whole token stream; the
    // caller attribution (innermost enclosing fn body) happens later.
    scan_calls_and_findings(ctx, relpath, &mut out);
    out
}

/// The impl'd type name: last path segment before the opening `{`,
/// taking the `for` side when present (`impl Trait for Type`).
pub(crate) fn parse_impl_type(ctx: &FileCtx, mut ci: usize) -> Option<String> {
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
pub(crate) fn fn_body_range(ctx: &FileCtx, mut ci: usize) -> Option<(usize, usize)> {
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

fn scan_calls_and_findings(ctx: &FileCtx, relpath: &str, out: &mut FileItems) {
    let n = ctx.code.len();
    let mut push_finding = |ci: usize, kind: FindingKind, what: &str, rule: &str| {
        let line = ctx.ctok(ci).line;
        if !ctx.waived(line as usize, rule) {
            out.findings.push((
                ci,
                Finding {
                    kind,
                    what: what.to_string(),
                    file: relpath.to_string(),
                    line,
                },
            ));
        }
    };

    for ci in 0..n {
        let tok = ctx.ctok(ci);
        let text = ctx.ctext(ci);
        match tok.kind {
            TokKind::Ident => {
                // Macros: alloc/panic macros are findings, never calls.
                if ctx.ctext(ci + 1) == "!" {
                    match text {
                        "vec" | "format" => {
                            push_finding(ci, FindingKind::Alloc, &format!("{text}!"), "alloc")
                        }
                        "panic" | "todo" | "unimplemented" => {
                            push_finding(ci, FindingKind::Panic, &format!("{text}!"), "unwrap")
                        }
                        _ => {}
                    }
                    continue;
                }
                // Path constructors that allocate.
                if (text == "Vec" || text == "Box") && ctx.seq_at(ci + 1, &[":", ":"]) {
                    let tail = ctx.ctext(ci + 3);
                    if tail == "new" || (text == "Vec" && tail == "with_capacity") {
                        push_finding(ci, FindingKind::Alloc, &format!("{text}::{tail}"), "alloc");
                    }
                }
                // Call shapes: `name(`, `qual::name(`, `name::<T>(`.
                let prev = if ci > 0 { ctx.ctext(ci - 1) } else { "" };
                if call_paren_after(ctx, ci + 1).is_none() {
                    continue;
                }
                if KEYWORDS.contains(&text) || prev == "fn" || prev == "." {
                    // Method calls are handled at the `.` token below.
                    continue;
                }
                let is_path = ci >= 2 && prev == ":" && ctx.ctext(ci - 2) == ":";
                if is_path {
                    let qual = if ci >= 3 && ctx.ctok(ci - 3).kind == TokKind::Ident {
                        Some(ctx.ctext(ci - 3).to_string())
                    } else {
                        None
                    };
                    // Walk to the path root: `std::array::from_fn` must
                    // not resolve to a workspace `from_fn` by name.
                    let mut seg = ci;
                    while seg >= 3
                        && ctx.ctext(seg - 1) == ":"
                        && ctx.ctext(seg - 2) == ":"
                        && ctx.ctok(seg - 3).kind == TokKind::Ident
                    {
                        seg -= 3;
                    }
                    if matches!(ctx.ctext(seg), "std" | "core" | "alloc") {
                        continue;
                    }
                    out.calls.push(RawCall {
                        name: text.to_string(),
                        qual,
                        kind: CallKind::Path,
                        line: tok.line,
                        ci,
                    });
                } else {
                    out.calls.push(RawCall {
                        name: text.to_string(),
                        qual: None,
                        kind: CallKind::Bare,
                        line: tok.line,
                        ci,
                    });
                }
            }
            TokKind::Punct if text == "." => {
                let name = ctx.ctext(ci + 1);
                if ctx
                    .code
                    .get(ci + 1)
                    .is_none_or(|&i| ctx.toks[i].kind != TokKind::Ident)
                {
                    continue;
                }
                if call_paren_after(ctx, ci + 2).is_none() {
                    continue;
                }
                // Findings on method names, idiom-aware.
                match name {
                    "unwrap" if ctx.ctext(ci + 3) == ")" => {
                        let lock_idiom = ci >= 4 && ctx.seq_at(ci - 4, &[".", "lock", "(", ")"]);
                        if !lock_idiom {
                            push_finding(ci, FindingKind::Panic, ".unwrap()", "unwrap");
                        }
                    }
                    "expect" => push_finding(ci, FindingKind::Panic, ".expect(", "unwrap"),
                    "to_vec" | "to_string" if ctx.ctext(ci + 3) == ")" => {
                        push_finding(ci, FindingKind::Alloc, &format!(".{name}()"), "alloc")
                    }
                    "collect" => push_finding(ci, FindingKind::Alloc, ".collect(", "alloc"),
                    "reserve" | "push" | "extend" => {
                        push_finding(ci, FindingKind::Alloc, &format!(".{name}("), "alloc")
                    }
                    _ => {}
                }
                if STD_METHODS.contains(&name) {
                    continue;
                }
                out.calls.push(RawCall {
                    name: name.to_string(),
                    qual: None,
                    kind: CallKind::Method,
                    line: ctx.ctok(ci + 1).line,
                    ci: ci + 1,
                });
            }
            // Indexing without `get`: `expr[` where expr ends in an
            // identifier, `)`, or `]` (soft category).
            TokKind::Punct if text == "[" && ci > 0 => {
                let prev = ctx.ctok(ci - 1);
                let pt = ctx.ctext(ci - 1);
                let indexing = (prev.kind == TokKind::Ident && !KEYWORDS.contains(&pt))
                    || pt == ")"
                    || pt == "]";
                if indexing {
                    push_finding(ci, FindingKind::Index, "[...]", "index");
                }
            }
            _ => {}
        }
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

/// Build the call graph for every `.rs` file under `root`.
pub(crate) fn build_workspace_graph(root: &Path) -> std::io::Result<CallGraph> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();

    let mut g = CallGraph::default();
    // Per file: (body lo, body hi, fn index) for caller attribution.
    let mut bodies: Vec<Vec<(usize, usize, usize)>> = Vec::new();
    let mut raw_calls: Vec<(usize, RawCall)> = Vec::new();
    let mut raw_findings: Vec<(usize, usize, Finding)> = Vec::new();

    for (fi, f) in files.iter().enumerate() {
        let src = std::fs::read_to_string(f)?;
        let relpath = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let ctx = FileCtx::new(&src);
        let items = parse_file(&ctx, &relpath);
        let mut file_bodies = Vec::new();
        for (item, body) in items.fns {
            let id = g.fns.len();
            if let Some((lo, hi)) = body {
                file_bodies.push((lo, hi, id));
            }
            g.fns.push(item);
        }
        bodies.push(file_bodies);
        for c in items.calls {
            raw_calls.push((fi, c));
        }
        for (ci, fnd) in items.findings {
            raw_findings.push((fi, ci, fnd));
        }
    }
    g.findings = vec![Vec::new(); g.fns.len()];

    // Innermost enclosing fn for a code-token index.
    let enclosing = |fi: usize, ci: usize| -> Option<usize> {
        bodies[fi]
            .iter()
            .filter(|(lo, hi, _)| *lo <= ci && ci <= *hi)
            .min_by_key(|(lo, hi, _)| hi - lo)
            .map(|&(_, _, id)| id)
    };

    // Resolution indexes over non-test fns.
    let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
    let mut methods_by_name: HashMap<String, Vec<usize>> = HashMap::new();
    let mut by_type_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
    for (id, f) in g.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        by_name.entry(f.name.clone()).or_default().push(id);
        if let Some(t) = &f.impl_type {
            methods_by_name.entry(f.name.clone()).or_default().push(id);
            by_type_name
                .entry((t.clone(), f.name.clone()))
                .or_default()
                .push(id);
        }
    }

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); g.fns.len()];
    let mut unresolved = Vec::new();
    for (fi, call) in raw_calls {
        let Some(caller) = enclosing(fi, call.ci) else {
            continue; // top-level (const init) — not part of any fn
        };
        let caller_file = g.fns[caller].file.clone();
        let caller_crate = g.fns[caller].krate.clone();
        let target: Result<Option<usize>, &'static str> = match call.kind {
            CallKind::Method => match methods_by_name.get(call.name.as_str()) {
                Some(c) if c.len() == 1 => Ok(Some(c[0])),
                Some(_) => Err("ambiguous"),
                None => Err("unknown"),
            },
            CallKind::Path => {
                let qual = call.qual.clone().unwrap_or_default();
                if let Some(c) = by_type_name.get(&(qual.clone(), call.name.clone())) {
                    if c.len() == 1 {
                        Ok(Some(c[0]))
                    } else {
                        Err("ambiguous")
                    }
                } else {
                    // Module-qualified: prefer candidates whose path
                    // mentions the qualifier as a module or crate.
                    let cands = by_name.get(call.name.as_str()).cloned().unwrap_or_default();
                    let module_hit: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let f = &g.fns[id];
                            f.file.contains(&format!("/{qual}.rs"))
                                || f.file.contains(&format!("/{qual}/"))
                                || f.krate == qual
                                || format!("fci_{}", f.krate.replace('-', "_")) == qual
                        })
                        .collect();
                    let pick = if module_hit.len() == 1 {
                        Some(module_hit[0])
                    } else if cands.len() == 1 {
                        Some(cands[0])
                    } else {
                        None
                    };
                    match pick {
                        Some(id) => Ok(Some(id)),
                        None if cands.is_empty() => Err("unknown"),
                        None => Err("ambiguous"),
                    }
                }
            }
            CallKind::Bare => {
                let cands = by_name.get(call.name.as_str()).cloned().unwrap_or_default();
                let same_file: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&id| g.fns[id].file == caller_file)
                    .collect();
                let same_crate: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&id| g.fns[id].krate == caller_crate)
                    .collect();
                if same_file.len() == 1 {
                    Ok(Some(same_file[0]))
                } else if same_file.is_empty() && same_crate.len() == 1 {
                    Ok(Some(same_crate[0]))
                } else if same_file.is_empty() && same_crate.is_empty() && cands.len() == 1 {
                    Ok(Some(cands[0]))
                } else if cands.is_empty() {
                    // Tuple-struct / enum-variant constructors, or
                    // closure invocations (`sink(…)`): closures are
                    // lowercase, so only capitalized names are silently
                    // treated as constructors.
                    if call.name.chars().next().is_some_and(char::is_uppercase) {
                        Ok(None)
                    } else {
                        Err("unknown")
                    }
                } else {
                    Err("ambiguous")
                }
            }
        };
        match target {
            Ok(Some(callee)) => {
                if !edges[caller].contains(&callee) {
                    edges[caller].push(callee);
                }
            }
            Ok(None) => {}
            Err(reason) => unresolved.push(UnresolvedCall {
                caller,
                name: call.name,
                qual: call.qual,
                kind: call.kind,
                line: call.line,
                reason,
            }),
        }
    }
    for (fi, ci, fnd) in raw_findings {
        if let Some(id) = enclosing(fi, ci) {
            g.findings[id].push(fnd);
        }
    }
    g.edges = edges;
    g.unresolved = unresolved;
    Ok(g)
}

/// A finding attributed to a root via its call chain.
#[derive(Clone, Debug)]
pub struct AttributedFinding {
    /// The site itself.
    pub finding: Finding,
    /// Qualified name of the fn containing the site.
    pub in_fn: String,
    /// Call chain from the root to that fn (`root → … → fn`).
    pub chain: Vec<String>,
}

/// Transitive analysis result for one root.
#[derive(Clone, Debug)]
pub struct HotPathReport {
    /// Root fn name.
    pub root: String,
    /// Number of reachable fns (including the root).
    pub reachable: usize,
    /// Allocation sites reachable from the root.
    pub alloc: Vec<AttributedFinding>,
    /// Panic sites reachable from the root.
    pub panic: Vec<AttributedFinding>,
    /// Soft count of index-without-get sites.
    pub index_sites: usize,
    /// Unresolved call sites inside reachable fns.
    pub unresolved: usize,
}

impl CallGraph {
    /// Resolve a fn by bare name (must be unique among non-test fns).
    pub(crate) fn find_fn(&self, name: &str) -> Option<usize> {
        let hits: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.is_test && f.name == name)
            .map(|(i, _)| i)
            .collect();
        match hits.len() {
            0 => None,
            1 => Some(hits[0]),
            _ => {
                // Bin targets carry local helpers (reference kernels in
                // the bench sweeps) that may shadow a library fn of the
                // same name; hot-path roots mean the library one.
                let lib: Vec<usize> = hits
                    .iter()
                    .copied()
                    .filter(|&i| !self.fns[i].file.contains("/bin/"))
                    .collect();
                match lib.len() {
                    1 => Some(lib[0]),
                    _ => None,
                }
            }
        }
    }

    /// BFS the graph from `root_name` and attribute every reachable
    /// alloc/panic/index finding with its call chain.
    pub(crate) fn hot_path_report(&self, root_name: &str) -> Option<HotPathReport> {
        let root = self.find_fn(root_name)?;
        let mut parent: HashMap<usize, usize> = HashMap::new();
        let mut order = vec![root];
        let mut seen: std::collections::HashSet<usize> = order.iter().copied().collect();
        let mut qi = 0;
        while qi < order.len() {
            let u = order[qi];
            qi += 1;
            for &v in &self.edges[u] {
                if seen.insert(v) {
                    parent.insert(v, u);
                    order.push(v);
                }
            }
        }
        let chain_to = |mut id: usize| -> Vec<String> {
            let mut chain = vec![self.fns[id].qual_name()];
            while let Some(&p) = parent.get(&id) {
                chain.push(self.fns[p].qual_name());
                id = p;
            }
            chain.reverse();
            chain
        };
        let mut report = HotPathReport {
            root: root_name.to_string(),
            reachable: order.len(),
            alloc: Vec::new(),
            panic: Vec::new(),
            index_sites: 0,
            unresolved: 0,
        };
        for &id in &order {
            for f in &self.findings[id] {
                let att = AttributedFinding {
                    finding: f.clone(),
                    in_fn: self.fns[id].qual_name(),
                    chain: chain_to(id),
                };
                match f.kind {
                    FindingKind::Alloc => report.alloc.push(att),
                    FindingKind::Panic => report.panic.push(att),
                    FindingKind::Index => report.index_sites += 1,
                }
            }
        }
        report.unresolved = self
            .unresolved
            .iter()
            .filter(|u| order.contains(&u.caller))
            .count();
        Some(report)
    }

    /// Graph-level summary JSON: sizes and the unresolved bucket.
    pub fn to_json(&self) -> JsonValue {
        let edge_count: usize = self.edges.iter().map(Vec::len).sum();
        JsonValue::obj(vec![
            ("tool", JsonValue::Str("fcix-check graph".into())),
            ("fns", JsonValue::Num(self.fns.len() as f64)),
            ("edges", JsonValue::Num(edge_count as f64)),
            ("unresolved", JsonValue::Num(self.unresolved.len() as f64)),
        ])
    }
}

impl HotPathReport {
    /// Hard findings (alloc + panic); index sites are soft.
    pub fn is_clean(&self) -> bool {
        self.alloc.is_empty() && self.panic.is_empty()
    }

    /// JSON form used by `fcix-check graph --format json`.
    pub fn to_json(&self) -> JsonValue {
        let att = |list: &[AttributedFinding]| {
            JsonValue::Arr(
                list.iter()
                    .map(|a| {
                        JsonValue::obj(vec![
                            ("what", JsonValue::Str(a.finding.what.clone())),
                            ("file", JsonValue::Str(a.finding.file.clone())),
                            ("line", JsonValue::Num(a.finding.line as f64)),
                            ("fn", JsonValue::Str(a.in_fn.clone())),
                            (
                                "chain",
                                JsonValue::Arr(
                                    a.chain.iter().map(|c| JsonValue::Str(c.clone())).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            )
        };
        JsonValue::obj(vec![
            ("root", JsonValue::Str(self.root.clone())),
            ("reachable", JsonValue::Num(self.reachable as f64)),
            ("alloc", att(&self.alloc)),
            ("panic", att(&self.panic)),
            ("index_sites", JsonValue::Num(self.index_sites as f64)),
            ("unresolved", JsonValue::Num(self.unresolved as f64)),
            ("clean", JsonValue::Bool(self.is_clean())),
        ])
    }
}

/// Build the graph and run the transitive analyses for the given root
/// names (use [`DEFAULT_ROOTS`] for the standard set).
pub fn analyze_hot_paths(
    root: &Path,
    roots: &[&str],
) -> std::io::Result<(CallGraph, Vec<HotPathReport>)> {
    let g = build_workspace_graph(root)?;
    let reports = roots
        .iter()
        .filter_map(|r| g.hot_path_report(r))
        .collect::<Vec<_>>();
    Ok((g, reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(sources: &[(&str, &str)]) -> CallGraph {
        let dir = std::env::temp_dir().join(format!(
            "fcix-graph-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for (rel, src) in sources {
            let p = dir.join(rel);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(&p, src).expect("write");
        }
        let g = build_workspace_graph(&dir).expect("graph");
        let _ = std::fs::remove_dir_all(&dir);
        g
    }

    #[test]
    fn parses_free_fns_and_methods() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn free() {}\nstruct S;\nimpl S {\n    pub fn m(&self) { free(); }\n}\n\
             impl Drop for S {\n    fn drop(&mut self) {}\n}\n",
        )]);
        let names: Vec<String> = g.fns.iter().map(FnItem::qual_name).collect();
        assert!(names.contains(&"free".to_string()), "{names:?}");
        assert!(names.contains(&"S::m".to_string()), "{names:?}");
        assert!(names.contains(&"S::drop".to_string()), "{names:?}");
        let m = g.find_fn("m").expect("m");
        let free = g.find_fn("free").expect("free");
        assert!(g.edges[m].contains(&free), "bare call resolved");
    }

    #[test]
    fn resolves_path_and_method_calls() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub struct T;\nimpl T {\n    pub fn build() -> T { T }\n    \
                 pub fn work(&self) {}\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn driver(t: &fci_a::T) {\n    let x = fci_a::T::build();\n    \
                 t.work();\n    x.work();\n}\n",
            ),
        ]);
        let driver = g.find_fn("driver").expect("driver");
        let build = g.find_fn("build").expect("build");
        let work = g.find_fn("work").expect("work");
        assert!(g.edges[driver].contains(&build), "T::build resolved");
        assert!(g.edges[driver].contains(&work), "unique method resolved");
    }

    #[test]
    fn ambiguous_methods_land_in_unresolved_bucket() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub struct A;\npub struct B;\nimpl A { pub fn go(&self) {} }\n\
             impl B { pub fn go(&self) {} }\n\
             pub fn f(a: &A) { a.go(); }\n",
        )]);
        let f = g.find_fn("f").expect("f");
        assert!(g.edges[f].is_empty(), "ambiguous method must not edge");
        assert!(g
            .unresolved
            .iter()
            .any(|u| u.name == "go" && u.reason == "ambiguous"));
    }

    #[test]
    fn std_methods_are_ignored_not_unresolved() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn f(v: &[f64]) -> usize { v.iter().count() + v.len() }\n",
        )]);
        assert!(g.unresolved.is_empty(), "{:?}", g.unresolved);
    }

    #[test]
    fn transitive_alloc_and_panic_findings() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn root() { mid(); }\nfn mid() { deep(); }\n\
             fn deep() {\n    let v = vec![1];\n    let x: Option<i32> = None;\n    \
             x.unwrap();\n}\n\
             pub fn unrelated() { let v = vec![2]; }\n",
        )]);
        let r = g.hot_path_report("root").expect("report");
        assert_eq!(r.reachable, 3);
        assert_eq!(r.alloc.len(), 1, "{:?}", r.alloc);
        assert_eq!(r.panic.len(), 1, "{:?}", r.panic);
        assert_eq!(r.alloc[0].chain, vec!["root", "mid", "deep"]);
        assert!(!r.is_clean());
        // The unrelated fn's vec! does not leak into the root's report.
        let names: Vec<&str> = r.alloc.iter().map(|a| a.in_fn.as_str()).collect();
        assert!(!names.contains(&"unrelated"));
    }

    #[test]
    fn lock_unwrap_idiom_and_waivers_are_respected() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn root() {\n    M.lock().unwrap();\n    \
             // lint: allow(alloc) — warm-up only\n    buf.push(1);\n}\n",
        )]);
        let r = g.hot_path_report("root").expect("report");
        assert!(r.is_clean(), "alloc={:?} panic={:?}", r.alloc, r.panic);
    }

    #[test]
    fn test_fns_are_excluded_from_resolution() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn root() { helper(); }\npub fn helper() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() { let v = vec![9]; }\n}\n",
        )]);
        let r = g.hot_path_report("root").expect("report");
        assert!(
            r.alloc.is_empty(),
            "test helper must not shadow: {:?}",
            r.alloc
        );
    }

    #[test]
    fn index_sites_are_soft() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "pub fn root(v: &[f64]) -> f64 { v[0] + v[1] }\n",
        )]);
        let r = g.hot_path_report("root").expect("report");
        assert_eq!(r.index_sites, 2);
        assert!(r.is_clean(), "index is informational");
    }

    #[test]
    fn json_shapes_parse() {
        let g = graph_of(&[("crates/a/src/lib.rs", "pub fn root() {}\n")]);
        let r = g.hot_path_report("root").expect("report");
        let parsed = JsonValue::parse(&r.to_json().to_string()).expect("valid");
        assert_eq!(parsed.get("clean"), Some(&JsonValue::Bool(true)));
        let gs = JsonValue::parse(&g.to_json().to_string()).expect("valid");
        assert!(gs.get_f64("fns").unwrap() >= 1.0);
    }
}
