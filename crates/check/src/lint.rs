//! `fcix-check lint`: a std-only source-convention scanner.
//!
//! v2: every rule runs on the lossless token stream from [`crate::lex`]
//! instead of the old per-line character state machine. Tokens carry
//! byte spans and line numbers, so rules see across lines (a `.expect(`
//! split by rustfmt, a metric call whose name sits on the next line),
//! never match text inside string literals or comments, and can reason
//! about **statement spans** — the unit the SAFETY rule now binds to.
//!
//! | rule       | requirement |
//! |------------|-------------|
//! | `unsafe`   | every `unsafe` or `get_unchecked[_mut]` token is covered by a `// SAFETY:` comment attached to its enclosing statement: on a line of the statement itself, or in the contiguous comment block immediately above the statement (the covering `unsafe` block may open far from the unchecked access, so each access justifies itself); an `unsafe fn` is also covered by a `# Safety` section in its doc comment |
//! | `wallclock`| no `Instant::now` / `SystemTime` outside `crates/obs` (simulated time must come from the cost model; real time only via the tracer) |
//! | `unwrap`   | no `.unwrap()` / `.expect(` in hot-path or recovery code (`crates/ddi/src`, `crates/linalg/src`, `crates/core/src/sigma`, `crates/fault/src`, `crates/core/src/recovery.rs`, `crates/core/src/checkpoint.rs`, `crates/serve/src` — a scheduler that panics takes every queued tenant down with it — and `crates/sparse/src`, whose solvers must truncate rather than die); the mutex idiom `.lock().unwrap()` is allowed |
//! | `println`  | no `println!` outside bins, tests, and the bench crate (library output goes through the tracer or return values) |
//! | `alloc`    | no heap allocation (`vec!`, `Vec::new`, `Vec::with_capacity`, `Box::new`, `.to_vec()`, `.collect()`, `.reserve(`) in the zero-alloc kernel modules (`crates/linalg/src/gemm.rs`, `crates/linalg/src/arena.rs`, `crates/linalg/src/tridiag.rs`, `crates/linalg/src/cholqr.rs`, `crates/sparse/src/kernel.rs`) outside tests — the σ, eigensolver, and sparse-engine hot paths must not touch the heap after warm-up |
//! | `metric-name` | literal metric names passed to the metrics plane (`.observe("…")`, `.counter_add(`, `.counter_incr(`, `.gauge_set(`, `.incr(`) must match `[a-z0-9_.]+` — the text exposition mangles anything else, and two spellings of one metric split its series |
//! | `metric-wallclock` | on simulated-path crates (`crates/ddi`, `crates/core`, `crates/fault`, `crates/xsim`), a metric-recording call must not read host time (`now_us(`, `Instant::now`, `SystemTime`) in the same statement or on the same line — simulated metrics must come from the cost model, or the histogram mixes host jitter into X1 numbers |
//!
//! A violation can be waived in place with a trailing comment
//! `lint: allow(<rule>)` on the offending line, or on a comment line of
//! its own just above (a waiver trailing other code covers that code
//! only) — the waiver is greppable, reviewable, and local. [`lint_workspace_report`]
//! counts waivers per rule so CI can flag growth, and
//! [`LintReport::to_json`] emits the machine-readable report
//! `fcix-check lint --format json` prints.

use std::fmt;
use std::path::PathBuf;

use crate::front::{collect_rs, is_test_path, rel, FileCtx};
use crate::lex::{lex, TokKind};
use fci_obs::JsonValue;

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`unsafe`, `wallclock`, `unwrap`, `println`,
    /// `alloc`, `metric-name`, `metric-wallclock`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Scanner configuration. The defaults encode this repository's layout;
/// tests point `root` at fixture directories.
#[derive(Clone, Debug)]
pub struct LintConfig {
    /// Directory whose `.rs` files are scanned (recursively).
    pub root: PathBuf,
    /// Path fragments where `.unwrap()`/`.expect(` are forbidden.
    pub hot_paths: Vec<String>,
    /// Path fragment where wall-clock reads are allowed.
    pub clock_crate: String,
    /// Path fragments (files or directories) where heap allocation is
    /// forbidden outside tests — the zero-alloc GEMM hot path.
    pub zero_alloc_paths: Vec<String>,
    /// Path fragments running under the simulated clock, where metric
    /// recording must not read host time in the same statement.
    pub sim_paths: Vec<String>,
}

impl LintConfig {
    /// Defaults for a workspace rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> LintConfig {
        LintConfig {
            root: root.into(),
            hot_paths: vec![
                "crates/ddi/src".into(),
                "crates/linalg/src".into(),
                "crates/core/src/sigma".into(),
                // Recovery code must not panic: a fault plane that
                // unwraps its way out of a fault defeats the point.
                "crates/fault/src".into(),
                "crates/core/src/recovery.rs".into(),
                "crates/core/src/checkpoint.rs".into(),
                // The serving layer runs many tenants' jobs in one
                // process; a panic in the scheduler or cache is a
                // multi-tenant outage, not a single failed solve.
                "crates/serve/src".into(),
                // The sparse engines run unbounded coordinate/growth
                // loops; error paths must degrade (drop, truncate), not
                // panic mid-solve.
                "crates/sparse/src".into(),
            ],
            clock_crate: "crates/obs".into(),
            zero_alloc_paths: vec![
                "crates/linalg/src/gemm.rs".into(),
                "crates/linalg/src/arena.rs".into(),
                // The eigensolver kernels run inside the Davidson loop:
                // after warm-up they must work out of the arena too.
                "crates/linalg/src/tridiag.rs".into(),
                "crates/linalg/src/cholqr.rs".into(),
                // The sparse engines' per-iteration kernels (gradient
                // scan, CSR mat-vec, step solve) run millions of times
                // per solve and must stay off the heap.
                "crates/sparse/src/kernel.rs".into(),
            ],
            sim_paths: vec![
                "crates/ddi/src".into(),
                "crates/core/src".into(),
                "crates/fault/src".into(),
                "crates/xsim/src".into(),
            ],
        }
    }
}

/// Method names that record into the metrics plane; the first argument
/// is the metric name.
const METRIC_CALLS: [&str; 5] = [
    "observe",
    "counter_add",
    "counter_incr",
    "gauge_set",
    "incr",
];

/// Statement-bound SAFETY coverage for the token at code-index `ci`:
/// a `SAFETY:` comment on any line of the statement up to the token,
/// or anywhere in the contiguous comment block immediately above the
/// statement's first line. Unlike the old fixed 3-line window, a
/// long (reflowed) justification still covers, and a comment pinned
/// to the `unsafe` block header does *not* cover an access several
/// statements deeper. An `unsafe fn` declaration states a contract
/// rather than discharging one, so a `# Safety` section in its doc
/// comment covers it too (a trait method that inherits its contract
/// keeps the plain comment).
fn safety_covered(ctx: &FileCtx, ci: usize) -> bool {
    let declares = ctx.ctext(ci) == "unsafe" && ctx.ctext(ci + 1) == "fn";
    let covers = |c: &String| c.contains("SAFETY:") || (declares && c.contains("# Safety"));
    let tok_line = ctx.ctok(ci).line as usize;
    let start_line = ctx.ctok(ctx.stmt_start(ci)).line as usize;
    for l in start_line..=tok_line {
        if ctx.comments.get(l - 1).is_some_and(covers) {
            return true;
        }
    }
    let mut l = start_line;
    while l > 1 {
        l -= 1;
        let idx = l - 1;
        if ctx.has_code[idx] || ctx.comments[idx].trim().is_empty() {
            break;
        }
        if covers(&ctx.comments[idx]) {
            return true;
        }
    }
    false
}

/// Clock-read pattern (`now_us(`, `Instant::now`, `SystemTime`)
/// starting at code-index `ci`, with the needle name for messages.
fn clock_read_at(ctx: &FileCtx, ci: usize) -> Option<&'static str> {
    if ctx.ctext(ci) == "now_us" && ctx.ctext(ci + 1) == "(" {
        Some("now_us(")
    } else if ctx.seq_at(ci, &["Instant", ":", ":", "now"]) {
        Some("Instant::now")
    } else if ctx.ctext(ci) == "SystemTime" {
        Some("SystemTime")
    } else {
        None
    }
}

fn println_allowed(relpath: &str) -> bool {
    relpath.contains("/bin/")
        || relpath.starts_with("src/bin/")
        || is_test_path(relpath)
        || relpath.contains("/benches/")
        || relpath.contains("/examples/")
        || relpath.starts_with("examples/")
        || relpath.starts_with("crates/bench/")
        || relpath.ends_with("build.rs")
}

/// Lint one file's contents. `relpath` is the `/`-separated path relative
/// to the workspace root, which selects which rules apply.
pub fn lint_source(cfg: &LintConfig, relpath: &str, src: &str) -> Vec<Violation> {
    let ctx = FileCtx::new(src);
    let mut out = Vec::new();
    let file = PathBuf::from(relpath);
    let hot = cfg
        .hot_paths
        .iter()
        .any(|h| relpath.starts_with(h.as_str()));
    let clock_ok = relpath.starts_with(cfg.clock_crate.as_str());
    let println_ok = println_allowed(relpath);
    let zero_alloc = cfg
        .zero_alloc_paths
        .iter()
        .any(|h| relpath.starts_with(h.as_str()));
    let sim = cfg
        .sim_paths
        .iter()
        .any(|h| relpath.starts_with(h.as_str()));
    let in_test = |line: usize| ctx.is_test(relpath, line as u32);

    let mut push = |line: usize, rule: &'static str, message: String| {
        if !ctx.waived(line, rule) {
            out.push(Violation {
                file: file.clone(),
                line,
                rule,
                message,
            });
        }
    };

    for ci in 0..ctx.code.len() {
        let tok = ctx.ctok(ci);
        let text = ctx.ctext(ci);
        let line = tok.line as usize;

        match tok.kind {
            TokKind::Ident => match text {
                // Rule: unsafe / unchecked access needs a SAFETY comment
                // bound to its enclosing statement — the covering
                // `unsafe` block may open many lines earlier, so each
                // access must carry (or sit under) a local
                // justification.
                "unsafe" | "get_unchecked" | "get_unchecked_mut" if !safety_covered(&ctx, ci) => {
                    push(
                        line,
                        "unsafe",
                        format!(
                            "`{text}` without a `// SAFETY:` comment attached to its \
                             statement (on the statement's lines or the comment block \
                             directly above it)"
                        ),
                    );
                }
                // Rule: wall-clock reads only in the obs crate.
                "SystemTime" if !clock_ok => {
                    push(
                        line,
                        "wallclock",
                        "`SystemTime` outside crates/obs — simulated code must take time \
                         from the cost model, host time from the tracer"
                            .into(),
                    );
                }
                "Instant" if !clock_ok && ctx.seq_at(ci + 1, &[":", ":", "now"]) => {
                    push(
                        line,
                        "wallclock",
                        "`Instant::now` outside crates/obs — simulated code must take time \
                         from the cost model, host time from the tracer"
                            .into(),
                    );
                }
                // Rule: no stray println!.
                "println" if !println_ok && !in_test(line) && ctx.ctext(ci + 1) == "!" => {
                    push(
                        line,
                        "println",
                        "`println!` outside bins/tests — libraries report through \
                         return values or the tracer"
                            .into(),
                    );
                }
                // Rule: no heap allocation in the zero-alloc GEMM
                // modules (tests exempt; the arena's pool-growth site is
                // waived inline).
                "vec" if zero_alloc && !in_test(line) && ctx.ctext(ci + 1) == "!" => {
                    push(line, "alloc", alloc_msg("vec!"));
                }
                "Vec" | "Box" if zero_alloc && !in_test(line) => {
                    for ctor in ["new", "with_capacity"] {
                        if ctx.seq_at(ci + 1, &[":", ":", ctor]) && (text == "Vec" || ctor == "new")
                        {
                            push(line, "alloc", alloc_msg(&format!("{text}::{ctor}")));
                        }
                    }
                }
                _ => {}
            },
            TokKind::Punct if text == "." => {
                let name = ctx.ctext(ci + 1);
                let call = ctx.ctext(ci + 2) == "(";
                // Rule: no unwrap/expect on hot paths (tests exempt);
                // `.lock().unwrap()` is the one allowed form, including
                // rustfmt's multi-line split of the chain.
                if hot && !in_test(line) && call {
                    if name == "unwrap" && ctx.ctext(ci + 3) == ")" {
                        let lock_idiom = ci >= 4 && ctx.seq_at(ci - 4, &[".", "lock", "(", ")"]);
                        if !lock_idiom {
                            push(
                                ctx.ctok(ci + 1).line as usize,
                                "unwrap",
                                "`.unwrap()` in hot-path code — handle the error or use \
                                 `unwrap_or_else`/`total_cmp`; `.lock().unwrap()` is the \
                                 only allowed form"
                                    .into(),
                            );
                        }
                    } else if name == "expect" {
                        push(
                            ctx.ctok(ci + 1).line as usize,
                            "unwrap",
                            "`.expect(…)` in hot-path code — propagate or handle the error".into(),
                        );
                    }
                }
                // Rule: no heap allocation in the zero-alloc modules.
                if zero_alloc && !in_test(line) && call {
                    match name {
                        "to_vec" | "collect" if ctx.ctext(ci + 3) == ")" => {
                            push(line, "alloc", alloc_msg(&format!(".{name}()")));
                        }
                        "reserve" => push(line, "alloc", alloc_msg(".reserve(")),
                        _ => {}
                    }
                }
                // Rules on metric-recording calls.
                if call && METRIC_CALLS.contains(&name) && !in_test(line) {
                    // Rule: literal metric names match [a-z0-9_.]+.
                    // Dynamic names (non-literal first argument) are
                    // skipped — the registry can't be linted statically.
                    let arg = ctx
                        .code
                        .get(ci + 3)
                        .map(|&i| &ctx.toks[i])
                        .filter(|t| t.kind == TokKind::StrLit);
                    if let Some(lit) = arg {
                        let raw = lit.text(src);
                        let metric = raw.trim_matches('"');
                        let ok = !metric.is_empty()
                            && metric.chars().all(|c| {
                                c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.'
                            });
                        if !ok {
                            push(
                                line,
                                "metric-name",
                                format!(
                                    "metric name `{metric}` — names must match [a-z0-9_.]+ \
                                     so the text exposition and series labels stay stable"
                                ),
                            );
                        }
                    }
                    // Rule: simulated-path metrics must not read host
                    // time in the recording statement (or anywhere on
                    // the recording line — two statements jammed onto
                    // one line are still one audited unit).
                    if sim {
                        let (s, e) = (ctx.stmt_start(ci), ctx.stmt_end(ci));
                        let clocky = (s..e).find_map(|k| clock_read_at(&ctx, k)).or_else(|| {
                            (0..ctx.code.len())
                                .filter(|&k| ctx.ctok(k).line as usize == line)
                                .find_map(|k| clock_read_at(&ctx, k))
                        });
                        if let Some(n) = clocky {
                            push(
                                line,
                                "metric-wallclock",
                                format!(
                                    "`{n}` inside a metric-recording statement on a \
                                     simulated path — record cost-model time, or split the \
                                     host read into its own audited statement"
                                ),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn alloc_msg(needle: &str) -> String {
    format!("`{needle}` in a zero-alloc GEMM module — pack into `arena::acquire` scratch instead")
}

/// Per-rule `lint: allow(...)` waiver counts in one file's comments.
pub(crate) fn waivers_in_source(src: &str) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for t in lex(src) {
        if !t.kind.is_comment() {
            continue;
        }
        let text = t.text(src);
        let mut from = 0;
        while let Some(p) = text[from..].find("lint: allow(") {
            let start = from + p + "lint: allow(".len();
            from = start;
            let Some(end) = text[start..].find(')') else {
                break;
            };
            let rule = text[start..start + end].to_string();
            // Identifier-shaped only: documentation spells the pattern
            // with placeholders (`<rule>`, `…`) that are not waivers.
            if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
                continue;
            }
            match counts.iter_mut().find(|(r, _)| *r == rule) {
                Some((_, n)) => *n += 1,
                None => counts.push((rule, 1)),
            }
        }
    }
    counts
}

/// Aggregated lint run: violations plus per-rule waiver counts, the
/// payload behind `fcix-check lint --format json`.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All violations, in path order.
    pub violations: Vec<Violation>,
    /// Waiver tallies per rule, sorted by rule name. CI diffs these
    /// against the previous run to flag waiver growth.
    pub waivers: Vec<(String, usize)>,
    /// Number of files scanned.
    pub files: usize,
}

impl LintReport {
    /// Machine-readable report:
    /// `{"tool":"fcix-lint","files":N,"violations":[{file,line,rule,message}],
    ///   "waivers":[{rule,count}]}`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("tool", JsonValue::Str("fcix-lint".into())),
            ("files", JsonValue::Num(self.files as f64)),
            (
                "violations",
                JsonValue::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            JsonValue::obj(vec![
                                (
                                    "file",
                                    JsonValue::Str(v.file.to_string_lossy().replace('\\', "/")),
                                ),
                                ("line", JsonValue::Num(v.line as f64)),
                                ("rule", JsonValue::Str(v.rule.into())),
                                ("message", JsonValue::Str(v.message.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "waivers",
                JsonValue::Arr(
                    self.waivers
                        .iter()
                        .map(|(rule, n)| {
                            JsonValue::obj(vec![
                                ("rule", JsonValue::Str(rule.clone())),
                                ("count", JsonValue::Num(*n as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Lint every `.rs` file under `cfg.root` and tally waivers per rule.
pub fn lint_workspace_report(cfg: &LintConfig) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    collect_rs(&cfg.root, &mut files)?;
    files.sort();
    let mut report = LintReport {
        files: files.len(),
        ..LintReport::default()
    };
    for f in &files {
        let src = std::fs::read_to_string(f)?;
        let relpath = rel(&cfg.root, f);
        report.violations.extend(lint_source(cfg, &relpath, &src));
        for (rule, n) in waivers_in_source(&src) {
            match report.waivers.iter_mut().find(|(r, _)| *r == rule) {
                Some((_, total)) => *total += n,
                None => report.waivers.push((rule, n)),
            }
        }
    }
    report.waivers.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintConfig {
        LintConfig::new(".")
    }

    fn lint(relpath: &str, src: &str) -> Vec<Violation> {
        lint_source(&cfg(), relpath, src)
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f() { unsafe { g() } }\n";
        let v = lint("crates/linalg/src/x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe");
        let good = "// SAFETY: bounds checked above.\nfn f() { unsafe { g() } }\n";
        assert!(lint("crates/linalg/src/x.rs", good).is_empty());
        // An `unsafe fn` may state its contract under `# Safety` instead;
        // an `unsafe` block may not.
        let decl = "/// Reads `p`.\n///\n/// # Safety\n/// `p` is readable.\n#[inline]\nunsafe fn r(p: *const u8) {}\n";
        assert!(lint("crates/linalg/src/x.rs", decl).is_empty());
        let block = "/// # Safety\n/// none.\nfn f() { unsafe { g() } }\n";
        assert_eq!(lint("crates/linalg/src/x.rs", block).len(), 1);
        // `forbid(unsafe_code)` is not an unsafe token.
        assert!(lint("crates/core/src/lib.rs", "#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn unsafe_in_string_does_not_count() {
        let src = "fn f() { let s = \"unsafe { }\"; }\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
        let raw = "fn f() { let s = r#\"unsafe\"#; }\n";
        assert!(lint("crates/core/src/x.rs", raw).is_empty());
        // v2 fix: a *multi-line* raw string can no longer leak tokens —
        // the old per-line scanner saw `unsafe` on the middle line.
        let multi = "fn f() -> &'static str {\n    r#\"line one\nunsafe { }\nx.unwrap()\"#\n}\n";
        assert!(lint("crates/ddi/src/x.rs", multi).is_empty());
    }

    #[test]
    fn get_unchecked_requires_local_safety_comment() {
        // The block-level SAFETY covers the `unsafe` keyword but is
        // pinned to the block header, not the access's own statement.
        let bad = "// SAFETY: block argument.\nunsafe {\n    let a = 1;\n    let b = 2;\n    \
                   let c = 3;\n    let x = *p.get_unchecked(0);\n}\n";
        let v = lint("crates/linalg/src/x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe");
        assert_eq!(v[0].line, 6);
        let good = "// SAFETY: block argument.\nunsafe {\n    // SAFETY: idx < len by loop \
                    bound.\n    let x = *p.get_unchecked_mut(0);\n}\n";
        assert!(lint("crates/linalg/src/x.rs", good).is_empty());
    }

    #[test]
    fn safety_binds_to_statement_not_line_distance() {
        // v2 fix: a reflowed multi-line justification still covers the
        // access even though `SAFETY:` sits more than 3 lines above it —
        // the old fixed window would have flagged this.
        let reflowed = "unsafe {\n    // SAFETY: i < n because the loop bound was\n    \
                        // hoisted above, and the pointer is derived\n    \
                        // from a live slice whose length is checked\n    \
                        // at pack time by debug_assert.\n    let x = *p.get_unchecked(i);\n}\n\
                        // lint: allow(unsafe) — block header demo\n";
        let v: Vec<_> = lint("crates/linalg/src/x.rs", reflowed)
            .into_iter()
            .filter(|v| v.line != 1)
            .collect();
        assert!(v.is_empty(), "{v:?}");
        // A SAFETY comment *inside* the statement (trailing) covers too.
        let trailing = "// SAFETY: covers the block.\nunsafe {\n    let x = *p.get_unchecked(i); \
             // SAFETY: i < n.\n}\n";
        assert!(lint("crates/linalg/src/x.rs", trailing).is_empty());
        // A statement spanning lines is one unit: SAFETY on its first
        // line covers an access on its last.
        let spanning = "// SAFETY: covers the block.\nunsafe {\n    // SAFETY: both in \
                        bounds.\n    let x = p.get_unchecked(0)\n        + \
                        p.get_unchecked(1);\n}\n";
        assert!(lint("crates/linalg/src/x.rs", spanning).is_empty());
    }

    #[test]
    fn alloc_forbidden_in_gemm_modules() {
        let src = "fn f() { let v = vec![0.0; 8]; }\n";
        assert_eq!(lint("crates/linalg/src/gemm.rs", src).len(), 1);
        assert_eq!(lint("crates/linalg/src/gemm.rs", src)[0].rule, "alloc");
        assert_eq!(lint("crates/linalg/src/arena.rs", src).len(), 1);
        // Other modules may allocate freely.
        assert!(lint("crates/linalg/src/matrix.rs", src).is_empty());
        let collect = "fn f() { let v: Vec<f64> = it.collect(); }\n";
        assert_eq!(lint("crates/linalg/src/gemm.rs", collect).len(), 1);
        let grow = "fn f() { buf.reserve(n); }\n";
        assert_eq!(lint("crates/linalg/src/arena.rs", grow).len(), 1);
        let waived =
            "// One-time pool growth.\n// lint: allow(alloc)\nfn f() { buf.reserve(n); }\n";
        assert!(lint("crates/linalg/src/arena.rs", waived).is_empty());
        // Tests inside the module are exempt.
        let test = "#[cfg(test)]\nmod tests {\n    fn g() { let v = vec![1]; }\n}\n";
        assert!(lint("crates/linalg/src/gemm.rs", test).is_empty());
        // v2 fix: a chain split across lines is still an allocation.
        let split = "fn f() {\n    let v: Vec<f64> = it\n        .collect();\n}\n";
        assert_eq!(lint("crates/linalg/src/gemm.rs", split).len(), 1);
    }

    #[test]
    fn wallclock_only_in_obs() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(lint("crates/core/src/x.rs", src).len(), 1);
        assert!(lint("crates/obs/src/tracer.rs", src).is_empty());
        let waived =
            "// lint: allow(wallclock) — real timing harness\nfn f() { let t = Instant::now(); }\n";
        assert!(lint("crates/bench/src/lib.rs", waived).is_empty());
    }

    #[test]
    fn unwrap_rules_on_hot_paths() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(lint("crates/ddi/src/dist.rs", src).len(), 1);
        // Recovery paths are hot too: they run *because* something broke.
        assert_eq!(lint("crates/fault/src/plan.rs", src).len(), 1);
        assert_eq!(lint("crates/core/src/recovery.rs", src).len(), 1);
        assert_eq!(lint("crates/core/src/checkpoint.rs", src).len(), 1);
        // The multi-tenant serving layer must not panic either.
        assert_eq!(lint("crates/serve/src/server.rs", src).len(), 1);
        // Cold paths are free to unwrap.
        assert!(lint("crates/core/src/solver.rs", src).is_empty());
        // The mutex idiom is allowed, including rustfmt's line split.
        let lock = "fn f() { m.lock().unwrap(); }\n";
        assert!(lint("crates/ddi/src/dist.rs", lock).is_empty());
        let split = "fn f() {\n    m\n        .lock()\n        .unwrap();\n}\n";
        assert!(lint("crates/ddi/src/dist.rs", split).is_empty());
        let expect = "fn f() { x.expect(\"boom\"); }\n";
        assert_eq!(lint("crates/linalg/src/gemm.rs", expect).len(), 1);
        // v2 fix: `.expect(` split across lines is still caught.
        let expect_split = "fn f() {\n    x\n        .expect(\"boom\");\n}\n";
        assert_eq!(lint("crates/linalg/src/matrix.rs", expect_split).len(), 1);
        // Tests inside the hot file are exempt.
        let test = "#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(lint("crates/ddi/src/dist.rs", test).is_empty());
    }

    #[test]
    fn println_rules() {
        let src = "fn f() { println!(\"x\"); }\n";
        assert_eq!(lint("crates/core/src/x.rs", src).len(), 1);
        assert!(lint("src/bin/fcix.rs", src).is_empty());
        assert!(lint("crates/check/src/bin/fcix-check.rs", src).is_empty());
        assert!(lint("crates/core/tests/t.rs", src).is_empty());
        // eprintln is fine anywhere.
        let e = "fn f() { eprintln!(\"x\"); }\n";
        assert!(lint("crates/core/src/x.rs", e).is_empty());
    }

    #[test]
    fn metric_names_must_be_lowercase_dotted() {
        let bad = "fn f() { m.observe(\"Sigma Phase-S\", &[], x); }\n";
        let v = lint("crates/core/src/phase.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "metric-name");
        assert!(v[0].message.contains("Sigma Phase-S"));
        let good = "fn f() { m.observe(\"sigma.phase_s\", &[], x); }\n";
        assert!(lint("crates/core/src/phase.rs", good).is_empty());
        // All recording entry points are covered.
        for call in ["counter_add", "counter_incr", "gauge_set", "incr"] {
            let src = format!("fn f() {{ m.{call}(\"BAD!\", &[]); }}\n");
            assert_eq!(lint("crates/serve/src/server.rs", &src).len(), 1, "{call}");
        }
        // Dynamic names and non-metric calls are skipped.
        let dynamic = "fn f() { m.observe(name, &[], x); }\n";
        assert!(lint("crates/core/src/phase.rs", dynamic).is_empty());
        // A doc-comment mention is not a recording call.
        let doc = "/// e.g. `.observe(\"NOT A NAME\")` would be wrong\nfn f() {}\n";
        assert!(lint("crates/core/src/phase.rs", doc).is_empty());
        // Waivers work; tests are exempt.
        let waived = "fn f() { m.incr(\"WAT\"); } // lint: allow(metric-name)\n";
        assert!(lint("crates/core/src/phase.rs", waived).is_empty());
        assert!(lint("crates/core/tests/t.rs", bad).is_empty());
        // v2 fix: a name pushed to the next line by rustfmt is checked.
        let wrapped = "fn f() {\n    m.observe(\n        \"Sigma Phase-S\",\n        &labels,\n  \
                       x,\n    );\n}\n";
        assert_eq!(lint("crates/core/src/phase.rs", wrapped).len(), 1);
    }

    #[test]
    fn metric_recording_must_not_read_host_time_on_sim_paths() {
        let bad = "fn f() { m.observe(\"davidson.iter_s\", &[], t.now_us()); }\n";
        let v = lint("crates/core/src/diag.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "metric-wallclock");
        // Cost-model time is fine.
        let good = "fn f() { m.observe(\"davidson.iter_s\", &[], ck.total()); }\n";
        assert!(lint("crates/core/src/diag.rs", good).is_empty());
        // Host-side crates (serve, bench, bins) may mix freely.
        assert!(lint("crates/serve/src/server.rs", bad).is_empty());
        // A host read on its own line does not trip this rule (the plain
        // wallclock rule still covers Instant::now).
        let split = "fn f() { let t0 = t.now_us(); m.observe(\"a.b\", &[], x); }\n";
        assert_eq!(
            lint("crates/ddi/src/dist.rs", split)
                .iter()
                .filter(|v| v.rule == "metric-wallclock")
                .count(),
            1,
            "same-line mixing is still one expression"
        );
        let two_lines = "fn f() {\n    let dt = t.now_us() - t0;\n    \
                         m.observe(\"a.b\", &[], dt); // lint: allow(metric-wallclock)\n}\n";
        assert!(lint("crates/ddi/src/dist.rs", two_lines)
            .iter()
            .all(|v| v.rule != "metric-wallclock"));
        // v2 fix: a recording *statement* wrapped across lines is one
        // unit — the old line-local rule missed the host read below.
        let wrapped = "fn f() {\n    m.observe(\n        \"a.b\",\n        &[],\n        \
                       t.now_us(),\n    );\n}\n";
        assert_eq!(
            lint("crates/ddi/src/dist.rs", wrapped)
                .iter()
                .filter(|v| v.rule == "metric-wallclock")
                .count(),
            1
        );
    }

    #[test]
    fn waiver_on_preceding_line() {
        let src = "// lint: allow(unwrap) — guarded above\nfn f() { x.unwrap(); }\n";
        assert!(lint("crates/ddi/src/dist.rs", src).is_empty());
        let trailing = "fn f() { x.unwrap() } // lint: allow(unwrap)\n";
        assert!(lint("crates/ddi/src/dist.rs", trailing).is_empty());
    }

    #[test]
    fn char_literals_do_not_break_scanning() {
        let src = "fn f() { let c = '\"'; let d = '\\n'; x.unwrap(); }\n";
        assert_eq!(lint("crates/ddi/src/dist.rs", src).len(), 1);
        let lifetime = "fn f<'a>(x: &'a str) -> &'a str { x }\n";
        assert!(lint("crates/ddi/src/dist.rs", lifetime).is_empty());
    }

    #[test]
    fn block_comments_and_nesting() {
        let src = "/* unsafe { } */\nfn f() {}\n";
        assert!(lint("crates/core/src/x.rs", src).is_empty());
        let nested = "/* a /* unsafe */ b */\nfn f() {}\n";
        assert!(lint("crates/core/src/x.rs", nested).is_empty());
    }

    #[test]
    fn waiver_counting_per_rule() {
        let src = "// lint: allow(unwrap) — reason one\nfn f() { x.unwrap(); }\n\
                   fn g() { y.unwrap() } // lint: allow(unwrap)\n\
                   // lint: allow(alloc) — pool growth\nfn h() {}\n";
        let w = waivers_in_source(src);
        assert_eq!(w, vec![("unwrap".to_string(), 2), ("alloc".to_string(), 1)]);
    }

    #[test]
    fn json_report_shape() {
        let report = LintReport {
            violations: vec![Violation {
                file: PathBuf::from("crates/x/src/a.rs"),
                line: 3,
                rule: "unwrap",
                message: "msg".into(),
            }],
            waivers: vec![("alloc".into(), 2)],
            files: 10,
        };
        let j = report.to_json();
        let text = j.to_string();
        let back = JsonValue::parse(&text).expect("valid json");
        assert_eq!(back.get_f64("files"), Some(10.0));
        let viols = back.get("violations").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(viols.len(), 1);
        assert_eq!(
            viols[0].get("rule").and_then(JsonValue::as_str),
            Some("unwrap")
        );
        let waivers = back.get("waivers").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(waivers[0].get_f64("count"), Some(2.0));
    }
}
