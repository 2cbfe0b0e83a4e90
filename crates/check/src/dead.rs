//! Dead public surface: `fcix-check dead`.
//!
//! Lists every `pub` fn, struct, enum, trait, const, static or type
//! defined in the non-test code under `crates/` or `src/` whose name
//! never appears as an identifier in either of these places:
//!
//! * any *other* `.rs` file under `crates`, `src`, `tests`, `examples`
//!   or `perf` (test code included — a test is a caller);
//! * its own file's non-test code, apart from its definition.
//!
//! Identifiers inside `pub use` re-exports and the name on a `mod` line
//! are not uses, and neither is anything in a comment or doc link (the
//! lexer never makes those identifiers). Any other identifier with the
//! same name *is* a use, even an unrelated local or a method of another
//! type: there is no type resolution here, so the report only ever
//! errs towards keeping an item, never towards deleting one on a guess.
//! Items only `perf/` uses therefore stay. Definitions under `perf/`
//! are not checked, because `perf/` moves only in a benchmark PR.

use std::collections::HashSet;
use std::path::Path;

use crate::lex::TokKind;
use crate::lint::{collect_rs, rel, FileCtx};

/// Directories (relative to the workspace root) whose identifiers count
/// as uses.
const USE_ROOTS: [&str; 5] = ["crates", "src", "tests", "examples", "perf"];

/// Directories whose `pub` items are checked.
const DEF_ROOTS: [&str; 2] = ["crates/", "src/"];

/// Item keywords the report covers.
const ITEM_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "static", "type"];

/// One `pub` item with no use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadItem {
    /// Workspace-relative file with forward slashes.
    pub file: String,
    /// 1-based line of the item's name.
    pub line: u32,
    /// Item keyword (`fn`, `struct`, …).
    pub kind: String,
    /// Item name.
    pub name: String,
}

/// Identifiers of one file, split by whether they sit in test code.
struct FileIdents {
    all: HashSet<String>,
    non_test: HashSet<String>,
}

/// Scan one file: its `pub` item definitions (when `defs` is set) and
/// the identifiers that count as uses.
fn scan(ctx: &FileCtx, relpath: &str, defs: bool) -> (Vec<DeadItem>, FileIdents) {
    let n = ctx.code.len();
    // Code-token indices that are never uses: `pub use` bodies, `mod`
    // names and the name of each `pub` definition.
    let mut skip = vec![false; n];
    let mut items = Vec::new();
    for ci in 0..n {
        if ctx.ctok(ci).kind != TokKind::Ident {
            continue;
        }
        match ctx.ctext(ci) {
            "mod" => skip[(ci + 1).min(n - 1)] = true,
            "pub" => {
                let restricted = ctx.ctext(ci + 1) == "(";
                let mut j = ci + 1;
                if restricted {
                    while j < n && ctx.ctext(j) != ")" {
                        j += 1;
                    }
                    j += 1;
                }
                if ctx.ctext(j) == "use" {
                    while j < n && ctx.ctext(j) != ";" {
                        skip[j] = true;
                        j += 1;
                    }
                    continue;
                }
                // Qualifiers before the item keyword: `pub const fn`,
                // `pub unsafe extern "C" fn`, `pub async fn`.
                while matches!(ctx.ctext(j), "unsafe" | "async" | "extern")
                    || (ctx.ctext(j) == "const" && !is_name(ctx, j + 1))
                    || (j < n && ctx.ctok(j).kind == TokKind::StrLit)
                {
                    j += 1;
                }
                if ITEM_KINDS.contains(&ctx.ctext(j)) && is_name(ctx, j + 1) {
                    skip[j + 1] = true;
                    let line = ctx.ctok(j + 1).line;
                    if defs && !restricted && !ctx.is_test(relpath, line) {
                        items.push(DeadItem {
                            file: relpath.to_string(),
                            line,
                            kind: ctx.ctext(j).to_string(),
                            name: ctx.ctext(j + 1).to_string(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    let mut idents = FileIdents {
        all: HashSet::new(),
        non_test: HashSet::new(),
    };
    for ci in (0..n).filter(|&ci| !skip[ci] && ctx.ctok(ci).kind == TokKind::Ident) {
        let name = ctx.ctext(ci).trim_start_matches("r#");
        if !ctx.is_test(relpath, ctx.ctok(ci).line) {
            idents.non_test.insert(name.to_string());
        }
        idents.all.insert(name.to_string());
    }
    (items, idents)
}

/// Whether code token `ci` is an identifier that can name an item.
fn is_name(ctx: &FileCtx, ci: usize) -> bool {
    ci < ctx.code.len()
        && ctx.ctok(ci).kind == TokKind::Ident
        && !matches!(ctx.ctext(ci), "fn" | "unsafe" | "extern" | "async")
}

/// Every `pub` item under `root` with no use, in file and line order.
pub fn find_dead(root: &Path) -> std::io::Result<Vec<DeadItem>> {
    let mut files = Vec::new();
    for dir in USE_ROOTS {
        let dir = root.join(dir);
        if dir.exists() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut defs: Vec<(usize, DeadItem)> = Vec::new();
    let mut idents = Vec::with_capacity(files.len());
    for (fi, f) in files.iter().enumerate() {
        let src = std::fs::read_to_string(f)?;
        let relpath = rel(root, f);
        let checked = DEF_ROOTS.iter().any(|d| relpath.starts_with(d));
        let (items, ids) = scan(&FileCtx::new(&src), &relpath, checked);
        defs.extend(items.into_iter().map(|it| (fi, it)));
        idents.push(ids);
    }
    Ok(defs
        .into_iter()
        .filter(|(fi, it)| {
            !idents[*fi].non_test.contains(&it.name)
                && !idents
                    .iter()
                    .enumerate()
                    .any(|(g, ids)| g != *fi && ids.all.contains(&it.name))
        })
        .map(|(_, it)| it)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dead_in(sources: &[(&str, &str)]) -> Vec<String> {
        let dir = std::env::temp_dir().join(format!(
            "fcix-dead-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for (relpath, src) in sources {
            let p = dir.join(relpath);
            std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
            std::fs::write(&p, src).expect("write");
        }
        let dead = find_dead(&dir).expect("scan");
        let _ = std::fs::remove_dir_all(&dir);
        dead.into_iter().map(|d| d.name).collect()
    }

    #[test]
    fn item_used_only_by_its_own_tests_is_dead() {
        let lib = "pub fn lonely() {}\npub fn used() {}\npub fn caller() { used(); }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::lonely(); }\n}\n";
        let other = "fn main() { fci_a::caller(); }\n";
        assert_eq!(
            dead_in(&[("crates/a/src/lib.rs", lib), ("src/main.rs", other)]),
            vec!["lonely"]
        );
    }

    #[test]
    fn uses_from_tests_and_perf_count() {
        let lib = "pub struct OnlyTests;\npub const ONLY_PERF: u32 = 1;\npub type Nobody = u8;\n";
        let t = "use fci_a::OnlyTests;\n#[test]\nfn t() { let _ = OnlyTests; }\n";
        let perf = "fn main() { let _ = fci_a::ONLY_PERF; }\n";
        assert_eq!(
            dead_in(&[
                ("crates/a/src/lib.rs", lib),
                ("tests/t.rs", t),
                ("perf/src/main.rs", perf),
            ]),
            vec!["Nobody"]
        );
    }

    #[test]
    fn an_unrelated_identifier_with_the_same_name_is_a_use() {
        let lib = "pub fn shared_name() {}\n";
        let other = "fn f() { let shared_name = 3; let _ = shared_name; }\n";
        assert!(
            dead_in(&[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", other)]).is_empty()
        );
    }

    #[test]
    fn re_exports_mod_lines_and_comments_are_not_uses() {
        let item = "pub fn exported() {}\npub enum Kind { A }\n";
        let lib = "pub mod item;\npub use item::{exported, Kind};\n\
                   /// See [`exported`] and `Kind`.\n// exported() used to be called here\n\
                   pub(crate) fn private_api() {}\n";
        let dead = dead_in(&[("crates/a/src/item.rs", item), ("crates/a/src/lib.rs", lib)]);
        assert_eq!(dead, vec!["exported", "Kind"]);
    }

    #[test]
    fn qualified_fns_and_every_item_kind_are_found() {
        let lib = "pub const fn cf() {}\npub unsafe fn uf() {}\npub trait Tr {}\n\
                   pub static ST: u8 = 0;\nstruct S;\nimpl S {\n    pub fn method(&self) {}\n}\n";
        let user = "fn g(s: &S) { let _ = s; }\n";
        assert_eq!(
            dead_in(&[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", user)]),
            vec!["cf", "uf", "Tr", "ST", "method"]
        );
    }
}
