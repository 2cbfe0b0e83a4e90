//! Dead public surface: `fcix-check dead`.
//!
//! Lists every `pub` fn, struct, enum, trait, const, static or type
//! defined in the non-test code under `crates/` or `src/` whose name
//! appears as an identifier in no *non-test* code other than its
//! definition: neither another `.rs` file under `crates`, `src`,
//! `examples` or `perf`, nor its own file. Test code is not a caller: a
//! mention in a file under a `tests/` directory (`tests/`,
//! `crates/*/tests/`, `perf/tests/`) or inside a `#[cfg(test)]` item
//! keeps nothing alive.
//!
//! An item kept on purpose (a test oracle, or support that tests in
//! other crates share) carries the lint waiver `lint: allow(dead) —
//! <reason>` in a comment on its definition line or on a comment-only
//! line just above it; it is counted as waived instead of reported.
//!
//! Identifiers inside `pub use` re-exports and the name on a `mod` line
//! are not uses, and neither is anything in a comment or doc link (the
//! lexer never makes those identifiers). Any other identifier with the
//! same name *is* a use, even an unrelated local or a method of another
//! type: there is no type resolution here, so the report only ever
//! errs towards keeping an item, never towards deleting one on a guess.
//! A `pub fn` inside an `impl` block is the one exception: a method can
//! only be called or named by path, so only a call of that name
//! (`.name(`, `name(`, `.name::<`) or a path mention (`…::name`, not a
//! module segment `…::name::x`) keeps it; a field or a local of the same
//! name does not. Any call of that name still counts, whatever its
//! receiver.
//! Items only `perf/src` uses therefore stay. Definitions under `perf/`
//! are not checked, because `perf/` moves only in a benchmark PR.

use std::collections::HashSet;
use std::path::Path;

use crate::front::{call_at, collect_rs, is_test_path, items, rel, FileCtx, Vis};
use crate::lex::TokKind;

/// Directories (relative to the workspace root) whose non-test
/// identifiers count as uses.
const USE_ROOTS: [&str; 4] = ["crates", "src", "examples", "perf"];

/// Directories whose `pub` items are checked.
const DEF_ROOTS: [&str; 2] = ["crates/", "src/"];

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

/// What `find_dead` found: the items with no use, and how many more the
/// `lint: allow(dead)` waiver kept.
#[derive(Clone, Debug, Default)]
pub struct DeadReport {
    /// Unwaived `pub` items with no non-test use, in file and line order.
    pub items: Vec<DeadItem>,
    /// `pub` items with no non-test use that carry the waiver.
    pub waived: usize,
}

/// A `pub` item definition, whether it carries the waiver, and whether
/// it is a method (a `fn` directly inside an `impl` block).
struct Def {
    item: DeadItem,
    waived: bool,
    method: bool,
}

/// Scan one non-test file: its `pub` item definitions (when `defs` is
/// set) and the identifiers its non-test code uses, each called or named
/// by path also as `name()`.
fn scan(ctx: &FileCtx, relpath: &str, defs: bool) -> (Vec<Def>, HashSet<String>) {
    // Code-token indices that are never uses: `pub use` trees, `mod`
    // names and the name of each `pub` definition.
    let mut skip = vec![false; ctx.code.len()];
    let mut found = Vec::new();
    for item in items(ctx, relpath) {
        match (item.kind, item.vis) {
            ("mod", _) => skip[item.at] = true,
            (_, Vis::Private) => {}
            ("use", _) => {
                for (ci, skipped) in skip.iter_mut().enumerate().skip(item.at) {
                    if ctx.ctext(ci) == ";" {
                        break;
                    }
                    *skipped = true;
                }
            }
            (kind, vis) => {
                skip[item.at] = true;
                if defs && vis == Vis::Pub && !item.test {
                    found.push(Def {
                        waived: ctx.waived(item.line as usize, "dead"),
                        method: item.method,
                        item: DeadItem {
                            file: relpath.to_string(),
                            line: item.line,
                            kind: kind.to_string(),
                            name: item.name,
                        },
                    });
                }
            }
        }
    }
    let mut uses = HashSet::new();
    for (ci, &skipped) in skip.iter().enumerate() {
        if skipped || ctx.ctok(ci).kind != TokKind::Ident || ctx.in_test_region(ctx.ctok(ci).line) {
            continue;
        }
        let name = ctx.ctext(ci).trim_start_matches("r#").to_string();
        // `…::name`, unless `name` is a module segment (`std::time::…`,
        // `std::ops::{…}`); a turbofish `::<` follows an item.
        let segment = ctx.seq_at(ci + 1, &[":", ":"]) && ctx.ctext(ci + 3) != "<";
        let by_path = ci >= 2 && ctx.seq_at(ci - 2, &[":", ":"]) && !segment;
        if by_path || call_at(ctx, ci).is_some() {
            uses.insert(format!("{name}()"));
        }
        uses.insert(name);
    }
    (found, uses)
}

/// Every `pub` item under `root` with no non-test use.
pub fn find_dead(root: &Path) -> std::io::Result<DeadReport> {
    let mut files = Vec::new();
    for dir in USE_ROOTS {
        let dir = root.join(dir);
        if dir.exists() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut defs = Vec::new();
    let mut uses = HashSet::new();
    for f in &files {
        let relpath = rel(root, f);
        if is_test_path(&relpath) {
            continue;
        }
        let src = std::fs::read_to_string(f)?;
        let checked = DEF_ROOTS.iter().any(|d| relpath.starts_with(d));
        let (items, ids) = scan(&FileCtx::new(&src), &relpath, checked);
        defs.extend(items);
        uses.extend(ids);
    }
    // `scan` skipped each definition's own name, so one set serves the
    // item's own file and every other file alike.
    let used = |d: &Def| match d.method {
        true => uses.contains(&format!("{}()", d.item.name)),
        false => uses.contains(&d.item.name),
    };
    let mut report = DeadReport::default();
    for d in defs.into_iter().filter(|d| !used(d)) {
        if d.waived {
            report.waived += 1;
        } else {
            report.items.push(d.item);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_in(sources: &[(&str, &str)]) -> DeadReport {
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
        let report = find_dead(&dir).expect("scan");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }

    fn dead_in(sources: &[(&str, &str)]) -> Vec<String> {
        report_in(sources)
            .items
            .into_iter()
            .map(|d| d.name)
            .collect()
    }

    #[test]
    fn item_used_only_by_its_own_tests_is_dead() {
        // The brace-less test-only item above `lonely` covers itself only.
        let lib = "#[cfg(test)]\nconst PAIR: [u8; 2] = [1, 2];\n\
                   pub fn lonely() {}\npub fn used() {}\npub fn caller() { used(); }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::lonely(); }\n}\n";
        let other = "fn main() { fci_a::caller(); }\n";
        assert_eq!(
            dead_in(&[("crates/a/src/lib.rs", lib), ("src/main.rs", other)]),
            vec!["lonely"]
        );
    }

    #[test]
    fn a_test_file_is_not_a_caller_but_perf_src_is() {
        let lib = "pub struct OnlyTests;\npub const ONLY_PERF: u32 = 1;\npub type Nobody = u8;\n\
                   pub fn only_perf_tests() {}\n";
        let t = "use fci_a::OnlyTests;\n#[test]\nfn t() { let _ = OnlyTests; }\n";
        let perf = "fn main() { let _ = fci_a::ONLY_PERF; }\n";
        let perf_test = "#[test]\nfn t() { fci_a::only_perf_tests(); }\n";
        assert_eq!(
            dead_in(&[
                ("crates/a/src/lib.rs", lib),
                ("tests/t.rs", t),
                ("crates/a/tests/t.rs", t),
                ("perf/src/main.rs", perf),
                ("perf/tests/t.rs", perf_test),
            ]),
            vec!["OnlyTests", "Nobody", "only_perf_tests"]
        );
    }

    #[test]
    fn the_waiver_keeps_an_item_and_is_counted() {
        let lib =
            "pub fn bare() {}\n// lint: allow(dead) — oracle for the tests\npub fn oracle() {}\n\
                   pub fn also_oracle() {} // lint: allow(dead) — oracle\npub fn after_trailing() {}\n";
        let t = "#[test]\nfn t() { fci_a::oracle(); fci_a::also_oracle(); fci_a::bare(); }\n";
        let report = report_in(&[("crates/a/src/lib.rs", lib), ("tests/t.rs", t)]);
        let names: Vec<_> = report.items.iter().map(|d| d.name.as_str()).collect();
        // A waiver trailing one item's line does not reach the next item.
        assert_eq!(names, vec!["bare", "after_trailing"]);
        assert_eq!(report.waived, 2);
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
    fn a_method_is_kept_by_a_call_or_a_path_not_by_a_field_or_a_local() {
        let lib = "pub struct S { pub budget: usize }\n\
                   impl S {\n    pub fn budget(&self) -> usize { self.budget }\n\
                   pub fn called(&self) {}\n    pub fn turbofish<T>(&self) {}\n\
                   pub fn by_path(&self) {}\n    pub fn other_receiver(&self) {}\n}\n\
                   pub fn free() {}\n";
        let user = "fn g(s: &fci_a::S, t: &T) -> usize {\n    let free = 1;\n    s.called();\n\
                    s.turbofish::<u8>();\n    let f = fci_a::S::by_path;\n\
                    let _ = std::called::budget::X;\n    use std::budget::{Y};\n\
                    t.other_receiver();\n    s.budget + free\n}\n\
                    trait Tr { fn budget(&self) -> usize; }\n";
        assert_eq!(
            dead_in(&[("crates/a/src/lib.rs", lib), ("crates/b/src/lib.rs", user)]),
            vec!["budget"]
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
