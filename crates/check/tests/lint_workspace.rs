//! Whole-tree source scans: the real workspace is clean under
//! `fcix-check lint` and `fcix-check dead`, and a fixture tree seeded
//! with one violation of each lint rule is fully flagged.

use fci_check::dead::find_dead;
use fci_check::lint::lint_workspace_report;
use fci_check::LintConfig;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/check → workspace root is two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn real_workspace_is_lint_clean() {
    let cfg = LintConfig::new(workspace_root());
    let violations = lint_workspace_report(&cfg)
        .expect("scan workspace")
        .violations;
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn real_workspace_has_no_dead_pub_items() {
    let dead = find_dead(&workspace_root()).expect("scan workspace").items;
    assert!(dead.is_empty(), "pub items with no non-test use: {dead:?}");
}

#[test]
fn seeded_violations_are_all_caught() {
    let root = std::env::temp_dir().join(format!("fcix-lint-fixture-{}", std::process::id()));
    let hot = root.join("crates/ddi/src");
    std::fs::create_dir_all(&hot).expect("mkdir fixture");
    std::fs::write(
        hot.join("bad.rs"),
        "fn f(x: Option<u32>) -> u32 {\n    let p = &x as *const _;\n    unsafe { g(p) };\n    x.unwrap()\n}\n\
         fn t() { let _ = std::time::Instant::now(); }\n\
         fn p() { println!(\"debug\"); }\n",
    )
    .expect("write fixture");
    let cfg = LintConfig::new(&root);
    let violations = lint_workspace_report(&cfg)
        .expect("scan fixture")
        .violations;
    std::fs::remove_dir_all(&root).ok();

    let rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&"unsafe"), "{violations:?}");
    assert!(rules.contains(&"unwrap"), "{violations:?}");
    assert!(rules.contains(&"wallclock"), "{violations:?}");
    assert!(rules.contains(&"println"), "{violations:?}");
    assert_eq!(violations.len(), 4, "{violations:?}");
    // Reports carry file + 1-based line for direct navigation.
    assert!(violations.iter().all(|v| v.line >= 1));
    assert!(violations
        .iter()
        .all(|v| v.file.to_string_lossy().contains("bad.rs")));
}
