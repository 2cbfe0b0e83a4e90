//! Source-level correctness checks:
//! `fcix-check <graph|locks|lint|dead> [options]`.
//!
//! ```text
//! fcix-check graph [--format json] [--strict-index] [--root NAME]...
//!                                     # call graph + transitive no-alloc/no-panic
//! fcix-check locks [--format json] [--dynamic] [--path DIR]...
//!                                     # static lock-order / deadlock analysis
//! fcix-check lint [ROOT] [--format json]
//!                                     # source conventions (fci_check::lint)
//! fcix-check dead                     # pub items no non-test code names
//! ```
//!
//! Exit code 0 means the check passed: for `graph` every hot-path root
//! is free of reachable allocation/panic sites; for `locks` the
//! lock-order graph is cycle-free with no condvar hazards (and, with
//! `--dynamic`, every runtime lock-order edge the witness observes is
//! predicted by the static graph); for `lint` no rule is violated; for
//! `dead` every `pub` item is named by non-test code outside its
//! definition, or carries a `lint: allow(dead)` waiver.
//! The DDI race detector runs online, inside the test suites
//! (`crates/check/tests/mutants.rs`, `tests/chaos.rs`).

use fci_check::lint::{lint_workspace_report, LintConfig};
use fci_obs::JsonValue;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: fcix-check graph [--format json] [--strict-index] [--root NAME]...
       fcix-check locks [--format json] [--dynamic] [--path DIR]...
       fcix-check lint [ROOT] [--format json]
       fcix-check dead
";

/// A check's outcome: `Ok(passed)`, or an error message (an empty one
/// means bad usage). Every failure exits 1.
type Outcome = Result<bool, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("", String::as_str);
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match cmd {
        "graph" => graph(rest),
        "locks" => locks(rest),
        "lint" => lint(rest),
        "dead" if rest.is_empty() => dead(),
        _ => Err(String::new()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            if e.is_empty() {
                eprint!("{USAGE}");
            } else {
                eprintln!("fcix-check {cmd}: {e}");
            }
            ExitCode::FAILURE
        }
    }
}

/// The value following a flag; a missing one is a usage error.
fn value<'a>(it: &mut std::slice::Iter<'a, String>) -> Result<&'a str, String> {
    it.next().map(String::as_str).ok_or_else(String::new)
}

/// The value of `--format`: whether JSON (not text) was asked for.
fn json_format(it: &mut std::slice::Iter<String>) -> Result<bool, String> {
    match value(it)? {
        "json" => Ok(true),
        "text" => Ok(false),
        _ => Err(String::new()),
    }
}

/// Print `fcix-check <what>: PASS (<why>)`, or `…: FAIL`; returns `ok`.
fn verdict(what: &str, ok: bool, why: &str) -> bool {
    if ok {
        println!("fcix-check {what}: PASS ({why})");
    } else {
        println!("fcix-check {what}: FAIL");
    }
    ok
}

/// Workspace root: the nearest ancestor of the current directory with a
/// `Cargo.toml` containing `[workspace]`, else the current directory.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|text| text.contains("[workspace]"))
        })
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// `fcix-check graph`: build the workspace call graph and verify the
/// σ-task / GEMM hot paths are transitively allocation- and panic-free.
fn graph(args: &[String]) -> Outcome {
    let (mut json, mut strict_index) = (false, false);
    let mut roots: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => json = json_format(&mut it)?,
            "--strict-index" => strict_index = true,
            "--root" => roots.push(value(&mut it)?),
            _ => return Err(String::new()),
        }
    }
    if roots.is_empty() {
        roots = fci_check::graph::DEFAULT_ROOTS.to_vec();
    }
    let ws = workspace_root();
    let (g, reports) = fci_check::graph::analyze_hot_paths(&ws, &roots)
        .map_err(|e| format!("cannot scan {}: {e}", ws.display()))?;
    let mut ok = reports.len() == roots.len();
    if !ok {
        eprintln!(
            "fcix-check graph: {} of {} roots not found/unique in the workspace",
            roots.len() - reports.len(),
            roots.len()
        );
    }
    for r in &reports {
        ok &= r.is_clean() && (!strict_index || r.index_sites == 0);
    }
    if json {
        let doc = JsonValue::obj(vec![
            ("graph", g.to_json()),
            (
                "roots",
                JsonValue::Arr(reports.iter().map(|r| r.to_json()).collect()),
            ),
            ("clean", JsonValue::Bool(ok)),
        ]);
        println!("{doc}");
        return Ok(ok);
    }
    println!(
        "fcix-check graph: {} fns, {} edges, {} unresolved call sites",
        g.fns.len(),
        g.edges.iter().map(Vec::len).sum::<usize>(),
        g.unresolved.len()
    );
    for r in &reports {
        println!(
            "  root {}: {} reachable fns, {} alloc, {} panic, {} index sites, {} unresolved",
            r.root,
            r.reachable,
            r.alloc.len(),
            r.panic.len(),
            r.index_sites,
            r.unresolved
        );
        for a in r.alloc.iter().chain(&r.panic) {
            println!(
                "    {}:{}: {} in {} (via {})",
                a.finding.file,
                a.finding.line,
                a.finding.what,
                a.in_fn,
                a.chain.join(" -> ")
            );
        }
    }
    Ok(verdict("graph", ok, "hot paths clean"))
}

/// `fcix-check locks`: static lock-order / condvar analysis over the
/// serve and obs layers, optionally cross-checked against the lock-order
/// witness of an in-process serve workload.
fn locks(args: &[String]) -> Outcome {
    let (mut json, mut dynamic) = (false, false);
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => json = json_format(&mut it)?,
            "--dynamic" => dynamic = true,
            "--path" => paths.push(value(&mut it)?),
            _ => return Err(String::new()),
        }
    }
    if paths.is_empty() {
        paths = fci_check::locks::DEFAULT_LOCK_PATHS.to_vec();
    }
    let ws = workspace_root();
    let report = fci_check::locks::analyze_locks(&ws, &paths)
        .map_err(|e| format!("cannot scan {}: {e}", ws.display()))?;
    let dynamic_report = dynamic.then(|| fci_check::locks::dynamic_cross_check(&report));
    let ok = report.is_clean() && dynamic_report.as_ref().is_none_or(|d| d.consistent);
    if json {
        let mut pairs = vec![("static", report.to_json())];
        if let Some(d) = &dynamic_report {
            pairs.push(("dynamic", d.to_json()));
        }
        pairs.push(("clean", JsonValue::Bool(ok)));
        println!("{}", JsonValue::obj(pairs));
        return Ok(ok);
    }
    print!("{}", report.render_text());
    if let Some(d) = &dynamic_report {
        print!("{}", d.render_text());
    }
    Ok(verdict("locks", ok, "lock graph cycle-free"))
}

/// `fcix-check lint`: the source-convention rules of `fci_check::lint`
/// over every `.rs` file under ROOT (default: the current directory).
fn lint(args: &[String]) -> Outcome {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => json = json_format(&mut it)?,
            _ => root = PathBuf::from(a),
        }
    }
    let report = lint_workspace_report(&LintConfig::new(root)).map_err(|e| e.to_string())?;
    let clean = report.violations.is_empty();
    if json {
        println!("{}", report.to_json());
    } else if clean {
        println!("fcix-check lint: clean");
    } else {
        for v in &report.violations {
            println!("{v}");
        }
        println!("fcix-check lint: {} violation(s)", report.violations.len());
    }
    Ok(clean)
}

/// `fcix-check dead`: every `pub` item whose name no non-test code
/// outside its definition mentions, unless waived (`fci_check::dead`).
/// Any finding fails.
fn dead() -> Outcome {
    let ws = workspace_root();
    let report = fci_check::dead::find_dead(&ws)
        .map_err(|e| format!("cannot scan {}: {e}", ws.display()))?;
    for d in &report.items {
        println!(
            "{}:{}: pub {} {} has no non-test use outside its definition",
            d.file, d.line, d.kind, d.name
        );
    }
    Ok(verdict(
        "dead",
        report.items.is_empty(),
        &format!(
            "every pub item has a non-test use; {} waived",
            report.waived
        ),
    ))
}
