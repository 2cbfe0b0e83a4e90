//! The mutation matrix: one seeded defect per class, and for each row the
//! exact set of detectors that flags it. Every analysis in `fci-check`
//! must appear in some row's set; a row no detector flags is the next
//! check to write.
//!
//! * Runtime rows run a real online-checked solve with a broken
//!   `DDI_ACC` protocol injected through the fault plan.
//! * Source rows copy the real `crates/`, `src/`, `examples/` and
//!   `perf/` trees, insert one line into a real file, and run the source
//!   analyses (`locks`, `graph`, `lint`, `dead`) on the copy.
//!
//! The witness row (a lock order only the runtime witness sees) lives in
//! `mutants_witness.rs`, because the witness is process-global. Run both
//! with `-- --nocapture` to print the matrix.

use fci_check::dead::find_dead;
use fci_check::graph::{analyze_hot_paths, DEFAULT_ROOTS};
use fci_check::lint::lint_workspace_report;
use fci_check::locks::{analyze_locks, DEFAULT_LOCK_PATHS};
use fci_check::{LintConfig, RaceDetector};
use fci_ddi::{Backend, CheckConfig, FaultConfig, ProtocolFault};
use fci_scf::MoIntegrals;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The detectors that flagged a row, by name (`race`, `locks:cycle`,
/// `graph:alloc`, `lint:wallclock`, `dead`, …).
type Flags = BTreeSet<String>;

fn flags(names: &[&str]) -> Flags {
    names.iter().map(|s| s.to_string()).collect()
}

fn print_row(class: &str, detail: &str, got: &Flags) {
    println!("{class:<44} {detail:<18} flagged by {got:?}");
}

/// The two tests take turns: a threads-backend solve sharing its cores
/// with the source scans runs its ranks one after another.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Online race check of a real solve (8-site Hubbard chain, 4α4β,
/// Davidson) with `fault` injected: the vector clock is the one runtime
/// detector of the DDI protocol.
fn runtime_flags(fault: Option<ProtocolFault>, backend: Backend, nproc: usize) -> (Flags, usize) {
    let detector = Arc::new(RaceDetector::new());
    let opts = fci_core::FciOptions {
        nproc,
        backend,
        method: fci_core::DiagMethod::Davidson,
        check: CheckConfig::online(detector.clone()),
        fault: Some(FaultConfig {
            protocol: fault,
            ..FaultConfig::quiet(1)
        }),
        ..Default::default()
    };
    let mo = MoIntegrals::hubbard_chain(8, 1.0, 2.0, false);
    fci_core::solve(&mo, 4, 4, 0, &opts);
    assert!(
        detector.nevents() > 0,
        "the detector saw no protocol events"
    );
    let races = detector.races().len();
    let got = if races > 0 {
        flags(&["race"])
    } else {
        flags(&[])
    };
    (got, races)
}

#[test]
fn runtime_rows() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let rows = [
        ("correct DDI_ACC protocol", None, flags(&[])),
        (
            "DDI_ACC without its fence",
            Some(ProtocolFault::SkipFence),
            flags(&["race"]),
        ),
        (
            "DDI_ACC without its lock",
            Some(ProtocolFault::SkipLock),
            flags(&["race"]),
        ),
    ];
    for (class, fault, expect) in rows {
        for (backend, nproc) in [
            (Backend::Serial, 2),
            (Backend::Serial, 4),
            (Backend::Threads, 2),
            (Backend::Threads, 4),
        ] {
            // A threads run is one schedule of many. If it let one rank
            // claim every σ task, no two ranks touched a column and there
            // was nothing to flag: such a mutant run gets two more tries.
            let tries = if backend == Backend::Threads && fault.is_some() {
                3
            } else {
                1
            };
            let (mut got, mut races) = runtime_flags(fault, backend, nproc);
            for _ in 1..tries {
                if got == expect {
                    break;
                }
                (got, races) = runtime_flags(fault, backend, nproc);
            }
            print_row(class, &format!("{backend:?} x{nproc}"), &got);
            println!("    {races} race report(s)");
            assert_eq!(got, expect, "{class} on {backend:?} x{nproc}");
        }
    }
}

/// A one-line source mutant: `line` goes in just above the one line of
/// `file` that contains `anchor`.
struct Mutant {
    class: &'static str,
    file: &'static str,
    anchor: &'static str,
    line: &'static str,
    expect: &'static [&'static str],
}

const SOURCE_ROWS: [Mutant; 9] = [
    Mutant {
        class: "AB/BA order on Server.state / Server.results",
        file: "crates/serve/src/server.rs",
        anchor: "if let Err(e) = self.wal_append(&WalRecord::Rejected {",
        line: "let _order = self.results.lock(); let _inverted = self.state.lock();",
        expect: &["locks:cycle"],
    },
    Mutant {
        class: "condvar wait holding a second lock",
        file: "crates/serve/src/server.rs",
        anchor: "st = self.work.wait(st);",
        line: "let _held = self.rejected.lock();",
        expect: &["locks:hazard"],
    },
    Mutant {
        class: "allocation on the σ task path",
        file: "crates/core/src/sigma/mixed.rs",
        anchor: "let mut rows = vpos.iter_mut();",
        line: "let _scratch: Vec<f64> = Vec::new();",
        expect: &["graph:alloc"],
    },
    Mutant {
        // Reached from the σ task only through `Tracer::instant`; `graph`
        // follows the call because `add_entry` is no std method name.
        class: "allocation in the registry behind the σ path",
        file: "crates/obs/src/metrics.rs",
        anchor: "let idx = self.entries.len();",
        line: "let _scratch: Vec<f64> = vec![];",
        expect: &["graph:alloc"],
    },
    Mutant {
        class: "allocation in an unrooted zero-alloc kernel",
        file: "crates/linalg/src/tridiag.rs",
        anchor: "Matrix::from_fn(n, n, |i, j| if i <= j",
        line: "let _scratch: Vec<f64> = vec![];",
        expect: &["lint:alloc"],
    },
    Mutant {
        class: "panic on the σ task path",
        file: "crates/core/src/sigma/mixed.rs",
        anchor: "let mut rows = vpos.iter_mut();",
        line: "if n == 0 { panic!(\"no orbitals\"); }",
        expect: &["graph:panic"],
    },
    Mutant {
        class: "unwrap in the scheduler",
        file: "crates/serve/src/server.rs",
        anchor: "if n == 0 || n > 64 {",
        line: "let _first = spec.id.chars().next().unwrap();",
        expect: &["lint:unwrap"],
    },
    Mutant {
        class: "wall-clock read in the eigensolver",
        file: "crates/core/src/diag.rs",
        anchor: "let space = ctx.space;",
        line: "let _t0 = std::time::Instant::now();",
        expect: &["lint:wallclock"],
    },
    Mutant {
        class: "pub fn no non-test code calls",
        file: "crates/xsim/src/clock.rs",
        anchor: "use crate::model::MachineModel;",
        line: "pub fn planted_without_a_caller() {}",
        expect: &["dead"],
    },
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Copy every `.rs` file under `from` to the same place under `to`.
fn copy_rs(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("read dir") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                copy_rs(&path, &to.join(&name));
            }
        } else if name.ends_with(".rs") {
            std::fs::create_dir_all(to).expect("mkdir");
            std::fs::copy(&path, to.join(&name)).expect("copy");
        }
    }
}

/// Which source analyses flag the tree at `root`, and for what.
fn source_flags(root: &Path) -> Flags {
    let mut got = Flags::new();
    let locks = analyze_locks(root, &DEFAULT_LOCK_PATHS).expect("lock scan");
    if !locks.cycles.is_empty() {
        got.insert("locks:cycle".into());
    }
    if !locks.hazards.is_empty() {
        got.insert("locks:hazard".into());
    }
    let (_, reports) = analyze_hot_paths(root, &DEFAULT_ROOTS).expect("call graph");
    assert_eq!(reports.len(), DEFAULT_ROOTS.len(), "every root resolves");
    if reports.iter().any(|r| !r.alloc.is_empty()) {
        got.insert("graph:alloc".into());
    }
    if reports.iter().any(|r| !r.panic.is_empty()) {
        got.insert("graph:panic".into());
    }
    let lint = lint_workspace_report(&LintConfig::new(root)).expect("lint scan");
    for v in lint.violations {
        got.insert(format!("lint:{}", v.rule));
    }
    if !find_dead(root).expect("dead scan").items.is_empty() {
        got.insert("dead".into());
    }
    got
}

#[test]
fn source_rows() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let ws = workspace_root();
    let copy = std::env::temp_dir().join(format!("fcix-mutants-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&copy);
    for dir in ["crates", "src", "examples", "perf"] {
        copy_rs(&ws.join(dir), &copy.join(dir));
    }
    let clean = source_flags(&copy);
    print_row("unmutated copy", "", &clean);
    assert_eq!(clean, flags(&[]), "the copy must start clean");

    for m in &SOURCE_ROWS {
        assert!(!m.expect.is_empty(), "{}: no gating detector", m.class);
        let path = copy.join(m.file);
        let original = std::fs::read_to_string(&path).expect("read mutant target");
        let hits: Vec<usize> = original
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(m.anchor))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 1, "{}: anchor must match one line", m.class);
        let mut lines: Vec<&str> = original.lines().collect();
        lines.insert(hits[0], m.line);
        std::fs::write(&path, lines.join("\n") + "\n").expect("write mutant");
        let got = source_flags(&copy);
        std::fs::write(&path, &original).expect("restore");
        print_row(m.class, m.file.rsplit('/').next().unwrap_or(m.file), &got);
        assert_eq!(got, flags(m.expect), "{}", m.class);
    }
    std::fs::remove_dir_all(&copy).ok();
}
