//! `fcix-check` integration on the real workspace: the serve/obs lock
//! graph is cycle-free and the σ/GEMM hot paths are alloc- and
//! panic-free, while a seeded-deadlock fixture is fully flagged — the
//! positive case proving the negative one isn't vacuous.

use fci_check::graph::{analyze_hot_paths, DEFAULT_ROOTS};
use fci_check::locks::{analyze_lock_sources, analyze_locks, CondvarHazard, DEFAULT_LOCK_PATHS};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn seeded_deadlock_fixture_is_flagged() {
    let src = include_str!("fixtures/deadlock.rs");
    // Labelled as production code: a path under `tests/` is test code,
    // which the analysis skips.
    let report = analyze_lock_sources(&[("fixtures/deadlock.rs".into(), src.into())]);

    assert!(!report.is_clean(), "fixture must not analyze clean");
    // The AB/BA cycle between the two Broker mutexes.
    assert_eq!(report.cycles.len(), 1, "cycles: {:?}", report.cycles);
    let cycle = &report.cycles[0];
    assert!(
        cycle.contains(&"Broker.queue".to_string()) && cycle.contains(&"Broker.stats".to_string()),
        "cycle names the seeded locks: {cycle:?}"
    );
    // drain() parks on the condvar with Broker.stats still held.
    assert!(
        report.hazards.iter().any(|h| matches!(
            h,
            CondvarHazard::WaitWhileHolding { held, .. }
                if held.contains(&"Broker.stats".to_string())
        )),
        "hazards: {:?}",
        report.hazards
    );
}

#[test]
fn real_serve_obs_lock_graph_is_cycle_free() {
    let report = analyze_locks(&workspace_root(), &DEFAULT_LOCK_PATHS).expect("analyze workspace");
    assert!(
        report.is_clean(),
        "serve/obs lock graph regressed:\n{}",
        report.render_text()
    );
    // The inventory sees the scheduler's real locks — an empty graph
    // would also be "cycle-free", so pin the locks and the load-bearing
    // ordering edge the design relies on.
    let ids: Vec<&str> = report.locks.iter().map(|l| l.id.as_str()).collect();
    for id in [
        "Server.state",
        "Server.results",
        "Server.wal",
        "NetServer.tenants",
        "Store.shards",
        "Inner.cursors",
        "JsonlSink.writer",
        "MemorySink.events",
    ] {
        assert!(ids.contains(&id), "lock {id} missing from {ids:?}");
    }
    assert!(
        report
            .edges
            .iter()
            .any(|e| e.from == "Server.state" && e.to == "Server.results"),
        "submit()'s state→results nesting not found: {:?}",
        report.edges
    );
    // `submit` writes its trace instants after `Server.state` drops, so a
    // slow trace sink stalls no submitter or worker: no edge from the
    // scheduler's state into fci-obs's locks.
    let obs = [
        "Inner.cursors",
        "JsonlSink.writer",
        "MemorySink.events",
        "Store.shards",
    ];
    let into_obs: Vec<_> = report
        .edges
        .iter()
        .filter(|e| e.from == "Server.state" && obs.contains(&e.to.as_str()))
        .collect();
    assert!(into_obs.is_empty(), "Server.state -> fci-obs: {into_obs:?}");
    // The TCP front-end's tenant registry nests *around* the scheduler
    // (gate → sweep finished jobs via peek_result), never inside it —
    // the ordering the durable-serving design pins.
    assert!(
        report
            .edges
            .iter()
            .any(|e| e.from == "NetServer.tenants" && e.to == "Server.results"),
        "net gate's tenants→results nesting not found: {:?}",
        report.edges
    );
    // Where the pass is blind: every `.lock()` whose receiver it could
    // not name is listed, by file and line, in both outputs. Today that
    // is the WAL handle and the metric shards, each reached through a
    // closure or local binding.
    let blind: Vec<&str> = report
        .unresolved_sites
        .iter()
        .map(|(file, _)| file.as_str())
        .collect();
    assert_eq!(
        blind,
        [
            "crates/serve/src/server.rs",
            "crates/serve/src/server.rs",
            "crates/obs/src/metrics.rs",
            "crates/obs/src/metrics.rs",
        ]
    );
    let text = report.render_text();
    let json = report.to_json().to_string();
    for (file, line) in &report.unresolved_sites {
        let src = std::fs::read_to_string(workspace_root().join(file)).expect("read site");
        let at = src.lines().nth(*line as usize - 1).unwrap_or_default();
        assert!(
            at.contains(".lock()"),
            "{file}:{line} is not a lock site: {at}"
        );
        assert!(text.contains(&format!("unresolved receiver at {file}:{line}")));
        assert!(json.contains(&format!("{{\"file\":\"{file}\",\"line\":{line}}}")));
    }
}

#[test]
fn hot_path_roots_are_alloc_and_panic_free() {
    let (_, reports) = analyze_hot_paths(&workspace_root(), &DEFAULT_ROOTS).expect("build graph");
    assert_eq!(
        reports.len(),
        DEFAULT_ROOTS.len(),
        "every default root must resolve"
    );
    for r in &reports {
        assert!(
            r.is_clean(),
            "hot path from {} has findings: alloc={} panic={}",
            r.root,
            r.alloc.len(),
            r.panic.len()
        );
        assert!(r.reachable > 0);
    }
}
