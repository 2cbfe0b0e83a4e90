//! Static and dynamic correctness checks:
//! `fcix-check <race|explore|graph|locks> [options]`.
//!
//! ```text
//! fcix-check race --fault none        # correct DDI_ACC protocol → expects 0 races
//! fcix-check race --fault skip-fence  # injected bug → expects the detector to flag it
//! fcix-check race --fault skip-lock   # injected bug → expects the detector to flag it
//! fcix-check race --solve             # online-check a small FCI solve (must be clean)
//! fcix-check race --trace run.jsonl   # offline-analyze an fci-obs trace
//! fcix-check explore --seeds 8        # schedule explorer: σ/energy must be bitwise equal
//! fcix-check graph [--format json] [--strict-index] [--root NAME]...
//!                                     # call graph + transitive no-alloc/no-panic
//! fcix-check locks [--format json] [--dynamic] [--path DIR]...
//!                                     # static lock-order / deadlock analysis
//! ```
//!
//! Exit code 0 means the check passed: for `--fault none`, `--solve` and
//! `--trace` that means no races; for the injected faults it means the
//! detector *caught* the bug (a silent pass there is the failure); for
//! `graph` it means every hot-path root is free of reachable
//! allocation/panic sites; for `locks` it means the lock-order graph is
//! cycle-free with no condvar hazards (and, with `--dynamic`, that every
//! observed runtime lock-order edge is predicted by the static graph).

use fci_check::{analyze_trace_events, explore_mixed, ExploreConfig, RaceDetector};
use fci_ddi::{Backend, CheckConfig, Ddi, DistMatrix, FaultConfig, FaultPlan, ProtocolFault};
use fci_scf::MoIntegrals;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fcix-check race [--fault none|skip-fence|skip-lock] [--solve] [--trace FILE]"
    );
    eprintln!("       fcix-check explore [--seeds K]");
    eprintln!("       fcix-check graph [--format json] [--strict-index] [--root NAME]...");
    eprintln!("       fcix-check locks [--format json] [--dynamic] [--path DIR]...");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("race") => race(&args[1..]),
        Some("explore") => explore(&args[1..]),
        Some("graph") => graph(&args[1..]),
        Some("locks") => locks(&args[1..]),
        _ => usage(),
    }
}

/// Workspace root: the nearest ancestor of the current directory with a
/// `Cargo.toml` containing `[workspace]`, else the current directory.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// `fcix-check graph`: build the workspace call graph and verify the
/// σ-task / GEMM hot paths are transitively allocation- and panic-free.
fn graph(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut strict_index = false;
    let mut roots: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => return usage(),
            },
            "--strict-index" => strict_index = true,
            "--root" => match it.next() {
                Some(r) => roots.push(r.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let root_names: Vec<&str> = if roots.is_empty() {
        fci_check::graph::DEFAULT_ROOTS.to_vec()
    } else {
        roots.iter().map(String::as_str).collect()
    };
    let ws = workspace_root();
    let (g, reports) = match fci_check::graph::analyze_hot_paths(&ws, &root_names) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("fcix-check graph: cannot scan {}: {e}", ws.display());
            return ExitCode::FAILURE;
        }
    };
    let mut ok = reports.len() == root_names.len();
    if reports.len() != root_names.len() {
        eprintln!(
            "fcix-check graph: {} of {} roots not found/unique in the workspace",
            root_names.len() - reports.len(),
            root_names.len()
        );
    }
    for r in &reports {
        ok &= r.is_clean() && (!strict_index || r.index_sites == 0);
    }
    if json {
        let doc = fci_obs::JsonValue::obj(vec![
            ("graph", g.to_json()),
            (
                "roots",
                fci_obs::JsonValue::Arr(reports.iter().map(|r| r.to_json()).collect()),
            ),
            ("clean", fci_obs::JsonValue::Bool(ok)),
        ]);
        println!("{doc}");
    } else {
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
        println!(
            "fcix-check graph: {}",
            if ok { "PASS (hot paths clean)" } else { "FAIL" }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `fcix-check locks`: static lock-order / condvar analysis over the
/// serve and obs layers, optionally cross-checked against the dynamic
/// lockset witness of an in-process serve workload.
fn locks(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut dynamic = false;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => return usage(),
            },
            "--dynamic" => dynamic = true,
            "--path" => match it.next() {
                Some(p) => paths.push(p.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let ws = workspace_root();
    let scan: Vec<&str> = if paths.is_empty() {
        fci_check::locks::DEFAULT_LOCK_PATHS.to_vec()
    } else {
        paths.iter().map(String::as_str).collect()
    };
    let report = match fci_check::locks::analyze_locks(&ws, &scan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fcix-check locks: cannot scan {}: {e}", ws.display());
            return ExitCode::FAILURE;
        }
    };
    let dynamic_report = if dynamic {
        Some(fci_check::locks::dynamic_cross_check(&report))
    } else {
        None
    };
    let mut ok = report.is_clean();
    if let Some(d) = &dynamic_report {
        ok &= d.consistent;
    }
    if json {
        let mut pairs = vec![("static", report.to_json())];
        if let Some(d) = &dynamic_report {
            pairs.push(("dynamic", d.to_json()));
        }
        pairs.push(("clean", fci_obs::JsonValue::Bool(ok)));
        println!("{}", fci_obs::JsonValue::obj(pairs));
    } else {
        print!("{}", report.render_text());
        if let Some(d) = &dynamic_report {
            print!("{}", d.render_text());
        }
        println!(
            "fcix-check locks: {}",
            if ok {
                "PASS (lock graph cycle-free)"
            } else {
                "FAIL"
            }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn race(args: &[String]) -> ExitCode {
    let mut fault: Option<ProtocolFault> = None;
    let mut solve = false;
    let mut trace: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fault" => match it.next().map(String::as_str) {
                Some("none") => fault = None,
                Some("skip-fence") => fault = Some(ProtocolFault::SkipFence),
                Some("skip-lock") => fault = Some(ProtocolFault::SkipLock),
                _ => return usage(),
            },
            "--solve" => solve = true,
            "--trace" => match it.next() {
                Some(f) => trace = Some(f.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if let Some(f) = trace {
        return race_trace(&f);
    }
    if solve {
        return race_solve();
    }
    race_fault(fault)
}

/// Replay the DDI_ACC protocol (optionally with an injected bug) under
/// the threads backend with the happens-before detector attached.
fn race_fault(fault: Option<ProtocolFault>) -> ExitCode {
    let nproc = 4;
    let detector = Arc::new(RaceDetector::new());
    let ddi = Ddi::new(nproc, Backend::Threads);
    ddi.attach_recorder(detector.clone());
    // The injected bug rides in on a fault plan, so the ordinary
    // `acc_col` call site below exercises the broken protocol.
    if fault.is_some() {
        ddi.attach_faults(Arc::new(FaultPlan::new(FaultConfig {
            protocol: fault,
            ..FaultConfig::quiet(1)
        })));
    }
    let m = DistMatrix::zeros(32, 8, nproc);
    ddi.adopt(&m);
    // Every rank accumulates into every column: maximal contention on the
    // per-node locks, exactly the σ-accumulation pattern of the paper.
    ddi.run(|rank, stats| {
        let buf = vec![1.0 + rank as f64; 32];
        for col in 0..8 {
            m.acc_col(rank, col, &buf, stats);
        }
    });
    let races = detector.races();
    for r in &races {
        println!("{r}");
    }
    let expect_races = fault.is_some();
    println!(
        "fcix-check race: fault={}, {} protocol events, {} race report(s)",
        fault.map_or("None".to_string(), |pf| format!("{pf:?}")),
        detector.nevents(),
        races.len()
    );
    let caught = !races.is_empty();
    if expect_races == caught {
        println!(
            "fcix-check race: PASS ({})",
            if expect_races {
                "injected bug detected"
            } else {
                "correct protocol is race-free"
            }
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "fcix-check race: FAIL ({})",
            if expect_races {
                "injected bug NOT detected"
            } else {
                "false positive on correct protocol"
            }
        );
        ExitCode::FAILURE
    }
}

/// Online-check a full small FCI solve; the production protocol must be
/// race-free.
fn race_solve() -> ExitCode {
    let nproc = 4;
    let detector = Arc::new(RaceDetector::new());
    let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.0, false);
    let opts = fci_core::FciOptions {
        nproc,
        backend: Backend::Threads,
        method: fci_core::DiagMethod::Davidson,
        check: CheckConfig::online(detector.clone()),
        ..Default::default()
    };
    let r = fci_core::solve(&mo, 2, 2, 0, &opts);
    let races = detector.races();
    for rep in &races {
        println!("{rep}");
    }
    println!(
        "fcix-check race --solve: E = {:.10} ({} iters, converged={}), {} protocol events, {} race report(s)",
        r.energy,
        r.iterations,
        r.converged,
        detector.nevents(),
        races.len()
    );
    if races.is_empty() && r.converged {
        println!("fcix-check race --solve: PASS");
        ExitCode::SUCCESS
    } else {
        println!("fcix-check race --solve: FAIL");
        ExitCode::FAILURE
    }
}

/// Offline analysis of an fci-obs JSONL trace.
fn race_trace(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fcix-check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let events = match fci_obs::parse_jsonl(&text) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("fcix-check: cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let races = analyze_trace_events(&events);
    for r in &races {
        println!("{r}");
    }
    println!(
        "fcix-check race --trace: {} events, {} race report(s)",
        events.len(),
        races.len()
    );
    if races.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn explore(args: &[String]) -> ExitCode {
    let mut cfg = ExploreConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(k) if k >= 1 => cfg.seeds = (1..=k).collect(),
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let report = explore_mixed(&cfg);
    println!("{}", report.summary());
    if report.identical {
        println!("fcix-check explore: PASS (σ and energy bitwise identical across schedules)");
        ExitCode::SUCCESS
    } else {
        println!("fcix-check explore: FAIL (schedule-dependent result)");
        ExitCode::FAILURE
    }
}
