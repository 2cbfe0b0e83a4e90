//! End-to-end telemetry invariants: the trace written while driving the
//! simulated machine must agree — exactly, not approximately — with the
//! `RunReport` clock aggregates it was derived from, the JSONL encoding
//! must be deterministic modulo host wall-clock, and the Chrome export
//! must be well-formed JSON.

use fcix::core::{
    apply_sigma, diagonalize, random_hamiltonian, random_symmetric_hamiltonian, solve_prepared,
    solve_resilient, solve_roots_prepared, DetSpace, DiagMethod, DiagOptions, FciOptions,
    Hamiltonian, PoolParams, RecoveryOptions, SigmaCtx, SigmaMethod,
};
use fcix::ddi::{Backend, Ddi, FaultConfig, FaultPlan, RankDeath};
use fcix::fault::Xorshift64;
use fcix::obs::{
    parse_collapsed, parse_jsonl_lenient, to_chrome, to_collapsed, Event, EventKind, JsonValue,
    MetricsRegistry, ObsConfig, RunSummary, TimeBase, Tracer,
};
use fcix::scf::MoIntegrals;
use fcix::serve::{
    serve, JobSpec, JobStatus, NetClient, NetConfig, NetServer, ServeConfig, Server,
};
use fcix::sparse::{solve_cdfci, solve_selected, SparseOptions, SparseResult};
use fcix::xsim::{Clock, MachineModel};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Run one traced σ evaluation; return the trace and the breakdown's
/// merged report.
fn traced_sigma(
    n: usize,
    na: usize,
    nb: usize,
    nproc: usize,
    seed: u64,
    method: SigmaMethod,
) -> (Vec<Event>, fcix::xsim::RunReport) {
    let ham = random_hamiltonian(n, seed);
    traced_sigma_on(&DetSpace::c1(n, na, nb), &ham, nproc, method)
}

/// [`traced_sigma`] on a given space and Hamiltonian.
fn traced_sigma_on(
    space: &DetSpace,
    ham: &Hamiltonian,
    nproc: usize,
    method: SigmaMethod,
) -> (Vec<Event>, fcix::xsim::RunReport) {
    let ddi = Ddi::new(nproc, Backend::Serial);
    let tracer = fcix::obs::Tracer::in_memory();
    ddi.attach_tracer(tracer.clone());
    let model = MachineModel::cray_x1();
    let ctx = SigmaCtx {
        space,
        ham,
        ddi: &ddi,
        model: &model,
        pool: PoolParams::default(),
    };
    let c = space.guess(ham, nproc);
    let (_sigma, bd) = apply_sigma(&ctx, &c, method);
    (tracer.events().expect("in-memory tracer"), bd.total())
}

/// The summary rebuilt from the trace equals the clock-level summary of
/// the merged `RunReport` — every field, to 1e-9.
#[test]
fn trace_summary_matches_report_summary() {
    for method in [SigmaMethod::Dgemm, SigmaMethod::Moc] {
        let (events, report) = traced_sigma(6, 3, 2, 5, 42, method);
        let from_trace = RunSummary::from_events(&events);
        let from_clocks = report.summary();
        assert_eq!(from_trace.nproc, from_clocks.nproc);
        let close = |a: f64, b: f64, what: &str| {
            assert!(
                (a - b).abs() < 1e-9,
                "{what}: trace {a} vs clocks {b} ({method:?})"
            );
        };
        // Table 3's rows, in the order the clock emits them.
        for seg in Clock::default().segments() {
            let cat = seg.cat;
            close(from_trace.time(cat), from_clocks.time(cat), cat.as_str());
        }
        close(from_trace.elapsed, from_clocks.elapsed, "elapsed");
        close(from_trace.mean_busy, from_clocks.mean_busy, "mean_busy");
        close(
            from_trace.flops_dgemm,
            from_clocks.flops_dgemm,
            "flops_dgemm",
        );
        close(
            from_trace.flops_daxpy,
            from_clocks.flops_daxpy,
            "flops_daxpy",
        );
        close(from_trace.net_bytes, from_clocks.net_bytes, "net_bytes");
        close(from_trace.net_msgs, from_clocks.net_msgs, "net_msgs");
        close(
            from_trace.lock_acquires,
            from_clocks.lock_acquires,
            "lock_acquires",
        );
        close(
            from_trace.nxtval_msgs,
            from_clocks.nxtval_msgs,
            "nxtval_msgs",
        );
    }
}

/// Property: for arbitrary problem shapes, each rank's span durations sum
/// to that rank's simulated clock total within 1e-9 — the trace loses no
/// time and invents none.
#[test]
fn per_rank_span_sums_match_clock_totals() {
    let mut g = Xorshift64::new(0x7E1E);
    let mut cases = 0;
    while cases < 10 {
        let n = 3 + g.next_index(3);
        let na = 1 + g.next_index(3);
        let nb = 1 + g.next_index(3);
        let nproc = 1 + g.next_index(6);
        let seed = g.next_u64() % 500;
        if na > n || nb > n {
            continue;
        }
        cases += 1;
        let method = if cases % 2 == 0 {
            SigmaMethod::Dgemm
        } else {
            SigmaMethod::Moc
        };
        let (events, report) = traced_sigma(n, na, nb, nproc, seed, method);
        for (rank, clock) in report.clocks.iter().enumerate() {
            let span_sum: f64 = events
                .iter()
                .filter(|e| e.kind == EventKind::Span && e.rank == Some(rank))
                .map(|e| e.sim_dur_s)
                .sum();
            assert!(
                (span_sum - clock.total()).abs() < 1e-9,
                "rank {rank}: spans {span_sum} vs clock {} (n={n} na={na} nb={nb} p={nproc})",
                clock.total()
            );
        }
    }
}

/// Drop host wall-clock fields from a serialized event (the only
/// non-deterministic part of a record): the two timestamps, and the
/// payload of the `*_host_us` split counters, which is host time too.
fn strip_host(v: JsonValue) -> JsonValue {
    match v {
        JsonValue::Obj(pairs) => {
            let name = pairs.iter().find(|(k, _)| k == "name");
            let host_split = name
                .and_then(|(_, n)| n.as_str())
                .is_some_and(|n| n.ends_with("_host_us"));
            JsonValue::Obj(
                pairs
                    .into_iter()
                    .filter(|(k, _)| {
                        k != "host_us" && k != "host_dur_us" && !(host_split && k == "args")
                    })
                    .collect(),
            )
        }
        other => other,
    }
}

/// Two identical runs produce byte-identical JSONL once host timestamps
/// are removed, and every record survives a serialize→parse round trip.
#[test]
fn jsonl_is_deterministic_and_round_trips() {
    let (ev1, _) = traced_sigma(5, 2, 2, 3, 7, SigmaMethod::Dgemm);
    let (ev2, _) = traced_sigma(5, 2, 2, 3, 7, SigmaMethod::Dgemm);
    assert_eq!(ev1.len(), ev2.len());
    for (a, b) in ev1.iter().zip(&ev2) {
        assert_eq!(
            strip_host(a.to_json()).to_string(),
            strip_host(b.to_json()).to_string()
        );
    }
    let jsonl: String = ev1.iter().map(|e| e.to_json().to_string() + "\n").collect();
    let (parsed, warn) = parse_jsonl_lenient(&jsonl).expect("own output must parse");
    assert_eq!(parsed, ev1);
    assert!(warn.is_none(), "{warn:?}");
}

/// The host-time split the σ routines emit accounts for the phases it
/// splits: per routine, the parts summed over every rank come to within
/// 10 % of the host duration of that routine's phases (serial backend, so
/// ranks do not overlap; the remainder is the phase driver's bookkeeping).
#[test]
fn host_split_parts_sum_to_the_phase_duration() {
    let (events, _) = traced_sigma(10, 4, 4, 2, 5, SigmaMethod::Dgemm);
    host_split_closes(&events);
    // The same on a point group, where every part is many small blocks
    // and claiming one of the twelve long Kα tasks (counter message,
    // trace instants) is ≈ 2 µs beside a 50 µs task: the claim is booked
    // to the task's gather.
    let sym = [2u8, 0, 3, 1, 0, 2, 1, 3, 0, 2, 1, 0];
    let ham = random_symmetric_hamiltonian(12, 5, &sym, 4);
    let space = DetSpace::new(12, 2, 6, &sym, 4, 1);
    let (events, _) = traced_sigma_on(&space, &ham, 2, SigmaMethod::Dgemm);
    host_split_closes(&events);
}

fn host_split_closes(events: &[Event]) {
    let summary = RunSummary::from_events(events);
    // A phase hands every rank the same host interval, split across that
    // rank's spans: rank 0's spans of a phase sum to its duration. The
    // parts tile that interval — both are differences of the same clock
    // reads — so they agree to rounding, however long the host was
    // preempted inside it.
    let phase_us = |phases: &[&str]| -> f64 {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.rank == Some(0))
            .filter(|e| phases.contains(&e.name.as_str()))
            .map(|e| e.host_dur_us)
            .sum()
    };
    for (counter, phases) in [
        ("same_spin_host_us", &["beta_beta", "alpha_alpha"][..]),
        ("mixed_host_us", &["alpha_beta"][..]),
    ] {
        let (_, parts) = summary
            .host_splits
            .iter()
            .find(|(name, _)| name == counter)
            .unwrap_or_else(|| panic!("no {counter} counter in the trace"));
        assert_eq!(parts.len(), 5, "{counter}: {parts:?}");
        assert!(
            parts.iter().all(|(_, us)| *us > 0.0),
            "{counter}: {parts:?}"
        );
        let split: f64 = parts.iter().map(|(_, us)| us).sum();
        let phase = phase_us(phases);
        assert!(
            split >= 0.9 * phase && (split - phase).abs() <= 1e-9 * phase,
            "{counter}: parts {split:.0} µs vs phases {phase:.0} µs ({parts:?})"
        );
    }
    // One counter per kernel pass: the serial backend runs each same-spin
    // half as one pass over every rank's columns, and the mixed phase
    // still splits per rank.
    let emitted = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(emitted("same_spin_host_us"), 2);
    assert_eq!(emitted("mixed_host_us"), 2);
    // And `fcix trace summarize` prints them.
    assert!(summary.render("σ").contains("host: mixed split"));
}

/// The host GEMM flops beside the split: all of the charged DGEMM flops
/// when nothing is screened, and on a Hubbard chain — whose Ĝ is all zero
/// and whose V keeps only the pairs `(p, p)` — none in the same-spin
/// halves and a small part of the charge in the mixed one.
#[test]
fn host_gemm_flops_count_what_the_screen_leaves() {
    let host_flops = |s: &RunSummary, counter: &str| {
        let found = s.host_gemm_flops.iter().find(|(name, _)| name == counter);
        found.map_or(0.0, |&(_, v)| v)
    };
    let (events, _) = traced_sigma(8, 3, 3, 3, 5, SigmaMethod::Dgemm);
    let dense = RunSummary::from_events(&events);
    let ran = host_flops(&dense, "same_spin_host_us") + host_flops(&dense, "mixed_host_us");
    assert!(dense.flops_dgemm > 0.0);
    assert!(
        (ran - dense.flops_dgemm).abs() <= 1e-12 * ran,
        "{ran} vs {}",
        dense.flops_dgemm
    );

    let ham = Hamiltonian::new(&fcix::scf::MoIntegrals::hubbard_chain(8, 1.0, 4.0, false));
    let space = DetSpace::for_hamiltonian(&ham, 4, 4, 0);
    let (events, _) = traced_sigma_on(&space, &ham, 3, SigmaMethod::Dgemm);
    let hubbard = RunSummary::from_events(&events);
    assert_eq!(host_flops(&hubbard, "same_spin_host_us"), 0.0);
    let mixed = host_flops(&hubbard, "mixed_host_us");
    assert!(
        mixed > 0.0 && mixed < 0.05 * hubbard.flops_dgemm,
        "{mixed} of {}",
        hubbard.flops_dgemm
    );
    assert!(hubbard.render("σ").contains("host: GEMM ran"));
}

/// Golden check: a hand-written trace aggregates to exactly the expected
/// Table-3 numbers.
#[test]
fn golden_summary_from_fixed_trace() {
    let jsonl = r#"{"ev":"span","name":"bb","cat":"dgemm","rank":0,"host_us":0,"host_dur_us":10,"sim_s":0,"sim_dur_s":2.0,"args":{"flops":8000000000}}
{"ev":"span","name":"bb","cat":"net","rank":0,"host_us":10,"host_dur_us":5,"sim_s":2.0,"sim_dur_s":0.5,"args":{"bytes":1000000,"msgs":10,"nxtval":3}}
{"ev":"span","name":"bb","cat":"dgemm","rank":1,"host_us":0,"host_dur_us":10,"sim_s":0,"sim_dur_s":1.0,"args":{"flops":4000000000}}
{"ev":"span","name":"bb","cat":"lock","rank":1,"host_us":10,"host_dur_us":2,"sim_s":1.0,"sim_dur_s":0.25,"args":{"acquires":4}}
{"ev":"instant","name":"ddi_nxtval","cat":"net","rank":1,"host_us":12,"host_dur_us":0,"sim_s":1.25,"sim_dur_s":0,"args":{"nxtval":1}}
{"ev":"span","name":"bb","cat":"nonsense","rank":1,"host_us":12,"host_dur_us":1,"sim_s":1.25,"sim_dur_s":0.5}
"#;
    // Counters ride on spans; instants are annotations and must not
    // perturb any aggregate (the nxtval instant above is ignored). A span
    // of unknown category is rank 1's busy time but no category's.
    let (events, warn) = parse_jsonl_lenient(jsonl).unwrap();
    assert!(warn.is_none(), "{warn:?}");
    let s = RunSummary::from_events(&events);
    assert_eq!(s.nproc, 2);
    assert_eq!(s.t_dgemm, 3.0);
    assert_eq!(s.t_net, 0.5);
    assert_eq!(s.t_lock, 0.25);
    assert_eq!(s.t_gather, 0.0);
    let text = s.render("golden");
    let gather = text.lines().find(|l| l.contains("gather/scatter"));
    assert!(gather.is_some_and(|l| l.ends_with(" 0.0%")), "{text}");
    assert_eq!(s.elapsed, 2.5); // rank 0 is the slowest: 2.0 + 0.5
    assert_eq!(s.mean_busy, (2.5 + 1.75) / 2.0);
    assert_eq!(s.flops_dgemm, 12e9);
    assert_eq!(s.net_bytes, 1e6);
    assert_eq!(s.net_msgs, 10.0);
    assert_eq!(s.lock_acquires, 4.0);
    assert_eq!(s.nxtval_msgs, 3.0);
    assert!((s.tflops() - 12e9 / 2.5 / 1e12).abs() < 1e-12);
}

/// Flamegraph export on a Table-3-style σ run: the folded output
/// round-trips through the collapsed-stack parser, conserves the total
/// simulated time of the trace (to 1 µs per span of rounding), and every
/// stack is rooted in a rank lane.
#[test]
fn flame_round_trips_on_table3_style_run() {
    let (events, report) = traced_sigma(6, 3, 2, 4, 42, SigmaMethod::Dgemm);
    let folded = to_collapsed(&events, TimeBase::Sim);
    let stacks = parse_collapsed(&folded).expect("own flame output must parse");
    assert!(!stacks.is_empty());
    for (frames, weight) in &stacks {
        assert!(
            frames.first().is_some_and(|f| f.starts_with("rank ")),
            "stack must be rooted in a rank lane: {frames:?}"
        );
        assert!(*weight > 0, "folded weights are positive: {frames:?}");
    }
    // Weights conserve the simulated busy time: each span contributes
    // its duration in µs (floor-rounded, so allow 1 µs per span).
    let folded_us: u64 = stacks.iter().map(|(_, w)| w).sum();
    let busy_us = report.clocks.iter().map(|c| c.total()).sum::<f64>() * 1e6;
    let n_spans = events.iter().filter(|e| e.kind == EventKind::Span).count() as f64;
    assert!(
        (folded_us as f64 - busy_us).abs() <= n_spans,
        "folded {folded_us} µs vs clocks {busy_us:.0} µs"
    );
    // The host time base folds and parses too. Its stack set need not
    // match exactly — a span under 1 µs in one base but not the other
    // rounds to weight 0 and is dropped from that base's fold — but
    // every host stack must name frames the trace actually contains.
    let host = parse_collapsed(&to_collapsed(&events, TimeBase::Host)).unwrap();
    assert!(!host.is_empty());
    for (frames, _) in &host {
        assert!(frames.first().is_some_and(|f| f.starts_with("rank ")));
    }
}

/// Replaying a σ trace through the metrics plane populates the span and
/// flop histograms the `fcix trace metrics` subcommand prints.
#[test]
fn metrics_replay_covers_sigma_trace() {
    let (events, report) = traced_sigma(5, 2, 2, 3, 7, SigmaMethod::Dgemm);
    let reg = MetricsRegistry::from_events(&events);
    let n_spans = events.iter().filter(|e| e.kind == EventKind::Span).count();
    let text = reg.render_text();
    assert!(text.contains("fcix_trace_span_s"), "exposition:\n{text}");
    // Sum a metric's samples across every label set in the exposition.
    let sum_over_labels = |prefix: &str| -> f64 {
        text.lines()
            .filter(|l| {
                l.starts_with(prefix)
                    && matches!(l.as_bytes().get(prefix.len()), Some(b'{') | Some(b' '))
            })
            .filter_map(|l| l.split_whitespace().next_back()?.parse::<f64>().ok())
            .sum()
    };
    assert_eq!(
        sum_over_labels("fcix_trace_span_s_count") as usize,
        n_spans,
        "every span must be observed exactly once:\n{text}"
    );
    // The flops counter totals the report's dgemm+daxpy flops.
    let summary = report.summary();
    let flops = summary.flops_dgemm + summary.flops_daxpy;
    let got = sum_over_labels("fcix_trace_flops");
    assert!(
        (got - flops).abs() <= 1e-6 * flops.max(1.0),
        "replayed flops {got} vs clocked {flops}"
    );
}

/// What a live run records equals what `fcix trace metrics` rebuilds from
/// the same run's trace, line for line over the whole exposition: every
/// metric comes from the one table in `fci-obs`. The runs: a DGEMM
/// AutoAdjust solve with no fault plan, under transient faults and under
/// `nxtval` stalls with poisoned σ tasks; a two-root Davidson; CDFCI and
/// selected CI; a resilient solve that survives a rank death; the 6-job,
/// two-tenant serve fixture; a WAL-backed server with one failing job;
/// and a loopback `NetServer` round trip with one refusal. Each run names
/// series it must feed. Conversely, every row of DESIGN.md §13's
/// catalogue but the linalg probes (installed only by `fcix batch
/// --metrics-out`) is fed by some run, and every series fed is a row.
#[test]
fn live_metrics_equal_the_replay_of_their_trace() {
    // Every series a live registry holds, in exposition form.
    let held = RefCell::new(BTreeSet::new());
    let check = |run: &str, live: &MetricsRegistry, events: &[Event], fed: &[&str]| {
        let text = live.render_text();
        let series = text.lines().filter_map(|l| l.strip_prefix("# TYPE "));
        held.borrow_mut()
            .extend(series.filter_map(|l| l.split(' ').next()).map(String::from));
        assert_eq!(
            text,
            MetricsRegistry::from_events(events).render_text(),
            "{run}"
        );
        for fed in fed {
            assert!(
                text.lines().any(|l| l.starts_with(fed)),
                "{run}: no {fed}:\n{text}"
            );
        }
    };
    let dir = std::env::temp_dir().join(format!("fcix-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("ckpt")).expect("temp dir");
    // A trace file, and the registry the same run records into.
    let to_file = |name: &str| {
        let live = MetricsRegistry::new();
        let obs = ObsConfig::to_file(dir.join(name)).with_metrics(live.clone());
        (obs, live, dir.join(name))
    };
    let read = |path: &Path| {
        let text = std::fs::read_to_string(path).expect("trace written");
        parse_jsonl_lenient(&text).expect("trace parses").0
    };

    let (ham, space) = (random_hamiltonian(6, 3), DetSpace::c1(6, 3, 2));
    let model = MachineModel::cray_x1();
    let transient = FaultConfig {
        seed: 9,
        p_drop: 0.05,
        p_corrupt: 0.05,
        p_duplicate: 0.05,
        p_fence_delay: 0.05,
        ..FaultConfig::default()
    };
    let stalls = FaultConfig {
        seed: 11,
        p_stall: 0.05,
        p_poison: 0.05,
        ..FaultConfig::default()
    };
    for (plan, fed) in [
        (
            None,
            &["fcix_ddi_get_bytes_count", "fcix_davidson_iters "][..],
        ),
        (
            Some(transient),
            &["fcix_ddi_retry_backoff_s_count{kind=\"transient\"}"],
        ),
        (
            Some(stalls),
            &[
                "fcix_fault_injected{kind=\"nxtval_stall\"}",
                "fcix_fault_injected{kind=\"poisoned_task\"}",
            ],
        ),
    ] {
        let ddi = Ddi::new(2, Backend::Serial);
        if let Some(cfg) = plan {
            ddi.attach_faults(Arc::new(FaultPlan::new(cfg)));
        }
        let tracer = Tracer::in_memory();
        ddi.attach_tracer(tracer.clone());
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let opts = DiagOptions::default();
        assert!(diagonalize(&ctx, SigmaMethod::Dgemm, DiagMethod::AutoAdjust, &opts).converged);
        let events = tracer.events().expect("in-memory tracer");
        check(
            fed[0],
            tracer.metrics().expect("metrics plane"),
            &events,
            fed,
        );
    }

    let (obs, live, path) = to_file("roots.jsonl");
    let opts = FciOptions {
        nproc: 2,
        method: DiagMethod::Davidson,
        obs,
        ..FciOptions::default()
    };
    let roots = solve_roots_prepared(&DetSpace::c1(5, 2, 2), &random_hamiltonian(5, 3), &opts, 2);
    assert_eq!(roots.converged, [true, true]);
    check(
        "two roots",
        &live,
        &read(&path),
        &["fcix_davidson_iter_s_count"],
    );

    let hub = Hamiltonian::new(&MoIntegrals::hubbard_chain(6, 1.0, 4.0, false));
    let hub_space = DetSpace::for_hamiltonian(&hub, 3, 3, 0);
    type Engine = fn(&DetSpace, &Hamiltonian, &SparseOptions) -> SparseResult;
    for (run, engine, fed) in [
        (
            "cdfci",
            solve_cdfci as Engine,
            "fcix_sparse_cdfci_sweep_us_count",
        ),
        (
            "selected",
            solve_selected,
            "fcix_sparse_selected_outer_us_count",
        ),
    ] {
        let (obs, live, path) = to_file(&format!("{run}.jsonl"));
        let opts = SparseOptions {
            obs,
            ..SparseOptions::default()
        };
        assert!(engine(&hub_space, &hub, &opts).converged);
        check(
            run,
            &live,
            &read(&path),
            &[fed, "fcix_sparse_conn_table_bytes "],
        );
    }

    let (obs, live, path) = to_file("death.jsonl");
    let death = RankDeath {
        rank: 2,
        after_ops: 500,
    };
    let opts = FciOptions {
        nproc: 4,
        method: DiagMethod::Davidson,
        fault: Some(FaultConfig {
            rank_death: Some(death),
            ..FaultConfig::quiet(606)
        }),
        obs,
        ..FciOptions::default()
    };
    let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
    let rec = RecoveryOptions::new(dir.join("death.ckp"));
    let r = solve_resilient(&mo, 2, 2, 0, &opts, &rec).expect("resilient solve");
    assert_eq!(r.restarts, 1);
    check(
        "rank death",
        &live,
        &read(&path),
        &["fcix_fault_rank_deaths 1"],
    );

    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/serve_jobs6.jsonl");
    let jobs = std::fs::read_to_string(fixture).expect("fixture");
    let jobs = jobs.lines().filter(|l| l.starts_with('{'));
    let jobs = jobs.map(|l| JobSpec::from_json(&JsonValue::parse(l).expect("json")).expect("spec"));
    let (obs, live, path) = to_file("serve.jsonl");
    // One worker, so the registry and the trace see instants in one order.
    let cfg = ServeConfig {
        workers: 1,
        checkpoint_dir: dir.join("ckpt"),
        obs,
        ..ServeConfig::default()
    };
    let report = serve(cfg, jobs.collect());
    assert!(report.results.iter().all(|r| r.status == JobStatus::Done));
    assert_eq!(report.results.len(), 6);
    let fed = [
        "fcix_serve_jobs_done{tenant=\"alice\"} 3",
        "fcix_serve_jobs_done{tenant=\"bob\"} 3",
        "fcix_serve_batches 1",
        "fcix_serve_batch_size_count 5",
    ];
    check("serve", &live, &read(&path), &fed);

    // A write-ahead log, and a job that fails: its root is outside the
    // 36-determinant sector.
    let (obs, live, path) = to_file("wal.jsonl");
    let cfg = ServeConfig {
        workers: 1,
        checkpoint_dir: dir.join("ckpt"),
        wal_path: Some(dir.join("wal").join("jobs.wal")),
        obs,
        ..ServeConfig::default()
    };
    let hubbard = |u| fcix::serve::ProblemSpec::Hubbard {
        sites: 4,
        t: 1.0,
        u,
        periodic: false,
    };
    let mut beyond = JobSpec::new("beyond", hubbard(3.0), 2, 2);
    beyond.root = 100;
    let jobs = vec![JobSpec::new("good", hubbard(4.0), 2, 2), beyond];
    let report = serve(cfg, jobs);
    assert_eq!(report.result("good").expect("good").status, JobStatus::Done);
    let fed = [
        "fcix_serve_wal_appends 6",
        "fcix_serve_wal_recovered_pending 0",
        "fcix_serve_jobs_failed{tenant=\"default\"} 1",
    ];
    check("wal", &live, &read(&path), &fed);

    // The network front end: submit, wait, ping, and one refusal.
    let (obs, live, path) = to_file("net.jsonl");
    let server = Arc::new(Server::new(ServeConfig {
        workers: 1,
        checkpoint_dir: dir.join("ckpt"),
        obs,
        ..ServeConfig::default()
    }));
    let net = NetServer::bind(server.clone(), NetConfig::default()).expect("bind loopback");
    let addr = net.local_addr().expect("local addr").to_string();
    std::thread::scope(|s| {
        s.spawn(|| server.run(1));
        s.spawn(|| net.run());
        let mut client = NetClient::connect(&addr, 10_000).expect("connect");
        let job = JobSpec::new("net", hubbard(4.0), 2, 2);
        assert!(client.submit_idempotent(&job).expect("submit").is_none());
        let done = client.wait("net", 30_000).expect("wait");
        assert_eq!(done.get("ok"), Some(&JsonValue::Bool(true)), "{done}");
        assert!(client.ping().expect("ping"));
        let no_alpha = JobSpec::new("no-alpha", hubbard(4.0), 0, 2);
        assert!(client
            .submit_idempotent(&no_alpha)
            .expect("submit")
            .is_some());
        client.drain().expect("drain");
    });
    drop(net);
    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("server still shared"));
    assert_eq!(server.into_report().results.len(), 1);
    let fed = [
        "fcix_net_requests{verb=\"ping\"} 1",
        "fcix_net_rejects{reason=\"invalid\"} 1",
    ];
    check("net", &live, &read(&path), &fed);

    let catalogue = metric_catalogue();
    let held = held.into_inner();
    let missing: Vec<&String> = held.difference(&catalogue).collect();
    assert!(missing.is_empty(), "not in DESIGN.md §13: {missing:?}");
    let unfed: Vec<&String> = catalogue
        .difference(&held)
        .filter(|name| !name.starts_with("fcix_linalg_"))
        .collect();
    assert!(
        unfed.is_empty(),
        "no run feeds these DESIGN.md §13 rows: {unfed:?}"
    );
}

/// The series DESIGN.md §13's catalogue lists, labels stripped, in
/// exposition form (`trace.span_s{phase,cat}` is `fcix_trace_span_s`).
fn metric_catalogue() -> BTreeSet<String> {
    let design = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md");
    let section = design.split("\n## 13. ").nth(1).expect("a §13");
    let section = section.split("\n## ").next().unwrap_or_default();
    let mut out = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let first_cell = row[1..].split(" | ").next().unwrap_or_default();
        for name in first_cell.split('`').skip(1).step_by(2) {
            let name = name.split('{').next().unwrap_or_default();
            out.insert(format!("fcix_{}", name.replace('.', "_")));
        }
    }
    assert!(
        out.contains("fcix_trace_span_s"),
        "catalogue not found: {out:?}"
    );
    out
}

/// A trace output that cannot be opened does not stop a solve: the one
/// policy of `ObsConfig::tracer_or_warn`, which every solver and the
/// server open their tracer with, warns and runs untraced.
#[test]
fn an_unopenable_trace_output_runs_untraced() {
    let hub = Hamiltonian::new(&MoIntegrals::hubbard_chain(6, 1.0, 4.0, false));
    let space = DetSpace::for_hamiltonian(&hub, 3, 3, 0);
    let missing = std::env::temp_dir()
        .join(format!("fcix-no-such-dir-{}", std::process::id()))
        .join("cdfci.jsonl");
    let run = |obs| {
        let opts = SparseOptions {
            obs,
            ..SparseOptions::default()
        };
        solve_cdfci(&space, &hub, &opts)
    };
    let off = run(ObsConfig::off());
    let unopenable = run(ObsConfig::to_file(&missing));
    assert!(!missing.exists());
    assert!(off.converged && unopenable.converged);
    let bits = |r: &SparseResult| r.energies.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&unopenable), bits(&off));
}

/// Solver telemetry belongs to its solve: a single-root Davidson, an
/// AutoAdjust and a 2-root solve recording into one registry leave no
/// solver scratch state in it, and `davidson.iters` counts exactly the σ
/// evaluations of all three.
#[test]
fn solves_sharing_a_registry_count_their_sigma_evaluations() {
    let reg = MetricsRegistry::new();
    let ham = random_hamiltonian(5, 3);
    let space = DetSpace::c1(5, 2, 2);
    let opts = |method| FciOptions {
        method,
        obs: ObsConfig::off().with_metrics(reg.clone()),
        ..FciOptions::default()
    };
    let davidson = solve_prepared(&space, &ham, &opts(DiagMethod::Davidson));
    let auto = solve_prepared(&space, &ham, &opts(DiagMethod::AutoAdjust));
    let roots = solve_roots_prepared(&space, &ham, &opts(DiagMethod::Davidson), 2);
    assert!(davidson.converged && auto.converged && roots.converged == [true, true]);
    let text = reg.render_text();
    assert!(!text.contains("cursor"), "{text}");
    let sigmas = davidson.iterations + auto.iterations + roots.iterations;
    assert_eq!(reg.value("davidson.iters", &[]), Some(sigmas as f64));
}

/// Every phase of a DGEMM σ reaches the metrics plane: after a traced-off
/// Davidson solve with a registry attached, β-β, α-α, α-β and the
/// transpose each carry one `sigma.phase_s` and `sigma.phase_gflops`
/// sample per σ evaluation and one `sigma.rank_busy_s` sample per rank.
#[test]
fn every_dgemm_sigma_phase_reaches_the_metrics_plane() {
    let reg = MetricsRegistry::new();
    let nproc = 2;
    let opts = FciOptions {
        nproc,
        sigma: SigmaMethod::Dgemm,
        method: DiagMethod::Davidson,
        obs: ObsConfig::off().with_metrics(reg.clone()),
        ..FciOptions::default()
    };
    let mo = fcix::scf::MoIntegrals::hubbard_chain(6, 1.0, 2.0, false);
    let r = fcix::core::solve(&mo, 3, 3, 0, &opts);
    assert!(r.converged);
    let sigmas = reg.value("davidson.iters", &[]).expect("σ count");
    assert!(sigmas >= 1.0);
    let text = reg.render_text();
    for phase in ["beta_beta", "alpha_alpha", "alpha_beta", "transpose"] {
        for (metric, per_sigma) in [
            ("sigma_phase_s", 1.0),
            ("sigma_phase_gflops", 1.0),
            ("sigma_rank_busy_s", nproc as f64),
        ] {
            let line = format!(
                "fcix_{metric}_count{{phase=\"{phase}\"}} {}",
                sigmas * per_sigma
            );
            assert!(text.lines().any(|l| l == line), "{line} missing:\n{text}");
        }
    }
}

/// The Chrome export is valid JSON with one complete ("X") record per
/// span, carried timestamps in microseconds, and rank→tid lane mapping.
#[test]
fn chrome_export_is_valid() {
    let (events, _) = traced_sigma(5, 2, 2, 3, 11, SigmaMethod::Dgemm);
    let out = to_chrome(&events);
    let v = JsonValue::parse(&out).expect("chrome export must be valid JSON");
    let arr = v.as_arr().expect("trace event array");
    let spans: Vec<&JsonValue> = arr
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .collect();
    let n_spans = events.iter().filter(|e| e.kind == EventKind::Span).count();
    assert_eq!(spans.len(), n_spans);
    for (chrome, ev) in spans
        .iter()
        .zip(events.iter().filter(|e| e.kind == EventKind::Span))
    {
        let ts = chrome.get_f64("ts").unwrap();
        let dur = chrome.get_f64("dur").unwrap();
        assert!((ts - ev.sim_s * 1e6).abs() < 1e-6);
        assert!((dur - ev.sim_dur_s * 1e6).abs() < 1e-6);
        assert_eq!(
            chrome.get_f64("tid").unwrap() as usize,
            ev.rank.unwrap_or(0)
        );
    }
}
