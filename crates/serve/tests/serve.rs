//! End-to-end server tests: determinism across worker counts, batching,
//! fairness, admission control, cancellation, cache neutrality, and the
//! resilient fault path.

use fci_ddi::RankDeath;
use fci_obs::{MetricsRegistry, ObsConfig};
use fci_serve::{
    estimated_bytes, serve, serve_with, JobSpec, JobStatus, ProblemSpec, RejectReason, ServeConfig,
    ServeReport, Server,
};

fn hubbard(sites: usize, u: f64) -> ProblemSpec {
    ProblemSpec::Hubbard {
        sites,
        t: 1.0,
        u,
        periodic: false,
    }
}

/// The ISSUE's mixed workload: 6+ jobs over several spaces, two tenants,
/// excited states, a truncated-CI job, and one resilient fault job.
fn mixed_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let mut a0 = JobSpec::new("a0", hubbard(4, 4.0), 2, 2);
    a0.tenant = "alice".into();
    let mut a1 = JobSpec::new("a1", hubbard(4, 4.0), 2, 2);
    a1.tenant = "alice".into();
    a1.root = 1;
    let mut b0 = JobSpec::new("b0", hubbard(4, 2.0), 2, 2);
    b0.tenant = "bob".into();
    let mut b1 = JobSpec::new("b1", hubbard(6, 4.0), 3, 3);
    b1.tenant = "bob".into();
    b1.max_iter = 80;
    let mut c0 = JobSpec::new("c0", ProblemSpec::Random { n_orb: 5, seed: 7 }, 2, 2);
    c0.tenant = "alice".into();
    c0.excitation_level = Some(2);
    c0.batchable = false;
    let mut f0 = JobSpec::new("f0", hubbard(4, 4.0), 2, 2);
    f0.tenant = "bob".into();
    f0.resilient = true;
    f0.fault_seed = Some(11);
    f0.nproc = 2;
    f0.rank_death = Some(RankDeath {
        rank: 1,
        after_ops: 400,
    });
    jobs.extend([a0, a1, b0, b1, c0, f0]);
    jobs
}

/// Per-(test, worker-count) checkpoint dir, wiped up front: a stale
/// checkpoint from an earlier run would let a resilient job resume a
/// converged vector and skip the very fault it is meant to survive.
fn cfg(tag: &str, workers: usize) -> ServeConfig {
    let dir = std::env::temp_dir().join(format!("fci-serve-test-{tag}-{workers}"));
    let _ = std::fs::remove_dir_all(&dir);
    ServeConfig {
        workers,
        checkpoint_dir: dir,
        ..Default::default()
    }
}

/// Jobs of `report` whose status passes `is`.
fn count(report: &ServeReport, is: fn(&JobStatus) -> bool) -> usize {
    report.results.iter().filter(|r| is(&r.status)).count()
}

fn done(report: &ServeReport) -> usize {
    count(report, |s| *s == JobStatus::Done)
}

/// `cfg` with its server recording into a fresh registry, returned beside
/// it: the tallies (batches, cache hits) live there, not in the report.
fn metered(cfg: ServeConfig) -> (ServeConfig, MetricsRegistry) {
    let reg = MetricsRegistry::new();
    let obs = cfg.obs.clone().with_metrics(reg.clone());
    (ServeConfig { obs, ..cfg }, reg)
}

#[test]
fn mixed_workload_bitwise_identical_across_worker_counts() {
    let runs: Vec<Vec<(String, u64)>> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            let report = serve(cfg("det", t), mixed_jobs());
            assert_eq!(done(&report), 6, "T={t}: all jobs must finish");
            let mut e: Vec<(String, u64)> = report
                .results
                .iter()
                .map(|r| (r.id.clone(), r.energy.to_bits()))
                .collect();
            e.sort();
            e
        })
        .collect();
    assert_eq!(runs[0], runs[1], "T=1 vs T=2 energies differ");
    assert_eq!(runs[0], runs[2], "T=1 vs T=4 energies differ");
}

#[test]
fn batching_coalesces_same_space_jobs_and_matches_solo_solves() {
    // Three tenants ask for roots 0, 1, 2 of the same problem.
    let mut jobs = Vec::new();
    for root in 0..3usize {
        let mut j = JobSpec::new(format!("r{root}"), hubbard(4, 4.0), 2, 2);
        j.root = root;
        jobs.push(j);
    }
    let (config, reg) = metered(cfg("batch", 2));
    let report = serve(config, jobs.clone());
    assert_eq!(done(&report), 3);
    let batches = reg.value("serve.batches", &[]);
    assert_eq!(batches, Some(1.0), "three jobs, one block solve");
    for r in &report.results {
        assert_eq!(r.batch_size, 3);
        assert!(r.converged);
    }
    // Energies must match the unbatched path to tight tolerance.
    let (config, reg) = metered(ServeConfig {
        batching: false,
        ..cfg("batch", 1)
    });
    let solo = serve(config, jobs);
    assert_eq!(reg.value("serve.batches", &[]), None);
    assert_eq!(reg.percentile("serve.batch_size", &[], 100.0), Some(1.0));
    for (id, want) in [("r0", &solo), ("r1", &solo), ("r2", &solo)]
        .iter()
        .map(|(id, rep)| (*id, rep.result(id).unwrap().energy))
    {
        let got = report.result(id).unwrap().energy;
        assert!(
            (got - want).abs() < 1e-8,
            "{id}: batched {got} vs solo {want}"
        );
    }
    // Ordering sanity: E0 ≤ E1 ≤ E2.
    let e: Vec<f64> = (0..3)
        .map(|r| report.result(&format!("r{r}")).unwrap().energy)
        .collect();
    assert!(e[0] <= e[1] && e[1] <= e[2]);
}

#[test]
fn cache_on_off_energies_bitwise_identical() {
    let (config, on) = metered(cfg("cache-on", 2));
    let with_cache = serve(config, mixed_jobs());
    let (config, off) = metered(ServeConfig {
        cache_budget: 0,
        ..cfg("cache-off", 2)
    });
    let without = serve(config, mixed_jobs());
    let hits = |reg: &MetricsRegistry| reg.value("serve.cache_hits", &[]);
    assert!(hits(&on) > Some(0.0), "workload must share artifacts");
    assert_eq!(hits(&off), None);
    for r in &with_cache.results {
        let other = without.result(&r.id).unwrap();
        assert_eq!(
            r.energy.to_bits(),
            other.energy.to_bits(),
            "job {}: cache changed the answer",
            r.id
        );
    }
}

#[test]
fn tenant_fairness_interleaves_a_flood() {
    // alice floods 4 jobs, bob submits 2 late; credits force alternation
    // so bob's first job runs second, not fifth. With one worker the
    // dispatch order is exactly the credit-fair order, observable
    // through queue latencies.
    let mut jobs = Vec::new();
    for i in 0..4 {
        let mut j = JobSpec::new(format!("alice-{i}"), hubbard(4, 4.0 + i as f64), 2, 2);
        j.tenant = "alice".into();
        j.batchable = false;
        jobs.push(j);
    }
    for i in 0..2 {
        let mut j = JobSpec::new(format!("bob-{i}"), hubbard(4, 10.0 + i as f64), 2, 2);
        j.tenant = "bob".into();
        j.batchable = false;
        jobs.push(j);
    }
    let report = serve(cfg("fair", 1), jobs);
    assert_eq!(done(&report), 6);
    let lat = |id: &str| report.result(id).unwrap().queue_us;
    // bob-0 must start before alice's second job (fair share), and both
    // of bob's before alice's fourth.
    assert!(lat("bob-0") < lat("alice-1"), "fairness: flood starves bob");
    assert!(lat("bob-1") < lat("alice-3"));
}

#[test]
fn priority_beats_fifo() {
    let mut low = JobSpec::new("low", hubbard(4, 4.0), 2, 2);
    low.batchable = false;
    let mut high = JobSpec::new("high", hubbard(4, 8.0), 2, 2);
    high.priority = 5;
    high.batchable = false;
    let report = serve(cfg("prio", 1), vec![low, high]);
    assert!(
        report.result("high").unwrap().queue_us < report.result("low").unwrap().queue_us,
        "priority 5 should dispatch before priority 0"
    );
}

#[test]
fn backpressure_and_admission_reject_with_reason() {
    let tight = ServeConfig {
        queue_cap: 2,
        mem_budget: 64 << 20,
        ..cfg("bp", 1)
    };
    let jobs = vec![
        JobSpec::new("ok-1", hubbard(4, 4.0), 2, 2),
        // 14 orbitals, 7α7β: working-set estimate far beyond 64 MiB.
        JobSpec::new("huge", hubbard(14, 4.0), 7, 7),
        JobSpec::new("ok-2", hubbard(4, 5.0), 2, 2),
        JobSpec::new("ok-2", hubbard(4, 5.0), 2, 2), // duplicate id
        JobSpec::new("spill", hubbard(4, 6.0), 2, 2), // queue full
    ];
    let report = serve(tight, jobs);
    assert_eq!(done(&report), 2);
    assert_eq!(report.rejected.len(), 3);
    let reason = |id: &str| {
        report
            .rejected
            .iter()
            .find(|(rid, _)| rid == id)
            .map(|(_, why)| why.clone())
            .unwrap()
    };
    assert!(matches!(reason("huge"), RejectReason::MemoryBudget { .. }));
    assert_eq!(reason("ok-2"), RejectReason::DuplicateId);
    assert!(matches!(reason("spill"), RejectReason::QueueFull { .. }));
}

#[test]
fn hostile_sector_specs_are_rejected_and_a_good_job_still_runs() {
    // Sectors the solver would assert on: a nonzero irrep of a C1
    // problem, and no α electrons.
    let mut irrep = JobSpec::new("irrep-1", hubbard(4, 4.0), 2, 2);
    irrep.target_irrep = 1;
    let jobs = vec![
        irrep,
        JobSpec::new("no-alpha", hubbard(4, 4.0), 0, 2),
        JobSpec::new("no-electrons", hubbard(4, 4.0), 0, 0),
        JobSpec::new("good", hubbard(4, 4.0), 2, 2),
    ];
    let report = serve(cfg("hostile", 2), jobs);
    assert_eq!(report.rejected.len(), 3, "{:?}", report.rejected);
    for (id, why) in &report.rejected {
        assert_eq!(why.code(), "invalid", "{id}: {why}");
    }
    let good = report.result("good").expect("good job answered");
    assert_eq!(good.status, JobStatus::Done);
    assert!(good.converged);
}

#[test]
fn sparse_job_passes_admission_where_dense_is_rejected() {
    use fci_core::SolverKind;
    // Same sector, two engines. The sparse estimate is bounded by its
    // determinant-store cap, not the formal dimension…
    let mut dense = JobSpec::new("dense", hubbard(6, 4.0), 3, 3);
    dense.batchable = false;
    let mut sparse = dense.clone();
    sparse.id = "sparse".into();
    sparse.solver = SolverKind::SparseSelected;
    sparse.sparse_cap = 500; // ≥ the 400-determinant sector: exact
    sparse.eps = 1e-10;
    let (need_dense, need_sparse) = (estimated_bytes(&dense), estimated_bytes(&sparse));
    assert!(
        need_sparse < need_dense,
        "sparse estimate {need_sparse} must undercut dense {need_dense}"
    );
    // …so a budget between the two admits the sparse job and rejects the
    // dense one. This is the regression the sparse branch exists for.
    let tight = ServeConfig {
        mem_budget: need_sparse,
        ..cfg("sparse-admit", 1)
    };
    let report = serve(tight, vec![dense.clone(), sparse]);
    assert_eq!(done(&report), 1);
    assert_eq!(report.rejected.len(), 1);
    assert!(matches!(
        report.rejected[0].1,
        RejectReason::MemoryBudget { .. }
    ));
    let r = report.result("sparse").unwrap();
    assert_eq!(r.status, JobStatus::Done);
    assert!(r.converged);
    // And the admitted sparse solve is the real answer: it matches the
    // dense engine run under an unconstrained budget to μHa accuracy.
    let reference = serve(cfg("sparse-admit-ref", 1), vec![dense]);
    let e_ref = reference.result("dense").unwrap().energy;
    assert!(
        (r.energy - e_ref).abs() < 1e-6,
        "sparse {} vs dense {e_ref}",
        r.energy
    );
}

#[test]
fn cdfci_job_runs_end_to_end() {
    use fci_core::SolverKind;
    let mut j = JobSpec::new("cd", hubbard(6, 4.0), 3, 3);
    j.solver = SolverKind::SparseCdfci;
    j.tol = 1e-10;
    let reference = serve(
        cfg("cdfci-ref", 1),
        vec![JobSpec::new("d", hubbard(6, 4.0), 3, 3)],
    );
    let report = serve(cfg("cdfci", 2), vec![j]);
    let r = report.result("cd").unwrap();
    assert_eq!(r.status, JobStatus::Done);
    let e_ref = reference.result("d").unwrap().energy;
    assert!(
        (r.energy - e_ref).abs() < 1e-6,
        "cdfci {} vs dense {e_ref}",
        r.energy
    );
}

#[test]
fn cancellation_and_graceful_shutdown() {
    // Deterministic lifecycle: everything happens before workers start.
    let server = fci_serve::Server::new(cfg("cancel", 1));
    for i in 0..5 {
        let mut j = JobSpec::new(format!("j{i}"), hubbard(4, 3.0 + i as f64), 2, 2);
        j.batchable = false;
        server.submit(j).unwrap();
    }
    assert!(server.cancel("j4"), "queued job should cancel");
    assert!(!server.cancel("nope"), "unknown id cannot cancel");
    assert!(!server.cancel("j4"), "double cancel is a no-op");
    server.shutdown();
    // Post-shutdown submissions bounce.
    assert!(server
        .submit(JobSpec::new("late", hubbard(4, 4.0), 2, 2))
        .is_err());
    server.run(1); // returns immediately: nothing left to do
    let report = server.into_report();
    let status = |id: &str| report.result(id).unwrap().status.clone();
    assert_eq!(status("j4"), JobStatus::Cancelled);
    for i in 0..4 {
        assert_eq!(status(&format!("j{i}")), JobStatus::Shutdown);
    }
    assert_eq!(report.results.len(), 5);
    assert_eq!(done(&report), 0);
    assert_eq!(report.rejected.len(), 1);
}

#[test]
fn shutdown_mid_drain_completes_in_flight_work() {
    // Racy by nature (ctl runs while a worker drains), so assert the
    // invariants that must hold at *any* interleaving: every job ends
    // Done or Shutdown, nothing fails, nothing is lost.
    let mut jobs = Vec::new();
    for i in 0..5 {
        let mut j = JobSpec::new(format!("j{i}"), hubbard(6, 3.0 + i as f64), 3, 3);
        j.batchable = false;
        jobs.push(j);
    }
    let report = serve_with(cfg("mid-drain", 1), jobs, |server| server.shutdown());
    let abandoned = count(&report, |s| *s == JobStatus::Shutdown);
    assert_eq!(report.results.len(), 5);
    assert_eq!(done(&report) + abandoned, 5);
    for r in &report.results {
        if r.status == JobStatus::Done {
            assert!(r.converged, "{} completed but did not converge", r.id);
        }
    }
}

#[test]
fn resilient_fault_job_survives_and_matches_reference() {
    // Reference: clean solve of the same problem.
    let clean = serve(
        cfg("resil-ref", 1),
        vec![JobSpec::new("ref", hubbard(4, 4.0), 2, 2)],
    );
    let e_ref = clean.result("ref").unwrap().energy;
    let mut f = JobSpec::new("fault", hubbard(4, 4.0), 2, 2);
    f.resilient = true;
    f.nproc = 2;
    f.fault_seed = Some(11);
    f.rank_death = Some(RankDeath {
        rank: 1,
        after_ops: 400,
    });
    let report = serve(cfg("resil", 2), vec![f]);
    let r = report.result("fault").unwrap();
    assert_eq!(r.status, JobStatus::Done);
    assert!(r.converged);
    assert!(r.restarts >= 1, "rank death must force a restart");
    assert!(
        (r.energy - e_ref).abs() < 1e-9,
        "resilient {} vs clean {e_ref}",
        r.energy
    );
}

#[test]
fn serve_events_roll_up_into_the_metrics_plane() {
    let (config, reg) = metered(ServeConfig {
        obs: ObsConfig::in_memory(),
        ..cfg("events", 2)
    });
    let report = serve_with(config, mixed_jobs(), |server| {
        // Drain happens via scope exit; nothing to control here — but
        // grab the live event stream to prove it is wired.
        assert!(server.events().is_some());
    });
    assert_eq!(done(&report), 6);
    assert!(reg.value("serve.cache_hits", &[]) > Some(0.0));
    for tenant in ["alice", "bob"] {
        let by = [("tenant", tenant)];
        assert_eq!(reg.value("serve.jobs_done", &by), Some(3.0), "{tenant}");
        let wait = |q| reg.percentile("serve.queue_wait_us", &by, q).unwrap();
        assert!(wait(90.0) >= wait(50.0));
    }
}

/// A half-filled dense Hubbard job of `n` sites.
fn half_filled(n: usize) -> JobSpec {
    let mut j = JobSpec::new(format!("h{n}"), hubbard(n, 4.0), n / 2, n / 2);
    j.batchable = false;
    j
}

/// The admission estimate saturates instead of wrapping: it never falls
/// as a half-filled sector grows, and a 56- or 64-orbital dense job is
/// refused by the default budget. Jobs are only submitted, never run.
#[test]
fn hopeless_dense_sectors_are_refused_by_the_memory_budget() {
    let need: Vec<usize> = (8..=64).map(|n| estimated_bytes(&half_filled(n))).collect();
    for (n, pair) in (9..).zip(need.windows(2)) {
        assert!(
            pair[1] >= pair[0],
            "estimate falls from n = {} to {n}",
            n - 1
        );
    }
    let server = Server::new(cfg("hopeless", 1));
    for n in [56, 64] {
        let why = server.submit(half_filled(n)).unwrap_err();
        assert!(
            matches!(why, RejectReason::MemoryBudget { .. }),
            "n = {n}: {why}"
        );
    }
    assert_eq!(server.stats().pending, 0);
}

/// `nproc` is checked at admission: zero ranks cannot run and more than
/// 432 is no committed run's size, for dense and sparse jobs alike. Jobs
/// are only submitted: a refused one never starts a world or a thread.
#[test]
fn processor_counts_outside_one_to_432_are_refused() {
    use fci_core::SolverKind;
    let server = Server::new(cfg("nproc", 1));
    for solver in [SolverKind::Dense, SolverKind::SparseCdfci] {
        for nproc in [0, 433, 1_000_000] {
            let mut j = JobSpec::new(format!("{solver:?}-{nproc}"), hubbard(4, 4.0), 2, 2);
            j.solver = solver;
            j.nproc = nproc;
            let why = server.submit(j).unwrap_err();
            assert_eq!(why.code(), "invalid", "nproc {nproc}: {why}");
        }
    }
    let mut largest = JobSpec::new("432", hubbard(4, 4.0), 2, 2);
    largest.nproc = 432;
    assert_eq!(server.submit(largest), Ok(()));
    server.shutdown();
}

/// A log can hold a job that admission refuses — written before
/// admission refused it, here with `nproc: 0`, which no world can run.
/// Recovery refuses it again with its reason instead of queueing it, and
/// leaves a terminal record, so the next recovery finds it neither
/// pending nor to refuse; the job beside it runs, once.
#[test]
fn recovery_refuses_a_logged_job_that_admission_refuses() {
    use fci_serve::{Wal, WalRecord};
    let cfg = cfg("recover-refuses", 1);
    let path = cfg.checkpoint_dir.join("serve.wal");
    std::fs::create_dir_all(&cfg.checkpoint_dir).unwrap();
    let mut bad = JobSpec::new("bad", hubbard(4, 4.0), 2, 2);
    bad.nproc = 0;
    let good = JobSpec::new("good", hubbard(4, 4.0), 2, 2);
    {
        let (mut wal, _) = Wal::open(&path).unwrap();
        for spec in [bad, good] {
            let rec = WalRecord::Submitted {
                spec: Box::new(spec),
            };
            wal.append(&rec).unwrap();
        }
    }
    let cfg = ServeConfig {
        wal_path: Some(path),
        ..cfg
    };
    for restart in 0..2 {
        let (server, replay) = Server::recover(cfg.clone()).unwrap();
        let pending: Vec<&str> = replay.pending.iter().map(|j| j.id.as_str()).collect();
        assert_eq!(pending, ["good"][..1 - restart], "restart {restart}");
        server.close();
        server.run(1);
        let report = server.into_report();
        if restart == 0 {
            let [(id, why)] = &report.rejected[..] else {
                panic!("refusals: {:?}", report.rejected);
            };
            assert_eq!((id.as_str(), why.code()), ("bad", "invalid"));
            assert!(why.to_string().contains("0 processors"), "{why}");
            assert_eq!(replay.rejected, [("bad".into(), why.to_string())]);
        } else {
            assert!(report.rejected.is_empty(), "{:?}", report.rejected);
        }
        let ids: Vec<&str> = report.results.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, ["good"], "restart {restart}");
        assert_eq!(report.results[0].status, JobStatus::Done);
    }
}
