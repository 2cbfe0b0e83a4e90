//! Chaos suite: full solves under seeded fault schedules.
//!
//! Every schedule drives the production solver (via
//! `solve_resilient`) through a deterministic, replayable fault plan —
//! transient comm faults, data corruption, permanent rank death,
//! kill-and-restart — and asserts the three recovery invariants:
//!
//! 1. the recovered energy matches the fault-free reference to 1e-9;
//! 2. the happens-before race detector is clean on the recovery paths
//!    (retries and recomputes replay the *same* protocol, so the trace
//!    must look like a fault-free run);
//! 3. the run telemetry accounts for the faults (retries in the
//!    `RunSummary`, injection counts and recomputes in the trace's
//!    metrics replay).

use fci_check::RaceDetector;
use fci_core::{
    apply_sigma, solve, solve_resilient, DetSpace, FciOptions, Hamiltonian, PoolParams,
    RecoveryOptions, SigmaCtx, SigmaMethod,
};
use fci_ddi::{Backend, CheckConfig, Ddi, FaultConfig, FaultPlan, FaultStats, RankDeath};
use fci_obs::{parse_jsonl_lenient, MetricsRegistry, ObsConfig, RunSummary};
use fci_scf::MoIntegrals;
use fci_xsim::MachineModel;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("fcix-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    let p = d.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

fn base_opts(nproc: usize, backend: Backend) -> FciOptions {
    FciOptions {
        nproc,
        backend,
        method: fci_core::DiagMethod::Davidson,
        diag: fci_core::DiagOptions {
            max_iter: 150,
            model_space: 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn reference_energy(nproc: usize) -> f64 {
    let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
    let r = solve(&mo, 2, 2, 0, &base_opts(nproc, Backend::Serial));
    assert!(r.converged);
    r.energy
}

/// Everything one chaos schedule produces.
struct ChaosRun {
    energy: f64,
    converged: bool,
    restarts: usize,
    stats: fci_ddi::FaultStats,
    races: Vec<fci_check::RaceReport>,
    summary: RunSummary,
    /// The trace's `fcix_fault_*` series, as `fcix trace metrics` prints them.
    fault_series: Vec<String>,
}

impl ChaosRun {
    /// Sum of the replayed `fault.<name>` series over every label set.
    fn faults(&self, name: &str) -> f64 {
        let prefix = format!("fcix_fault_{name}");
        let series = self.fault_series.iter();
        series
            .filter(|l| l.split(['{', ' ']).next() == Some(prefix.as_str()))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    }
}

/// Run one schedule end to end: resilient solve + race detector +
/// telemetry trace, all on.
fn run_schedule(name: &str, cfg: FaultConfig, nproc: usize, backend: Backend) -> ChaosRun {
    let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
    run_schedule_on(&mo, (2, 2), name, Some(cfg), nproc, backend)
}

/// [`run_schedule`] on `mo` with `(Nα, Nβ)` electrons; `None` runs the
/// resilient solve with no fault plan at all.
fn run_schedule_on(
    mo: &MoIntegrals,
    (na, nb): (usize, usize),
    name: &str,
    cfg: Option<FaultConfig>,
    nproc: usize,
    backend: Backend,
) -> ChaosRun {
    let detector = Arc::new(RaceDetector::new());
    let trace = tmp(&format!("{name}.trace.jsonl"));
    let mut opts = base_opts(nproc, backend);
    opts.fault = cfg;
    opts.check = CheckConfig::online(detector.clone());
    opts.obs = ObsConfig::to_file(&trace);
    let rec = RecoveryOptions::new(tmp(&format!("{name}.ckp")));
    let r = solve_resilient(mo, na, nb, 0, &opts, &rec).expect("resilient solve failed");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let (events, warn) = parse_jsonl_lenient(&text).expect("trace parses");
    assert!(warn.is_none(), "{warn:?}");
    let fault_series = MetricsRegistry::from_events(&events)
        .render_text()
        .lines()
        .filter(|l| l.starts_with("fcix_fault_"))
        .map(String::from)
        .collect();
    ChaosRun {
        energy: r.fci.energy,
        converged: r.fci.converged,
        restarts: r.restarts,
        stats: r.fault_stats,
        races: detector.races(),
        summary: RunSummary::from_events(&events),
        fault_series,
    }
}

fn assert_recovered(name: &str, run: &ChaosRun, e_ref: f64) {
    assert!(run.converged, "{name}: did not converge");
    assert!(
        (run.energy - e_ref).abs() <= 1e-9,
        "{name}: recovered energy {} vs reference {e_ref} (err {:.3e})",
        run.energy,
        (run.energy - e_ref).abs()
    );
    assert!(
        run.races.is_empty(),
        "{name}: recovery path raced: {:?}",
        run.races
    );
}

// ---- schedule 1: control (no faults): fast path, nothing injected ----

#[test]
fn schedule_00_quiet_control() {
    let e_ref = reference_energy(3);
    let run = run_schedule("s00-quiet", FaultConfig::quiet(1), 3, Backend::Serial);
    assert_recovered("s00-quiet", &run, e_ref);
    assert_eq!(run.stats.injected(), 0);
    assert_eq!(run.stats.retries, 0);
    assert!(run.fault_series.is_empty(), "{:?}", run.fault_series);
    assert_eq!(run.summary.retries, 0.0);
}

// ---- transient comm faults ----

#[test]
fn schedule_01_dropped_transfers() {
    let e_ref = reference_energy(3);
    let cfg = FaultConfig {
        p_drop: 0.08,
        ..FaultConfig::quiet(101)
    };
    let run = run_schedule("s01-drops", cfg, 3, Backend::Serial);
    assert_recovered("s01-drops", &run, e_ref);
    assert!(run.stats.drops > 0, "schedule never fired");
    assert!(run.stats.retries > 0, "drops were not retried");
    assert!(run.faults("injected") > 0.0, "telemetry missed faults");
    assert!(run.summary.retries > 0.0, "telemetry missed retries");
}

#[test]
fn schedule_02_duplicated_transfers() {
    let e_ref = reference_energy(3);
    let cfg = FaultConfig {
        p_duplicate: 0.10,
        ..FaultConfig::quiet(202)
    };
    let run = run_schedule("s02-dups", cfg, 3, Backend::Serial);
    assert_recovered("s02-dups", &run, e_ref);
    assert!(run.stats.duplicates > 0, "schedule never fired");
    assert!(
        run.stats.dup_discards > 0,
        "duplicate deliveries were not discarded"
    );
}

#[test]
fn schedule_03_stalls_and_fence_delays() {
    let e_ref = reference_energy(3);
    let cfg = FaultConfig {
        p_stall: 0.05,
        p_fence_delay: 0.05,
        ..FaultConfig::quiet(303)
    };
    let run = run_schedule("s03-stalls", cfg, 3, Backend::Serial);
    assert_recovered("s03-stalls", &run, e_ref);
    assert!(
        run.stats.stalls + run.stats.fence_delays > 0,
        "schedule never fired"
    );
}

// ---- data corruption ----

#[test]
fn schedule_04_corrupted_payloads() {
    let e_ref = reference_energy(3);
    let cfg = FaultConfig {
        p_corrupt: 0.08,
        ..FaultConfig::quiet(404)
    };
    let run = run_schedule("s04-corrupt", cfg, 3, Backend::Serial);
    assert_recovered("s04-corrupt", &run, e_ref);
    assert!(run.stats.corruptions > 0, "schedule never fired");
    assert!(run.stats.retries > 0, "corruptions were not caught by CRC");
}

#[test]
fn schedule_05_poisoned_sigma_tasks() {
    let e_ref = reference_energy(3);
    let cfg = FaultConfig {
        p_poison: 0.05,
        ..FaultConfig::quiet(505)
    };
    let run = run_schedule("s05-poison", cfg, 3, Backend::Serial);
    assert_recovered("s05-poison", &run, e_ref);
    assert!(run.stats.poisoned_tasks > 0, "schedule never fired");
    assert!(
        run.stats.recomputes > 0,
        "poisoned tasks were not recomputed"
    );
    assert!(
        run.faults("recomputes") > 0.0,
        "telemetry missed the recomputes"
    );
}

/// A 6-site chain, whose Ĝ and all of V but `(p, p)` the σ kernels
/// screen out, under poisoned σ tasks: every poisoned task is recomputed,
/// the energy keeps the fault-free bits, and the recompute count is the
/// one recorded before the kernels screened anything.
#[test]
fn schedule_11_poisoned_tasks_on_a_screened_chain() {
    let mo = MoIntegrals::hubbard_chain(6, 1.0, 4.0, true);
    let quiet = run_schedule_on(&mo, (3, 3), "s11-quiet", None, 3, Backend::Serial);
    let cfg = FaultConfig {
        p_poison: 0.05,
        ..FaultConfig::quiet(1111)
    };
    let run = run_schedule_on(&mo, (3, 3), "s11-poison", Some(cfg), 3, Backend::Serial);
    assert!(quiet.converged && run.converged);
    assert_eq!(
        run.energy.to_bits(),
        quiet.energy.to_bits(),
        "s11: energy bits moved"
    );
    assert!(
        run.races.is_empty(),
        "s11: recovery path raced: {:?}",
        run.races
    );
    assert_eq!(run.stats.recomputes, run.stats.poisoned_tasks);
    assert_eq!(run.faults("recomputes"), run.stats.recomputes as f64);
    assert_eq!(run.stats.recomputes, 84, "s11: recompute count drifted");
}

// ---- permanent rank death ----

#[test]
fn schedule_06_rank_death() {
    let e_ref = reference_energy(4);
    let cfg = FaultConfig {
        rank_death: Some(RankDeath {
            rank: 2,
            after_ops: 500,
        }),
        ..FaultConfig::quiet(606)
    };
    let run = run_schedule("s06-death", cfg, 4, Backend::Serial);
    assert_recovered("s06-death", &run, e_ref);
    assert_eq!(run.stats.rank_deaths, 1);
    assert_eq!(run.restarts, 1, "death did not force a world rebuild");
}

#[test]
fn schedule_07_rank_death_with_transient_storm() {
    // The hard one: a rank dies while transient faults are also firing.
    let e_ref = reference_energy(4);
    let cfg = FaultConfig {
        p_drop: 0.05,
        p_corrupt: 0.05,
        p_duplicate: 0.05,
        rank_death: Some(RankDeath {
            rank: 1,
            after_ops: 800,
        }),
        ..FaultConfig::quiet(707)
    };
    let run = run_schedule("s07-death-storm", cfg, 4, Backend::Serial);
    assert_recovered("s07-death-storm", &run, e_ref);
    assert_eq!(run.stats.rank_deaths, 1);
    assert!(run.stats.retries > 0);
    assert!(run.faults("injected") > 0.0);
}

// ---- kill-and-restart ----

#[test]
fn schedule_08_kill_and_restart_under_faults() {
    // Phase 1: solve under faults, "killed" after a few iterations
    // (max_iter budget runs out before convergence).
    let e_ref = reference_energy(2);
    let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
    let ckp = tmp("s08-restart.ckp");
    let faults = FaultConfig {
        p_drop: 0.06,
        p_corrupt: 0.04,
        ..FaultConfig::quiet(808)
    };
    let mut first = base_opts(2, Backend::Serial);
    first.fault = Some(faults.clone());
    first.diag.max_iter = 6;
    let partial = solve_resilient(&mo, 2, 2, 0, &first, &RecoveryOptions::new(&ckp)).unwrap();
    assert!(!partial.fci.converged, "kill point never reached");
    assert!(ckp.exists(), "no checkpoint survived the kill");

    // Phase 2: a fresh process resumes from the checkpoint, still under
    // fire, and must land on the reference energy.
    let detector = Arc::new(RaceDetector::new());
    let mut second = base_opts(2, Backend::Serial);
    second.fault = Some(faults);
    second.check = CheckConfig::online(detector.clone());
    let resumed = solve_resilient(&mo, 2, 2, 0, &second, &RecoveryOptions::new(&ckp)).unwrap();
    assert!(resumed.fci.converged);
    assert!(
        (resumed.fci.energy - e_ref).abs() <= 1e-9,
        "s08-restart: {} vs {e_ref}",
        resumed.fci.energy
    );
    let races = detector.races();
    assert!(races.is_empty(), "restart recovery raced: {races:?}");
}

// ---- threads backend: real concurrency on the recovery paths ----

#[test]
fn schedule_09_transient_storm_threads_backend() {
    let e_ref = reference_energy(4);
    let cfg = FaultConfig {
        p_drop: 0.05,
        p_duplicate: 0.05,
        p_corrupt: 0.05,
        p_poison: 0.03,
        ..FaultConfig::quiet(909)
    };
    let run = run_schedule("s09-threads", cfg, 4, Backend::Threads);
    assert_recovered("s09-threads", &run, e_ref);
    assert!(run.stats.injected() > 0, "schedule never fired");
}

#[test]
fn schedule_10_rank_death_threads_backend() {
    let e_ref = reference_energy(4);
    let cfg = FaultConfig {
        p_drop: 0.03,
        rank_death: Some(RankDeath {
            rank: 3,
            after_ops: 600,
        }),
        ..FaultConfig::quiet(1010)
    };
    let run = run_schedule("s10-death-threads", cfg, 4, Backend::Threads);
    assert_recovered("s10-death-threads", &run, e_ref);
    assert_eq!(run.stats.rank_deaths, 1);
    assert_eq!(run.restarts, 1);
}

// ---- determinism: the same seed replays the same schedule ----

#[test]
fn schedules_are_deterministic() {
    let cfg = FaultConfig {
        p_drop: 0.08,
        p_corrupt: 0.05,
        ..FaultConfig::quiet(4242)
    };
    let a = run_schedule("det-a", cfg.clone(), 3, Backend::Serial);
    let b = run_schedule("det-b", cfg, 3, Backend::Serial);
    assert_eq!(a.energy.to_bits(), b.energy.to_bits());
    assert_eq!(a.stats.drops, b.stats.drops);
    assert_eq!(a.stats.corruptions, b.stats.corruptions);
    assert_eq!(a.stats.retries, b.stats.retries);
}

/// Replay pin for the checked-delivery path. One σ application per
/// algorithm under a fixed-seed heavy-fault plan on the serial backend:
/// the plan's op count, its injection/recovery counters and the traffic
/// charged to the ranks' clocks were recorded before the per-op retry
/// loops were merged into one, and move if the order or number of
/// `note_op` calls or fault draws ever does.
#[test]
fn heavy_fault_sigma_replays_recorded_counts() {
    let ham = Hamiltonian::new(&MoIntegrals::hubbard_chain(6, 1.0, 4.0, false));
    let space = DetSpace::for_hamiltonian(&ham, 3, 3, 0);
    let model = MachineModel::cray_x1();
    let nproc = 4;
    let c = space.zeros_ci(nproc);
    c.map_inplace(|ib, ia, _| ((ib * 31 + ia * 17) % 13) as f64 - 6.0);
    let sigma_under = |method, plan: Option<Arc<FaultPlan>>| {
        let ddi = Ddi::new(nproc, Backend::Serial);
        if let Some(plan) = plan {
            ddi.attach_faults(plan);
        }
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let (sigma, cost) = apply_sigma(&ctx, &c.duplicate(), method);
        (sigma.to_dense(), cost.total())
    };
    for (method, ops, faults, traffic) in [
        (
            SigmaMethod::Dgemm,
            139,
            FaultStats {
                drops: 26,
                duplicates: 14,
                corruptions: 19,
                stalls: 4,
                fence_delays: 10,
                retries: 45,
                dup_discards: 14,
                ..FaultStats::default()
            },
            [39_840u64, 190, 60, 19, 45],
        ),
        (
            SigmaMethod::Moc,
            240,
            FaultStats {
                drops: 50,
                duplicates: 14,
                corruptions: 39,
                fence_delays: 14,
                retries: 89,
                dup_discards: 14,
                ..FaultStats::default()
            },
            [74_880, 243, 240, 0, 89],
        ),
    ] {
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            seed: 20_260_930,
            p_drop: 0.2,
            p_corrupt: 0.2,
            p_duplicate: 0.15,
            p_stall: 0.1,
            p_fence_delay: 0.1,
            ..FaultConfig::default()
        }));
        let (sigma, cost) = sigma_under(method, Some(plan.clone()));
        let (clean, _) = sigma_under(method, None);
        assert_eq!(sigma, clean, "{method:?}: recovered σ is not bitwise exact");
        let retries: f64 = cost.clocks.iter().map(|ck| ck.retries).sum();
        // Net bytes, net messages, lock acquisitions, counter ops, resends.
        let got = [
            cost.total_net_bytes() as u64,
            cost.total_net_msgs() as u64,
            cost.total_lock_acquires() as u64,
            cost.total_nxtval_msgs() as u64,
            retries as u64,
        ];
        assert_eq!(plan.ops(), ops, "{method:?}: op count drifted");
        assert_eq!(plan.stats(), faults, "{method:?}: fault draws drifted");
        assert_eq!(got, traffic, "{method:?}: charged traffic drifted");
    }
}
