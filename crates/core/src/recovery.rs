//! Checkpointed, self-healing solves.
//!
//! The paper's production runs hold hundreds of MSPs for hours; the
//! recovery story there is the classic one — checkpoint the single
//! current CI vector every iteration and restart the job. This module
//! automates that loop against the `fci-fault` plane:
//!
//! * the solve runs in *chunks* of `save_every` iterations, saving the
//!   CI vector (CRC-protected, see [`crate::checkpoint`]) after every
//!   clean chunk;
//! * transient comm faults are invisible here — the checked DDI paths
//!   retry them away inside the chunk;
//! * a **permanent rank death** (fired by the plan's op-counter clock)
//!   taints the chunk in flight: its output is discarded (the dead
//!   rank's column block is gone), the world is rebuilt over the
//!   survivors — column ownership and the mixed-spin task pool
//!   redistribute automatically, since both are derived from `nproc` —
//!   and the solve resumes from the last good checkpoint;
//! * an existing checkpoint at start seeds the run (resume-on-restart
//!   after a kill).

use crate::checkpoint::{load_ci, save_ci};
use crate::detspace::DetSpace;
use crate::diag::{diagonalize_with, guess, preconditioner, DiagOptions};
use crate::hamiltonian::Hamiltonian;
use crate::sigma::{SigmaBreakdown, SigmaCtx};
use crate::solver::{build_space, fci_result, open_world, FciOptions, FciResult};
use crate::taskpool::PoolParams;
use fci_ddi::{FaultConfig, FaultPlan, FaultStats};
use fci_scf::MoIntegrals;
use fci_xsim::MachineModel;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Knobs of the checkpoint/restart loop.
#[derive(Clone, Debug)]
pub struct RecoveryOptions {
    /// Checkpoint file. If it exists when the solve starts, the run
    /// resumes from it instead of the model-space guess.
    pub checkpoint: PathBuf,
    /// Iterations per chunk between checkpoints.
    pub save_every: usize,
    /// Rank deaths survived before giving up.
    pub max_restarts: usize,
}

impl RecoveryOptions {
    /// Defaults: checkpoint at `path`, save every 4 iterations, survive
    /// up to 3 rank deaths.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        RecoveryOptions {
            checkpoint: path.into(),
            save_every: 4,
            max_restarts: 3,
        }
    }

    /// Defaults with a checkpoint path namespaced per job: `dir/ckp-<job
    /// id>-<space hash>.ckp`, with the job id sanitized to filename-safe
    /// characters. Two concurrent resilient solves in one process must
    /// never share a checkpoint file — a shared path would interleave
    /// their `save_ci` renames and resume one job from the other's
    /// vector — so anything driving more than one solve (the `fci-serve`
    /// worker pool) derives paths through this constructor.
    pub fn for_job(dir: impl Into<PathBuf>, job_id: &str, space_hash: u64) -> Self {
        let safe = filename_safe(job_id);
        Self::new(dir.into().join(format!("ckp-{safe}-{space_hash:016x}.ckp")))
    }
}

/// `id` with every character outside `[A-Za-z0-9._-]` replaced by `_`, so
/// a hostile job id names a file instead of escaping the directory.
pub fn filename_safe(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Outcome of a resilient solve.
#[derive(Debug)]
pub struct ResilientResult {
    /// The solve outcome; `iterations` and the histories span all
    /// chunks and restarts (σ evaluations of discarded chunks are not
    /// counted — their work died with the rank).
    pub fci: FciResult,
    /// World rebuilds forced by rank death.
    pub restarts: usize,
    /// Ranks lost over the run.
    pub ranks_lost: usize,
    /// Fault-plane counters at the end of the run.
    pub fault_stats: FaultStats,
}

/// Like [`crate::solve`], but checkpointed every `save_every` iterations
/// and able to survive the fault plan's permanent rank death by
/// rebuilding the world over the survivors and resuming from the last
/// checkpoint.
///
/// Errors are I/O only (checkpoint read/write) plus exhaustion of
/// `max_restarts`.
pub fn solve_resilient(
    mo: &MoIntegrals,
    n_alpha: usize,
    n_beta: usize,
    target_irrep: u8,
    opts: &FciOptions,
    rec: &RecoveryOptions,
) -> io::Result<ResilientResult> {
    let ham = Hamiltonian::new(mo);
    let space = build_space(&ham, n_alpha, n_beta, target_irrep, opts.excitation_level);
    solve_resilient_prepared(&space, &ham, opts, rec)
}

/// Like [`solve_resilient`], but over a prebuilt determinant space and
/// Hamiltonian (the `fci-serve` cache reuse hook; see
/// [`crate::solver::solve_prepared`]).
pub fn solve_resilient_prepared(
    space: &DetSpace,
    ham: &Hamiltonian,
    opts: &FciOptions,
    rec: &RecoveryOptions,
) -> io::Result<ResilientResult> {
    assert!(rec.save_every >= 1, "save_every must be at least 1");
    // One plan for the whole run: the op counter, rng stream, and death
    // latch persist across world rebuilds.
    let plan = Arc::new(FaultPlan::new(
        opts.fault.clone().unwrap_or_else(|| FaultConfig::quiet(1)),
    ));
    let tracer = opts.obs.tracer_or_warn();

    let mut nproc = opts.nproc;
    let mut restarts = 0usize;
    let mut ranks_lost = 0usize;
    let mut total_iters = 0usize;
    let mut energy_history: Vec<f64> = Vec::new();
    let mut residual_history: Vec<f64> = Vec::new();
    let mut sigma_cost = SigmaBreakdown::default();
    let mut have_ckp = rec.checkpoint.exists();

    'world: loop {
        let ddi = open_world(opts, nproc, Some(&plan), &tracer);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space,
            ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        // One preconditioner per world: every chunk of this world reads it.
        let pre = preconditioner(&ctx, opts.diag.model_space);
        let mut c0 = if have_ckp {
            load_ci(&rec.checkpoint, space, nproc)?
        } else {
            guess(&ctx, &pre)
        };
        if !have_ckp {
            // Checkpoint the starting vector so a death inside the very
            // first chunk still has something to fall back to.
            save_ci(&rec.checkpoint, &c0)?;
            have_ckp = true;
        }
        loop {
            let budget = (opts.diag.max_iter - total_iters).min(rec.save_every);
            let chunk = diagonalize_with(
                &ctx,
                opts.sigma,
                opts.method,
                &DiagOptions {
                    max_iter: budget,
                    ..opts.diag
                },
                &pre,
                c0,
            );
            if plan.dead_rank().is_some() {
                // The chunk ran through a rank death: its data is lost
                // with the rank. Discard it, shrink the world to the
                // survivors, and resume from the last good checkpoint.
                if restarts >= rec.max_restarts {
                    return Err(io::Error::other(format!(
                        "rank died and the restart budget ({}) is exhausted",
                        rec.max_restarts
                    )));
                }
                restarts += 1;
                ranks_lost += 1;
                nproc = (nproc - 1).max(1);
                plan.acknowledge_death();
                // Simulated seconds of work the death threw away: the
                // discarded chunk's wall-clock (recomputed from the
                // checkpoint after the restart).
                let lost_s = chunk.sigma_cost.total().elapsed();
                tracer.instant(
                    None,
                    "rank_death_recovery",
                    fci_obs::Category::Other,
                    &[
                        ("survivors", nproc as f64),
                        ("restart", restarts as f64),
                        ("lost_s", lost_s),
                    ],
                );
                continue 'world;
            }
            total_iters += chunk.iterations;
            energy_history.extend(&chunk.energy_history);
            residual_history.extend(&chunk.residual_history);
            sigma_cost.merge(&chunk.sigma_cost);
            save_ci(&rec.checkpoint, &chunk.c)?;
            if chunk.converged || total_iters >= opts.diag.max_iter {
                let mut d = chunk;
                d.iterations = total_iters;
                d.energy_history = energy_history;
                d.residual_history = residual_history;
                tracer.flush();
                return Ok(ResilientResult {
                    // `sigma_cost` already includes the final chunk.
                    fci: fci_result(space, ham, d, sigma_cost),
                    restarts,
                    ranks_lost,
                    fault_stats: plan.stats(),
                });
            }
            c0 = chunk.c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagMethod;
    use crate::solver::solve;
    use fci_ddi::RankDeath;
    use std::path::Path;

    fn ckp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("fcix-rec-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn base_opts(nproc: usize) -> FciOptions {
        FciOptions {
            nproc,
            method: DiagMethod::Davidson,
            diag: DiagOptions {
                max_iter: 120,
                model_space: 24,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn fault_free_resilient_matches_plain_solve() {
        let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
        let plain = solve(&mo, 2, 2, 0, &base_opts(3));
        let r = solve_resilient(
            &mo,
            2,
            2,
            0,
            &base_opts(3),
            &RecoveryOptions::new(ckp("clean.ckp")),
        )
        .unwrap();
        assert!(r.fci.converged);
        assert_eq!(r.restarts, 0);
        assert_eq!(r.fault_stats.injected(), 0);
        assert!((r.fci.energy - plain.energy).abs() < 1e-9);
    }

    #[test]
    fn survives_rank_death_mid_solve() {
        let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
        let plain = solve(&mo, 2, 2, 0, &base_opts(4));
        let mut opts = base_opts(4);
        opts.fault = Some(FaultConfig {
            seed: 11,
            rank_death: Some(RankDeath {
                rank: 2,
                after_ops: 400,
            }),
            ..FaultConfig::default()
        });
        let r =
            solve_resilient(&mo, 2, 2, 0, &opts, &RecoveryOptions::new(ckp("death.ckp"))).unwrap();
        assert!(r.fci.converged);
        assert_eq!(r.restarts, 1);
        assert_eq!(r.ranks_lost, 1);
        assert_eq!(r.fault_stats.rank_deaths, 1);
        assert!(
            (r.fci.energy - plain.energy).abs() < 1e-9,
            "recovered energy {} vs reference {}",
            r.fci.energy,
            plain.energy
        );
    }

    #[test]
    fn resumes_from_existing_checkpoint() {
        // Kill-and-restart: run a few iterations, "crash", then start a
        // fresh resilient solve pointed at the same checkpoint. It must
        // pick up the saved vector, not start over.
        let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
        let path = ckp("resume.ckp");
        let mut first = base_opts(2);
        first.diag.max_iter = 6;
        let partial = solve_resilient(&mo, 2, 2, 0, &first, &RecoveryOptions::new(&path)).unwrap();
        assert!(!partial.fci.converged);
        assert!(path.exists());

        let full = solve(&mo, 2, 2, 0, &base_opts(2));
        // Baseline for iteration counting: same chunked solver, but from
        // scratch (chunking restarts the Davidson subspace, so the plain
        // solve's count is not comparable).
        let scratch = solve_resilient(
            &mo,
            2,
            2,
            0,
            &base_opts(2),
            &RecoveryOptions::new(ckp("scratch.ckp")),
        )
        .unwrap();
        let resumed =
            solve_resilient(&mo, 2, 2, 0, &base_opts(2), &RecoveryOptions::new(&path)).unwrap();
        assert!(resumed.fci.converged);
        assert!((resumed.fci.energy - full.energy).abs() < 1e-9);
        assert!(
            resumed.fci.iterations < scratch.fci.iterations,
            "resume did not reuse checkpoint progress: {} vs {}",
            resumed.fci.iterations,
            scratch.fci.iterations
        );
    }

    /// The checkpoint of a blocked (4-irrep) vector resumes to the
    /// uninterrupted energy.
    #[test]
    fn resumes_a_symmetry_blocked_solve() {
        let sym = [2u8, 0, 3, 1, 0, 2];
        let ham = crate::hamiltonian::random_symmetric_hamiltonian(6, 3, &sym, 4);
        let space = DetSpace::new(6, 3, 2, &sym, 4, 1);
        assert!(space.sector_dim() < space.dim());
        let full = crate::solver::solve_prepared(&space, &ham, &base_opts(3));
        assert!(full.converged);
        let path = ckp("blocked.ckp");
        let mut first = base_opts(3);
        first.diag.max_iter = 5;
        let rec = RecoveryOptions::new(&path);
        let partial = solve_resilient_prepared(&space, &ham, &first, &rec).unwrap();
        assert!(!partial.fci.converged);
        let resumed = solve_resilient_prepared(&space, &ham, &base_opts(3), &rec).unwrap();
        assert!(resumed.fci.converged);
        assert!(
            (resumed.fci.energy - full.energy).abs() < 1e-10,
            "{} vs {}",
            resumed.fci.energy,
            full.energy
        );
    }

    #[test]
    fn namespaced_checkpoint_paths_cannot_collide() {
        let a = RecoveryOptions::for_job("/tmp/d", "job-1", 0xdead);
        let b = RecoveryOptions::for_job("/tmp/d", "job-2", 0xdead);
        let c = RecoveryOptions::for_job("/tmp/d", "job-1", 0xbeef);
        assert_ne!(a.checkpoint, b.checkpoint);
        assert_ne!(a.checkpoint, c.checkpoint);
        // Hostile ids sanitize instead of escaping the directory.
        let evil = RecoveryOptions::for_job("/tmp/d", "../../etc/passwd", 1);
        let name = evil.checkpoint.file_name().unwrap().to_string_lossy();
        assert!(!name.contains('/'));
        assert_eq!(evil.checkpoint.parent().unwrap(), Path::new("/tmp/d"));
    }

    #[test]
    fn interleaved_resilient_solves_do_not_clobber_checkpoints() {
        // Two concurrent resilient solves of *different* problems in one
        // process, each checkpointing every iteration. With per-job
        // namespaced paths neither can resume from (or rename over) the
        // other's vector; both must converge to their own references.
        let dir = std::env::temp_dir().join(format!("fcix-interleave-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mo_a = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
        let mo_b = MoIntegrals::hubbard_chain(4, 1.0, 6.0, false);
        let ref_a = solve(&mo_a, 2, 2, 0, &base_opts(2));
        let ref_b = solve(&mo_b, 2, 1, 0, &base_opts(2));
        let mk_rec = |job: &str, hash: u64| RecoveryOptions {
            save_every: 2, // short chunks: maximal checkpoint interleaving
            ..RecoveryOptions::for_job(&dir, job, hash)
        };
        let rec_a = mk_rec("tenant-a/job", 0x11);
        let rec_b = mk_rec("tenant-b/job", 0x22);
        assert_ne!(rec_a.checkpoint, rec_b.checkpoint);
        let (ra, rb) = std::thread::scope(|s| {
            let ha = s.spawn(|| solve_resilient(&mo_a, 2, 2, 0, &base_opts(2), &rec_a).unwrap());
            let hb = s.spawn(|| solve_resilient(&mo_b, 2, 1, 0, &base_opts(2), &rec_b).unwrap());
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert!(ra.fci.converged && rb.fci.converged);
        assert!(
            (ra.fci.energy - ref_a.energy).abs() < 1e-9,
            "job A clobbered: {} vs {}",
            ra.fci.energy,
            ref_a.energy
        );
        assert!(
            (rb.fci.energy - ref_b.energy).abs() < 1e-9,
            "job B clobbered: {} vs {}",
            rb.fci.energy,
            ref_b.energy
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_budget_exhaustion_is_an_error() {
        let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
        let mut opts = base_opts(3);
        opts.fault = Some(FaultConfig {
            seed: 5,
            rank_death: Some(RankDeath {
                rank: 1,
                after_ops: 100,
            }),
            ..FaultConfig::default()
        });
        let rec = RecoveryOptions {
            max_restarts: 0,
            ..RecoveryOptions::new(ckp("budget.ckp"))
        };
        let err = solve_resilient(&mo, 2, 2, 0, &opts, &rec).unwrap_err();
        assert!(err.to_string().contains("restart budget"));
    }
}
