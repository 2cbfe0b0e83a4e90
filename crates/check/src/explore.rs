//! Deterministic schedule exploration for the mixed-spin task pool.
//!
//! The paper's manager/worker self-scheduling (Fig. 3) means the order in
//! which `DDI_ACC` updates land on a σ column depends on the schedule —
//! and floating-point addition is not associative, so the *raw* σ is only
//! reproducible up to accumulation order. What must NOT depend on the
//! schedule is the **set of per-task contributions**: every interleaving
//! has to produce bitwise-identical column updates, and therefore a
//! bitwise-identical σ once the contributions are folded in a canonical
//! order.
//!
//! This module replays the mixed-spin phase of a small FCI case under K
//! seeded adversarial schedules. A schedule varies two real degrees of
//! freedom of the machine:
//!
//! * **assignment** — which worker claims each task from the counter
//!   (workers keep their scratch buffers across tasks, so a wrong
//!   assignment exposes stale-buffer contamination), and
//! * **interleaving** — the global order in which per-worker task streams
//!   execute, i.e. the order accumulates hit σ.
//!
//! For every schedule the explorer records each α-column contribution
//! tagged `(column, Kα, sequence)`, folds them in sorted tag order into a
//! canonical σ, and digests the bits. All schedules must agree bitwise on
//! the canonical σ and on the variational energy ⟨c,σ⟩/⟨c,c⟩; the
//! *raw* (execution-order) σ is digested too as a negative control — it
//! is expected to differ between schedules, which is exactly why the
//! canonical fold is the right invariant to check.
//!
//! A bounded DPOR-lite pass then re-explores around detected conflicts:
//! for task pairs that update a common column it constructs the two
//! schedules that flip the pair's execution order and verifies the
//! canonical σ is unchanged.
//!
//! What this proves: the task decomposition is correct (no contribution
//! depends on schedule, worker identity, or buffer history) for the
//! explored case. What it does not prove: absence of races in the DDI
//! protocol itself — that is the race detector's job ([`crate::race`]).

use fci_core::detspace::DetSpace;
use fci_core::hamiltonian::random_hamiltonian;
use fci_core::sigma::mixed::{mixed_spin_dgemm, MixedWorker};
use fci_core::sigma::SigmaCtx;
use fci_core::taskpool::{PoolParams, TaskPool};
use fci_ddi::{Backend, Ddi, DistMatrix};
use fci_fault::Xorshift64;
use fci_xsim::MachineModel;
use std::collections::HashMap;

/// FNV-1a over the bit patterns of a float slice.
fn digest(xs: &[f64]) -> u64 {
    let bytes: Vec<u8> = xs.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    fci_obs::fnv1a(&bytes)
}

/// What to explore.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Orbitals of the synthetic FCI case.
    pub n_orb: usize,
    /// α electrons.
    pub n_alpha: usize,
    /// β electrons.
    pub n_beta: usize,
    /// Virtual processors / workers.
    pub nproc: usize,
    /// Hamiltonian seed (any value; fixed per exploration).
    pub ham_seed: u64,
    /// One schedule is generated and replayed per seed.
    pub seeds: Vec<u64>,
    /// Maximum conflicting task pairs to flip in the DPOR-lite pass.
    pub dpor_pairs: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            n_orb: 6,
            n_alpha: 3,
            n_beta: 3,
            nproc: 4,
            ham_seed: 17,
            seeds: (1..=8).collect(),
            dpor_pairs: 4,
        }
    }
}

/// Result of replaying one schedule.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Human-readable schedule label (`seed 3`, `dpor 1↔4 flipped`, …).
    pub label: String,
    /// FNV digest of the canonically folded σ bits.
    pub folded_digest: u64,
    /// FNV digest of the raw execution-order σ bits (negative control).
    pub raw_digest: u64,
    /// Variational energy ⟨c,σ⟩/⟨c,c⟩ of the folded σ.
    pub energy: f64,
}

/// Aggregate verdict of an exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Tasks in the pool.
    pub ntasks: usize,
    /// Task pairs updating a common column (conflicts).
    pub conflict_pairs: usize,
    /// All replayed schedules (seeded + DPOR flips).
    pub outcomes: Vec<ExploreOutcome>,
    /// Whether every schedule's canonical σ and energy are bitwise equal.
    pub identical: bool,
    /// Whether at least two schedules disagree on the *raw* σ — evidence
    /// the explored schedules genuinely permuted the accumulation order.
    pub raw_order_varied: bool,
    /// Max |folded σ − reference σ| against the production serial path.
    pub max_dev_from_reference: f64,
}

impl ExploreReport {
    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "explored {} schedules over {} tasks ({} conflicting pairs): \
             canonical σ/energy {}identical{}; max deviation from \
             production path {:.3e}",
            self.outcomes.len(),
            self.ntasks,
            self.conflict_pairs,
            if self.identical { "bitwise " } else { "NOT " },
            if self.raw_order_varied {
                " (raw accumulation order did vary)"
            } else {
                " (raw accumulation order never varied)"
            },
            self.max_dev_from_reference,
        )
    }
}

/// One α-column update, tagged for canonical folding.
struct Contribution {
    col: usize,
    ka: usize,
    seq: usize,
    vals: Vec<f64>,
}

/// Replay one schedule: execute tasks in `exec_order` (a task id sequence
/// consistent with each worker's claim order), with `assignment[t]` naming
/// the worker of task `t`. Returns the tagged contributions and the raw
/// execution-order σ.
fn run_schedule(
    ctx: &SigmaCtx,
    c: &DistMatrix,
    pool: &TaskPool,
    nproc: usize,
    assignment: &[usize],
    exec_order: &[usize],
) -> (Vec<Contribution>, Vec<f64>) {
    let nb = ctx.space.beta.len();
    let na = ctx.space.alpha.len();
    let mut workers: Vec<MixedWorker> = (0..nproc).map(|_| MixedWorker::new(ctx)).collect();
    let mut contribs: Vec<Contribution> = Vec::new();
    let mut raw = vec![0.0; na * nb];
    for &t in exec_order {
        let rank = assignment[t];
        for ka in pool.task(t) {
            let mut seq = 0usize;
            let contribs = &mut contribs;
            let raw = &mut raw;
            workers[rank].run_task(ctx, c, ka, rank, &mut |col, vals, _stats| {
                for (i, v) in vals.iter().enumerate() {
                    raw[col * nb + i] += v;
                }
                contribs.push(Contribution {
                    col,
                    ka,
                    seq,
                    vals: vals.to_vec(),
                });
                seq += 1;
            });
        }
    }
    (contribs, raw)
}

/// Fold contributions in canonical `(column, Kα, sequence)` order — a
/// schedule-independent accumulation order, hence bitwise-deterministic.
fn fold(contribs: &mut [Contribution], na: usize, nb: usize) -> Vec<f64> {
    contribs.sort_by_key(|c| (c.col, c.ka, c.seq));
    let mut out = vec![0.0; na * nb];
    for c in contribs.iter() {
        for (i, v) in c.vals.iter().enumerate() {
            out[c.col * nb + i] += v;
        }
    }
    out
}

/// Rayleigh quotient ⟨c,σ⟩/⟨c,c⟩ in a fixed summation order.
fn rayleigh(c: &[f64], sigma: &[f64]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in c.iter().zip(sigma) {
        num += a * b;
        den += a * a;
    }
    num / den
}

/// Explore the mixed-spin task pool of a synthetic FCI case under the
/// configured schedules. See the module docs for what is (and is not)
/// being proven.
pub fn explore_mixed(cfg: &ExploreConfig) -> ExploreReport {
    let ham = random_hamiltonian(cfg.n_orb, cfg.ham_seed);
    let space = DetSpace::c1(cfg.n_orb, cfg.n_alpha, cfg.n_beta);
    let ddi = Ddi::new(cfg.nproc, Backend::Serial);
    let model = MachineModel::cray_x1();
    let ctx = SigmaCtx {
        space: &space,
        ham: &ham,
        ddi: &ddi,
        model: &model,
        pool: PoolParams::default(),
    };
    let nb = space.beta.len();
    let na = space.alpha.len();

    // Deterministic pseudo-random CI vector.
    let c = space.zeros_ci(cfg.nproc);
    let mut lcg = cfg
        .ham_seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3);
    c.map_inplace(|_, _, _| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((lcg >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    });
    let c_dense = c.to_dense();

    // Production serial path as the numerical reference.
    let sigma_ref = space.zeros_ci(cfg.nproc);
    mixed_spin_dgemm(&ctx, &c, &sigma_ref);
    let ref_dense = sigma_ref.to_dense();

    let pool = TaskPool::aggregated(space.alpha_nm1.len(), cfg.nproc, ctx.pool);
    let ntasks = pool.len();

    // Columns each task updates — pure pool/space metadata, used to find
    // conflicting task pairs for the DPOR pass.
    let task_cols: Vec<Vec<usize>> = (0..ntasks)
        .map(|t| {
            let mut cols: Vec<usize> = pool
                .task(t)
                .flat_map(|ka| space.alpha_nm1.of(ka).iter().map(|e| e.to as usize))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect();

    let mut outcomes: Vec<ExploreOutcome> = Vec::new();
    let mut max_dev = 0.0f64;

    let mut replay = |label: String, assignment: &[usize], exec_order: &[usize]| {
        let (mut contribs, raw) = run_schedule(&ctx, &c, &pool, cfg.nproc, assignment, exec_order);
        let folded = fold(&mut contribs, na, nb);
        let outcome = ExploreOutcome {
            label,
            folded_digest: digest(&folded),
            raw_digest: digest(&raw),
            energy: rayleigh(&c_dense, &folded),
        };
        for (a, b) in folded.iter().zip(&ref_dense) {
            max_dev = max_dev.max((a - b).abs());
        }
        outcomes.push(outcome);
    };

    // K seeded adversarial schedules.
    for &seed in &cfg.seeds {
        let mut rng = Xorshift64::new(seed);
        let assignment: Vec<usize> = (0..ntasks).map(|_| rng.next_index(cfg.nproc)).collect();
        // Interleave the per-worker streams: repeatedly run the head task
        // of a randomly chosen nonempty worker queue.
        let mut queues: Vec<std::collections::VecDeque<usize>> =
            vec![std::collections::VecDeque::new(); cfg.nproc];
        for (t, &r) in assignment.iter().enumerate() {
            queues[r].push_back(t);
        }
        let mut exec_order = Vec::with_capacity(ntasks);
        while exec_order.len() < ntasks {
            let nonempty: Vec<usize> = (0..cfg.nproc).filter(|&r| !queues[r].is_empty()).collect();
            let r = nonempty[rng.next_index(nonempty.len())];
            if let Some(t) = queues[r].pop_front() {
                exec_order.push(t);
            }
        }
        replay(format!("seed {seed}"), &assignment, &exec_order);
    }

    // DPOR-lite: for conflicting task pairs, replay both flip orders on a
    // dedicated two-worker assignment.
    let mut col_tasks: HashMap<usize, Vec<usize>> = HashMap::new();
    for (t, cols) in task_cols.iter().enumerate() {
        for &col in cols {
            col_tasks.entry(col).or_default().push(t);
        }
    }
    let mut seen_pairs = std::collections::HashSet::new();
    for tasks in col_tasks.values() {
        for i in 0..tasks.len() {
            for j in i + 1..tasks.len() {
                seen_pairs.insert((tasks[i].min(tasks[j]), tasks[i].max(tasks[j])));
            }
        }
    }
    let conflict_pairs = seen_pairs.len();
    let mut pairs: Vec<(usize, usize)> = seen_pairs.into_iter().collect();
    pairs.sort_unstable();
    for &(t1, t2) in pairs.iter().take(cfg.dpor_pairs) {
        if cfg.nproc < 2 {
            break;
        }
        // t1 on worker 0, t2 on worker 1, everything else round-robin.
        let assignment: Vec<usize> = (0..ntasks)
            .map(|t| {
                if t == t1 {
                    0
                } else if t == t2 {
                    1
                } else {
                    t % cfg.nproc
                }
            })
            .collect();
        for flip in [false, true] {
            let mut exec_order: Vec<usize> = (0..ntasks).collect();
            if flip {
                exec_order.swap(t1, t2);
            }
            replay(
                format!("dpor {t1}<->{t2}{}", if flip { " flipped" } else { "" }),
                &assignment,
                &exec_order,
            );
        }
    }

    let identical = outcomes.windows(2).all(|w| {
        w[0].folded_digest == w[1].folded_digest && w[0].energy.to_bits() == w[1].energy.to_bits()
    });
    let raw_order_varied = outcomes
        .iter()
        .any(|o| o.raw_digest != outcomes[0].raw_digest);

    ExploreReport {
        ntasks,
        conflict_pairs,
        outcomes,
        identical,
        raw_order_varied,
        max_dev_from_reference: max_dev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sensitive_to_last_bit() {
        let a = [1.0f64, 2.0, 3.0];
        let mut b = a;
        b[2] = f64::from_bits(b[2].to_bits() ^ 1);
        assert_ne!(digest(&a), digest(&b));
        assert_eq!(digest(&a), digest(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn small_case_is_schedule_invariant() {
        let cfg = ExploreConfig {
            n_orb: 5,
            n_alpha: 2,
            n_beta: 2,
            nproc: 3,
            ham_seed: 7,
            seeds: vec![1, 2, 3, 4],
            dpor_pairs: 2,
        };
        let rep = explore_mixed(&cfg);
        assert!(rep.identical, "{}", rep.summary());
        assert!(rep.max_dev_from_reference < 1e-10, "{}", rep.summary());
        assert!(rep.ntasks >= 2, "need at least two tasks to explore");
    }
}
