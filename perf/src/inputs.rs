//! Workload inputs, made from the seed and nothing else.
//!
//! The seed reaches only this module. It picks one of [`N_POINTS`]
//! physical parameter points inside a band narrow enough that every
//! dimension, GEMM shape and task count stays fixed (C–C distance
//! `2.34·(1 + 0.01u)` bohr, Hubbard `U = 4 + 0.05u`), and — for the
//! served workload — seeds the generator that draws the problem pool and
//! the job order. The program under test sees integrals, determinant
//! spaces and job specs, never the seed.
//!
//! The parameter is discrete so that every seed has a reference in
//! `refs.json` that two independent solver routes agreed on: the timed
//! runs check energies by lookup instead of paying for a second solve.

use fci_core::{DiagMethod, Hamiltonian};
use fci_ints::{detect_point_group, overlap, BasisSet, Molecule};
use fci_linalg::Matrix;
use fci_scf::{core_orbitals, rhf, symmetry_adapt, transform_integrals, MoIntegrals, RhfOptions};
use fci_serve::{JobSpec, ProblemSpec};

use crate::span::Spans;

/// Number of distinct parameter points a seed can select.
pub const N_POINTS: usize = 8;

/// splitmix64 — the input generator's only source of randomness.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Parameter point `0..N_POINTS` selected by `seed`.
pub fn point_of_seed(seed: u64) -> usize {
    SplitMix::new(seed).below(N_POINTS)
}

/// Jitter `u ∈ [−1, 1)` of parameter point `point` (cell midpoints).
pub fn jitter_of_point(point: usize) -> f64 {
    assert!(point < N_POINTS);
    (point as f64 + 0.5) * 2.0 / N_POINTS as f64 - 1.0
}

/// A prepared solver input: integrals plus the sector to solve in.
#[derive(Clone, Debug)]
pub struct Problem {
    /// Active-space MO integrals with orbital irreps.
    pub mo: MoIntegrals,
    /// α electrons in the active space.
    pub na: usize,
    /// β electrons in the active space.
    pub nb: usize,
    /// Target spatial irrep.
    pub irrep: u8,
}

/// C2 at `2.34·(1 + 0.01u)` bohr, on the z axis (D2h).
pub fn c2_molecule(u: f64) -> Molecule {
    let half = 1.17 * (1.0 + 0.01 * u);
    Molecule::from_symbols_bohr(&[("C", [0.0, 0.0, -half]), ("C", [0.0, 0.0, half])], 0)
}

/// Doubly occupied C 1s orbitals folded into the core.
pub const C2_FROZEN: usize = 2;
/// Active orbitals: FCI(8,13), 715² = 511,225 determinants.
pub const C2_ACTIVE: usize = 13;
/// The 13th active orbital is one of a degenerate π pair (irreps 5 and
/// 6 of D2h as `fci-ints` numbers them); this one is always taken.
const C2_LAST_ACTIVE_IRREP: u8 = 6;
/// Target irrep: the lowest-diagonal determinant is one of an
/// x/y-equivalent pair (irreps 1 and 2); this one is always taken.
const C2_TARGET_IRREP: u8 = 2;

/// C2/svp, two frozen cores, 13 active orbitals, 4α4β, D2h-blocked:
/// integrals → RHF → symmetry adaptation → MO transform → target irrep.
/// Each step is one span named after the crate that does the work.
///
/// Two choices in that chain are ties that rounding breaks differently
/// from one bond length to the next: which partner of the π pair the
/// window's last slot gets, and which of two mirror-image determinants
/// has the lowest diagonal. Left alone they flip the sector between
/// 63,848 and 63,852 determinants and move the energy by millihartrees.
/// Both are pinned, so every parameter point is the same problem.
pub fn c2_problem(u: f64, spans: &mut Spans) -> Problem {
    let (na, nb) = (4, 4);
    let molecule = c2_molecule(u);
    let basis = BasisSet::build(&molecule, "svp");
    let s = spans.scope("ints.overlap", |_| overlap(&basis));
    // `rhf` evaluates its own AO integrals; the `ints.*` layer timings
    // come from separate calls in the traced run.
    let scf = spans.scope("scf.rhf", |_| {
        rhf(&molecule, &basis, &RhfOptions::default())
    });
    // FCI is orbital-invariant: if RHF stalls (C2 is multireference)
    // core orbitals serve, only the convergence rate changes.
    let c = if scf.converged {
        scf.mo_coeffs.clone()
    } else {
        core_orbitals(&basis, &molecule).0
    };
    let pg = detect_point_group(&molecule);
    let (mut c, mut irreps) = spans.scope("scf.symadapt", |_| symmetry_adapt(&pg, &basis, &s, &c));
    let last = C2_FROZEN + C2_ACTIVE - 1;
    if irreps[last] != C2_LAST_ACTIVE_IRREP {
        assert_eq!(
            irreps[last + 1],
            C2_LAST_ACTIVE_IRREP,
            "C2 active window does not end inside the expected pi pair: {irreps:?}"
        );
        irreps.swap(last, last + 1);
        let swapped = |j: usize| match j {
            j if j == last => last + 1,
            j if j == last + 1 => last,
            j => j,
        };
        c = Matrix::from_fn(c.nrows(), c.ncols(), |i, j| c[(i, swapped(j))]);
    }
    let mo = spans.scope("scf.transform", |_| {
        transform_integrals(
            &scf.h_ao,
            &scf.eri_ao,
            &c,
            molecule.nuclear_repulsion(),
            C2_FROZEN,
            C2_ACTIVE,
        )
    });
    let mo = mo.with_symmetry(irreps[C2_FROZEN..=last].to_vec(), pg.n_irrep());
    let lowest = spans.scope("core.lowest_det_irrep", |_| {
        lowest_det_irrep(&Hamiltonian::new(&mo), na, nb)
    });
    assert!(
        lowest == 1 || lowest == C2_TARGET_IRREP,
        "C2 lowest-diagonal determinant left the expected pair: irrep {lowest}"
    );
    Problem {
        mo,
        na,
        nb,
        irrep: C2_TARGET_IRREP,
    }
}

/// Combined spatial irrep of the lowest-diagonal determinant.
fn lowest_det_irrep(ham: &Hamiltonian, na: usize, nb: usize) -> u8 {
    let alpha = fci_strings::SpinStrings::new(ham.n, na, &ham.orb_sym, ham.n_irrep);
    let beta = fci_strings::SpinStrings::new(ham.n, nb, &ham.orb_sym, ham.n_irrep);
    let mut best = (f64::INFINITY, 0u8);
    for ia in 0..alpha.len() {
        for ib in 0..beta.len() {
            let d = ham.diagonal_element(alpha.mask(ia), beta.mask(ib));
            if d < best.0 {
                best = (d, alpha.irrep_of_index(ia) ^ beta.irrep_of_index(ib));
            }
        }
    }
    best.1
}

/// Open Hubbard chain at half filling, `t = 1`, `U = 4 + 0.05u`.
pub fn hubbard_problem(sites: usize, u: f64) -> Problem {
    let spec = ProblemSpec::Hubbard {
        sites,
        t: 1.0,
        u: 4.0 + 0.05 * u,
        periodic: false,
    };
    Problem {
        mo: spec.build(),
        na: sites / 2,
        nb: sites / 2,
        irrep: 0,
    }
}

/// Jobs per served stream.
pub const STREAM_JOBS: usize = 1500;
/// Distinct problems the served jobs are drawn from.
pub const POOL_SIZE: usize = 24;

/// Random-integral recipes the pool may draw, by orbital count.
///
/// Not every seeded random "molecule" will do. On roughly one 6-orbital
/// recipe in four (and one 4-orbital recipe in sixteen) single-root
/// Davidson reports `converged` on an excited state: the model-space
/// guess is a triplet, the ground state is not, and the iteration never
/// leaves the guess's spin symmetry. A workload must hold no operation
/// that fails, so the pool draws from recipes on which the bare solver
/// agrees with the explicit-Hamiltonian oracle to 1e-9 Ha
/// (`tests/served_pool.rs` re-checks every entry), and whose iteration
/// counts lie close together (4 orbitals: 9–12 σ; 6 orbitals: 26–32 σ),
/// so that the work in a stream does not depend on the seed's luck.
pub const VETTED_RANDOM_4: [u64; 16] = [1, 2, 3, 6, 7, 8, 9, 10, 11, 17, 18, 20, 21, 22, 26, 27];
/// See [`VETTED_RANDOM_4`].
pub const VETTED_RANDOM_6: [u64; 12] = [1, 2, 5, 6, 15, 17, 22, 26, 29, 33, 35, 42];

/// The served workload's problem pool: 4-site and 6-site half-filled
/// recipes, alternating Hubbard chains (U drawn in `[2, 6)`, where the
/// iteration count barely moves) and vetted random-integral
/// "molecules". Entries `0..POOL_SMALL` are 4-site. Each entry is a
/// recipe and its α (= β) electron count.
pub fn served_pool(seed: u64) -> Vec<(ProblemSpec, usize)> {
    let mut rng = SplitMix::new(seed ^ 0x706f_6f6c);
    let mut vetted = [VETTED_RANDOM_4.to_vec(), VETTED_RANDOM_6.to_vec()];
    (0..POOL_SIZE)
        .map(|k| {
            let large = k >= POOL_SMALL;
            let sites = if large { 6 } else { 4 };
            let spec = if k % 2 == 0 {
                ProblemSpec::Hubbard {
                    sites,
                    t: 1.0,
                    u: 2.0 + 4.0 * (rng.below(4000) as f64 / 4000.0),
                    periodic: false,
                }
            } else {
                // Without replacement: every pool entry is distinct.
                let table = &mut vetted[usize::from(large)];
                ProblemSpec::Random {
                    n_orb: sites,
                    seed: table.swap_remove(rng.below(table.len())),
                }
            };
            (spec, sites / 2)
        })
        .collect()
}

/// Pool entries that are 4-site problems (the rest are 6-site).
pub const POOL_SMALL: usize = 16;

/// One served stream: [`STREAM_JOBS`] dense Davidson jobs, exactly 70 %
/// on 4-site and 30 % on 6-site problems, popularity within each class
/// falling off as 1/rank, in seeded random order. The class split and
/// the per-problem counts are fixed so that the work in a stream does
/// not depend on the seed's luck; the seed chooses which recipe sits at
/// which popularity rank and the order jobs arrive in. `tag` keeps job
/// ids of different streams apart.
pub fn served_jobs(seed: u64, tag: &str) -> Vec<JobSpec> {
    let pool = served_pool(seed);
    let n_small = STREAM_JOBS * 7 / 10;
    let small = zipf_counts(POOL_SMALL, n_small);
    let large = zipf_counts(POOL_SIZE - POOL_SMALL, STREAM_JOBS - n_small);
    let mut picks: Vec<usize> = small
        .iter()
        .chain(&large)
        .enumerate()
        .flat_map(|(k, &n)| std::iter::repeat_n(k, n))
        .collect();
    // Fisher–Yates with the seeded generator.
    let mut rng = SplitMix::new(seed ^ 0x6a6f_6273);
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.below(i + 1));
    }
    picks
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let (spec, n_elec) = &pool[k];
            let mut job = JobSpec::new(format!("{tag}-{i}"), spec.clone(), *n_elec, *n_elec);
            job.tenant = format!("tenant-{}", i % 2);
            job.method = DiagMethod::Davidson;
            job.tol = 1e-8;
            job.max_iter = 200;
            job.batchable = false;
            job
        })
        .collect()
}

/// Split `total` into `n` counts proportional to `1/(rank+1)`, largest
/// remainders first, so the counts always sum to `total`.
fn zipf_counts(n: usize, total: usize) -> Vec<usize> {
    let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let exact: Vec<f64> = (1..=n).map(|r| total as f64 / (r as f64 * h)).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (exact[a].fract(), exact[b].fract());
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &k in order.iter().take(short) {
        counts[k] += 1;
    }
    counts
}
