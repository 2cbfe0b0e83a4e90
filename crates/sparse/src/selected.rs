//! Selected CI: importance-screened space growth + truncated Davidson.
//!
//! The variational determinant set `V` starts at the reference and grows
//! by rounds: diagonalize `H` restricted to `V`, then admit every
//! determinant `j ∉ V` with `max_i |H_ji·c_i| > ε` (the heat-bath/CIPSI
//! selection criterion, screening connections of the current wave
//! function). Each round's eigenproblem goes through the dense engine's
//! subspace driver, [`fci_core::multiroot::block_davidson`]: H is a
//! mat-vec over an explicit CSR of `H_VV` (built row-parallel from the
//! integral-driven connection generator), the correction is the diagonal
//! one, `r_i / (θ − H_ii)`, and the vectors are one-rank, one-column
//! `DistMatrix`es of length `|V|`. The previous round's vectors, scattered
//! into the grown space, are the seeds. Every round iterates, however
//! small `V` is.
//!
//! Convergence: the outer loop stops when either no candidate passes the
//! threshold (the ε-selected space is exhausted — for small ε this is
//! the full sector and the energy is exact FCI) or every tracked root's
//! energy moves by less than `tol` between rounds with the inner
//! Davidson converged. Growth is hard-capped at `max_store`
//! determinants — the memory bound.
//!
//! Reachable sector: because `H` conserves spatial symmetry, growing by
//! nonzero connections from a single reference can only populate the
//! reference determinant's symmetry block. Ground states land in the
//! reference's block, but when `nroots > 1` the excited roots reported
//! here are the *block's* spectrum — full-space roots belonging to
//! other irreps are invisible by construction (water/STO-3G: selection
//! from the closed-shell A₁ reference saturates at the 65-determinant
//! A₁ block of the 225-determinant C1 space, and "root 1" is the full
//! space's root 3). Excited states of another irrep need a reference in
//! that block.
//!
//! Thread-count determinism: CSR rows and candidate weights are pure
//! per-row functions merged in row order; the candidate aggregation is a
//! per-thread max-merge whose result is order-independent, read out in
//! sorted determinant order; the Davidson recurrence itself is serial
//! apart from the row-partitioned mat-vec.

use crate::connect::{reference_det, ConnGen};
use crate::store::{CoefMap, Det, DetSet};
use crate::{fan_out, kernel, spmv, SparseOptions, SparseResult, SweepStat};
use fci_core::detspace::DetSpace;
use fci_core::hamiltonian::Hamiltonian;
use fci_core::multiroot::block_davidson;
use fci_ddi::DistMatrix;
use fci_obs::Category;

/// Each round's inner Davidson stops at residual norm `INNER_TOL` or
/// after `INNER_MAX_ITER · nroots` σ evaluations.
const INNER_TOL: f64 = 1e-8;
const INNER_MAX_ITER: usize = 200;

/// Selected-CI solve for `opts.nroots` roots.
pub fn solve_selected(space: &DetSpace, ham: &Hamiltonian, opts: &SparseOptions) -> SparseResult {
    let tracer = opts.obs.tracer_or_warn();
    let threads = opts.threads.max(1);
    let nroots = opts.nroots.max(1);
    let refdet = reference_det(space, ham);
    // One generator, its tables built once, shared by every thread of
    // every round.
    let mut cg = ConnGen::for_space(space);
    cg.prepare(ham);
    let cg = &cg;
    let mut v = DetSet::from_vec(vec![refdet]);
    let mut prev: Option<(DetSet, Vec<Vec<f64>>)> = None;
    let mut prev_e: Vec<f64> = Vec::new();
    let mut history: Vec<SweepStat> = Vec::new();
    let mut energies: Vec<f64> = vec![ham.diagonal_element(refdet.a, refdet.b) + ham.e_core];
    let mut vectors: Vec<Vec<f64>> = vec![vec![1.0]];
    let mut converged = false;
    let mut total_inner = 0usize;
    let mut peak = 0usize;
    let mut dropped = 0usize;
    tracer.instant(
        None,
        "selected_begin",
        Category::Other,
        &[
            ("eps", opts.eps),
            ("nroots", nroots as f64),
            ("table_bytes", cg.table_bytes() as f64),
        ],
    );

    for outer in 0..opts.max_outer {
        let t0 = tracer.now_us();
        let m = v.len();
        let csr = build_csr(threads, cg, ham, &v, opts.h_cut);
        let nr = nroots.min(m);
        let diag = DistMatrix::from_dense(m, 1, 1, &csr.diag);
        let run = block_davidson(
            warm_start(&prev, &v, &csr.diag, nr),
            nr,
            3 * nr + 9,
            INNER_MAX_ITER * nr,
            INNER_TOL,
            |x| {
                let y = DistMatrix::zeros(m, 1, 1);
                x.with_local(0, |x| {
                    y.with_local(0, |y| {
                        spmv(threads, &csr.rowptr, &csr.cols, &csr.vals, &csr.diag, x, y)
                    })
                });
                y
            },
            |theta, _, r| {
                let t = r.duplicate();
                t.map_with(&diag, |ri, d| {
                    let den = match theta - d {
                        den if den.abs() >= 1e-8 => den,
                        den if den < 0.0 => -1e-8,
                        _ => 1e-8,
                    };
                    ri / den
                });
                t
            },
            &tracer,
        );
        total_inner += run.sigmas;
        let inner_conv = run.converged.iter().all(|&c| c);
        energies = run.energies.iter().map(|e| e + ham.e_core).collect();
        vectors = run.states.iter().map(DistMatrix::to_dense).collect();
        let bytes = csr.mem_bytes() + v.mem_bytes() + vectors.len() * m * 8;
        peak = peak.max(bytes);
        let stat = SweepStat {
            sweep: outer,
            support: m,
            energy: energies[0],
            elapsed_us: tracer.now_us() - t0,
        };
        history.push(stat);
        tracer.instant(
            None,
            "selected_outer",
            Category::Other,
            &[
                ("outer", outer as f64),
                ("support", m as f64),
                ("energy", energies[0]),
                ("nnz", csr.cols.len() as f64),
                ("outer_us", stat.elapsed_us),
            ],
        );

        // Outer convergence requires EVERY tracked root to have settled:
        // the ground state routinely stabilizes rounds before an excited
        // root's support has grown in, and stopping on root 0 alone
        // would freeze the others at wrong energies.
        let settled = outer > 0
            && prev_e.len() == energies.len()
            && energies
                .iter()
                .zip(&prev_e)
                .all(|(e, p)| (e - p).abs() < opts.tol);
        if inner_conv && settled {
            converged = true;
            break;
        }
        prev_e.clone_from(&energies);
        if m >= opts.max_store {
            break; // truncated: the memory bound stops growth
        }
        let cands = select_candidates(
            threads,
            cg,
            ham,
            &v,
            &vectors,
            opts.eps,
            opts.h_cut,
            opts.max_store,
            &mut dropped,
        );
        if cands.is_empty() {
            converged = inner_conv;
            break;
        }
        let room = opts.max_store - m;
        let added: Vec<Det> = if cands.len() > room {
            // Keep the heaviest candidates; ties broken by determinant
            // order so the cut is deterministic.
            let mut ranked = cands;
            ranked.sort_unstable_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            ranked.truncate(room);
            ranked.into_iter().map(|(d, _)| d).collect()
        } else {
            cands.into_iter().map(|(d, _)| d).collect()
        };
        prev = Some((v.clone(), vectors.clone()));
        v = v.union(&DetSet::from_vec(added));
    }

    tracer.instant(
        None,
        "selected_end",
        Category::Other,
        &[
            ("support", v.len() as f64),
            ("energy", energies[0]),
            ("inner_iters", total_inner as f64),
        ],
    );
    SparseResult {
        energies,
        converged,
        iterations: total_inner,
        support: v.len(),
        formal_dim: space.alpha.len() as f64 * space.beta.len() as f64,
        peak_bytes: peak,
        dropped,
        history,
    }
}

/// CSR of the strict off-diagonal of `H` restricted to `V`, plus the
/// diagonal. Row contents depend only on the row (enumeration order of
/// the connection generator), so the row-parallel build is
/// partition-invariant and chunks concatenate in row order.
#[derive(Default)]
struct Csr {
    rowptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
    diag: Vec<f64>,
}

impl Csr {
    fn mem_bytes(&self) -> usize {
        self.rowptr.len() * 8 + self.cols.len() * 4 + self.vals.len() * 8 + self.diag.len() * 8
    }
}

fn build_csr(threads: usize, cg: &ConnGen, ham: &Hamiltonian, v: &DetSet, h_cut: f64) -> Csr {
    let m = v.len();
    let nchunks = if threads <= 1 || m < 256 { 1 } else { threads };
    // One CSR per chunk of rows, `rowptr` relative to the chunk.
    let mut parts: Vec<Csr> = Vec::new();
    parts.resize_with(nchunks, Csr::default);
    fan_out(nchunks, &mut parts, |first, run| {
        for (k, part) in (first..).zip(run) {
            let (lo, hi) = kernel::range_of(m, nchunks, k);
            part.rowptr.push(0);
            for r in lo..hi {
                let dr = v.det(r);
                part.diag.push(ham.diagonal_element(dr.a, dr.b));
                cg.walk_connections(ham, dr, h_cut, |j, h| {
                    if let Some(c) = v.rank(j) {
                        part.cols.push(c as u32);
                        part.vals.push(h);
                    }
                });
                part.rowptr.push(part.cols.len());
            }
        }
    });
    parts
        .into_iter()
        .reduce(|mut csr, part| {
            let base = csr.cols.len();
            csr.rowptr
                .extend(part.rowptr[1..].iter().map(|end| base + end));
            csr.cols.extend_from_slice(&part.cols);
            csr.vals.extend_from_slice(&part.vals);
            csr.diag.extend_from_slice(&part.diag);
            csr
        })
        .unwrap_or_default()
}

/// The inner Davidson's seeds: the previous round's eigenvectors
/// scattered into the grown space by determinant rank (old members keep
/// their coefficients, new ones start at zero). While there are fewer than
/// `nr` of them, unit vectors on the `nr` lowest-diagonal rows (ties by
/// index) are added, so the seeds span at least `nr` directions.
fn warm_start(
    prev: &Option<(DetSet, Vec<Vec<f64>>)>,
    v: &DetSet,
    diag: &[f64],
    nr: usize,
) -> Vec<DistMatrix> {
    let m = v.len();
    let mut seeds = Vec::new();
    if let Some((old_v, old_vecs)) = prev {
        for ov in old_vecs {
            let w = DistMatrix::zeros(m, 1, 1);
            w.with_local(0, |w| {
                for (&d, &c) in old_v.as_slice().iter().zip(ov) {
                    if let Some(r) = v.rank(d) {
                        w[r] = c;
                    }
                }
            });
            seeds.push(w);
        }
    }
    if seeds.len() < nr {
        let mut rows: Vec<usize> = (0..m).collect();
        rows.sort_unstable_by(|&a, &b| diag[a].total_cmp(&diag[b]).then(a.cmp(&b)));
        for &row in &rows[..nr] {
            let u = DistMatrix::zeros(m, 1, 1);
            u.set(row, 0, 1.0);
            seeds.push(u);
        }
    }
    seeds
}

/// Candidate determinants outside `V` with `max_{r,i} |H_ji·c_i^{(r)}|`
/// above ε, as `(det, weight)` sorted by determinant. Thread-local
/// max-aggregation maps are merged by another max — associative and
/// commutative, so the result is partition-independent; the sorted
/// read-out makes the order canonical. Aggregation is bounded at
/// `2·max_store` entries per thread; overflow counts into `dropped`.
#[allow(clippy::too_many_arguments)]
fn select_candidates(
    threads: usize,
    cg: &ConnGen,
    ham: &Hamiltonian,
    v: &DetSet,
    coefs: &[Vec<f64>],
    eps: f64,
    h_cut: f64,
    max_store: usize,
    dropped: &mut usize,
) -> Vec<(Det, f64)> {
    let m = v.len();
    let nchunks = if threads <= 1 || m < 256 { 1 } else { threads };
    let cap = max_store.saturating_mul(2).max(1024);
    let mut parts: Vec<(CoefMap, usize)> = Vec::new();
    parts.resize_with(nchunks, || (CoefMap::with_capacity(1024), 0));
    fan_out(nchunks, &mut parts, |first, run| {
        for (k, (lmap, lost)) in (first..).zip(run) {
            let (lo, hi) = kernel::range_of(m, nchunks, k);
            for r in lo..hi {
                // Largest |c| over roots drives the row screen.
                let mut cmax = 0.0f64;
                for c in coefs {
                    cmax = cmax.max(c[r].abs());
                }
                if cmax < 1e-12 {
                    continue;
                }
                cg.walk_connections(ham, v.det(r), h_cut, |j, h| {
                    if h.abs() * cmax <= eps || v.rank(j).is_some() {
                        return;
                    }
                    let mut w = 0.0f64;
                    for c in coefs {
                        w = w.max((h * c[r]).abs());
                    }
                    if w <= eps {
                        return;
                    }
                    if lmap.find(j).is_none() && lmap.len() >= cap {
                        *lost += 1;
                        return;
                    }
                    let slot = lmap.slot_or_insert(j);
                    let cur = lmap.vals_mut();
                    if w > cur[slot][0] {
                        cur[slot][0] = w;
                    }
                });
            }
        }
    });
    // Merge the per-thread maxima (order-independent) and read out in
    // canonical determinant order.
    let mut merged = CoefMap::with_capacity(parts.iter().map(|(p, _)| p.len()).sum::<usize>());
    for (lmap, lost) in &parts {
        *dropped += lost;
        for (d, w) in lmap.sorted_entries() {
            let slot = merged.slot_or_insert(d);
            let cur = merged.vals_mut();
            if w[0] > cur[slot][0] {
                cur[slot][0] = w[0];
            }
        }
    }
    merged
        .sorted_entries()
        .into_iter()
        .map(|(d, w)| (d, w[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fci_core::hamiltonian::random_hamiltonian;
    use fci_core::slater;
    use fci_linalg::eigh as dense_eigh;

    fn dense_spectrum(space: &DetSpace, ham: &Hamiltonian) -> Vec<f64> {
        let h = slater::dense_h(space, ham);
        dense_eigh(&h)
            .eigenvalues
            .iter()
            .map(|e| e + ham.e_core)
            .collect()
    }

    #[test]
    fn tight_eps_recovers_dense_fci() {
        let ham = random_hamiltonian(6, 5);
        let space = DetSpace::c1(6, 3, 2);
        let opts = SparseOptions {
            eps: 1e-10,
            tol: 1e-11,
            ..SparseOptions::default()
        };
        let res = solve_selected(&space, &ham, &opts);
        let exact = dense_spectrum(&space, &ham);
        assert!(res.converged);
        assert!(
            (res.energy() - exact[0]).abs() < 1e-8,
            "selected {} vs dense {}",
            res.energy(),
            exact[0]
        );
        // The ε-exhausted space is the full sector here.
        assert_eq!(res.support, space.sector_dim());
    }

    #[test]
    fn loose_eps_truncates_but_stays_close() {
        let ham = random_hamiltonian(6, 5);
        let space = DetSpace::c1(6, 3, 3);
        let opts = SparseOptions {
            eps: 1e-3,
            tol: 1e-10,
            ..SparseOptions::default()
        };
        let res = solve_selected(&space, &ham, &opts);
        let exact = dense_spectrum(&space, &ham);
        assert!(res.support < space.sector_dim());
        assert!((res.energy() - exact[0]).abs() < 5e-2);
    }

    #[test]
    fn multiroot_matches_dense_spectrum() {
        let ham = random_hamiltonian(5, 21);
        let space = DetSpace::c1(5, 2, 2);
        let opts = SparseOptions {
            eps: 1e-10,
            tol: 1e-11,
            nroots: 3,
            ..SparseOptions::default()
        };
        let res = solve_selected(&space, &ham, &opts);
        let exact = dense_spectrum(&space, &ham);
        assert_eq!(res.energies.len(), 3);
        for (r, e) in res.energies.iter().enumerate() {
            assert!((e - exact[r]).abs() < 1e-7, "root {r}: {e} vs {}", exact[r]);
        }
    }

    #[test]
    fn multiroot_iterative_davidson_matches_dense() {
        // 400 determinants: the largest selected space of these tests,
        // so the most subspace steps and collapses.
        let ham = random_hamiltonian(6, 21);
        let space = DetSpace::c1(6, 3, 3);
        let opts = SparseOptions {
            eps: 1e-10,
            tol: 1e-11,
            nroots: 3,
            ..SparseOptions::default()
        };
        let res = solve_selected(&space, &ham, &opts);
        let exact = dense_spectrum(&space, &ham);
        assert_eq!(res.energies.len(), 3);
        for (r, e) in res.energies.iter().enumerate() {
            assert!((e - exact[r]).abs() < 1e-7, "root {r}: {e} vs {}", exact[r]);
        }
    }

    #[test]
    fn growth_respects_max_store() {
        let ham = random_hamiltonian(6, 2);
        let space = DetSpace::c1(6, 3, 3);
        let opts = SparseOptions {
            eps: 1e-10,
            max_store: 50,
            ..SparseOptions::default()
        };
        let res = solve_selected(&space, &ham, &opts);
        assert!(res.support <= 50);
        assert!(res.history.len() >= 2, "should have grown at least once");
    }

    #[test]
    fn thread_count_is_bitwise_invariant() {
        let ham = random_hamiltonian(6, 13);
        let space = DetSpace::c1(6, 3, 2);
        let run = |threads: usize| {
            let opts = SparseOptions {
                threads,
                eps: 1e-6,
                tol: 1e-10,
                nroots: 2,
                ..SparseOptions::default()
            };
            solve_selected(&space, &ham, &opts)
        };
        let r1 = run(1);
        let r2 = run(2);
        let r4 = run(4);
        for r in 0..2 {
            assert_eq!(r1.energies[r].to_bits(), r2.energies[r].to_bits());
            assert_eq!(r1.energies[r].to_bits(), r4.energies[r].to_bits());
        }
        assert_eq!(r1.support, r2.support);
        assert_eq!(r1.support, r4.support);
        assert_eq!(r1.history.len(), r4.history.len());
    }
}
