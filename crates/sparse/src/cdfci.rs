//! Coordinate-descent FCI (CDFCI).
//!
//! Minimizes the Rayleigh quotient ρ(c) = ⟨c,Hc⟩/⟨c,c⟩ one coordinate at
//! a time over an *unnormalized* sparse vector, following the
//! coordinate-descent FCI idea (Wang, Li & Lu; see the multi-coordinate
//! descent literature in PAPERS.md): alongside `c` the solver maintains
//! `b = H·c` on the set of determinants connected to `supp(c)`, so that
//!
//! * the **pick** is a scan over the store, no Hamiltonian work, and one
//!   scan feeds a *block* of updates: the store's slots are cut into a
//!   fixed grid of 64 chunks, each chunk nominates its coordinate of
//!   largest gradient magnitude `|b_i − ρ·c_i|`, and the nominees at or
//!   above the gradient floor are updated one after another in order of
//!   decreasing gradient (the first is the global maximum) before the
//!   store is scanned again — the multi-coordinate pick of Zhang, Gao &
//!   Li (PAPERS.md), which divides the O(store) scan cost per update by
//!   the block length;
//! * the **step** — the exact 1-D minimizer of ρ along `e_i` — is a
//!   closed-form quadratic solve ([`crate::kernel::cdfci_step`]) using
//!   the tracked scalars `S = c·c` and `A = c·b` and the coordinate's
//!   *current* `c_i`, `b_i` (earlier updates of the same block have
//!   already moved them), so every update still lowers ρ;
//! * the **update** touches only the connections of determinant `i`:
//!   `b_j += t·H_ji`, inserting new determinants on first contact.
//!
//! `b` stays *exact* on its support by induction (a determinant absent
//! from the store has never been connected to any nonzero coefficient)
//! until the `max_store` bound bites, after which updates to unstored
//! determinants are counted as `dropped` — the documented bounded-memory
//! approximation that lets a formal dimension ≥10⁸ run in megabytes.
//!
//! Thread-count determinism: the block scan and the (S, A) drift-control
//! recomputation both reduce over the same *fixed* chunk grid and merge
//! in chunk order, and all store mutation is single-threaded in the
//! connection generator's enumeration order.

use crate::connect::{reference_det, ConnGen};
use crate::kernel;
use crate::store::{CoefMap, Det};
use crate::{recompute_norms, scan_block, SparseOptions, SparseResult, SweepStat, GRID_CHUNKS};
use fci_core::detspace::DetSpace;
use fci_core::hamiltonian::Hamiltonian;
use fci_obs::Category;

/// Coordinate updates per sweep (bookkeeping/convergence granularity).
const SWEEP: usize = 256;
/// Recompute (S, A) exactly every this many sweeps — drift control for
/// the incrementally tracked scalars.
const NORM_REFRESH_SWEEPS: usize = 64;

/// Ground-state CDFCI solve. Returns one energy; `opts.nroots` is
/// ignored (coordinate descent tracks a single state).
pub fn solve_cdfci(space: &DetSpace, ham: &Hamiltonian, opts: &SparseOptions) -> SparseResult {
    let tracer = opts.obs.tracer_or_warn();
    let threads = opts.threads.max(1);
    let refdet = reference_det(space, ham);
    let d_ref = ham.diagonal_element(refdet.a, refdet.b);
    let mut cg = ConnGen::for_space(space);
    let mut map = CoefMap::with_capacity(opts.max_store.min(1 << 10));
    let mut dropped = 0usize;

    // c = e_ref, b = H·e_ref (reference column), S = 1, A = H_rr.
    let rs = map.slot_or_insert(refdet);
    map.vals_mut()[rs] = [1.0, d_ref];
    let mut ref_connections = 0usize;
    cg.for_each_connection(ham, refdet, opts.h_cut, |j, h| {
        ref_connections += 1;
        add_to_b(&mut map, j, h, opts.max_store, &mut dropped);
    });
    let mut s_norm = 1.0f64;
    let mut a_dot = d_ref;

    tracer.instant(
        None,
        "cdfci_begin",
        Category::Other,
        &[
            ("connections", ref_connections as f64),
            ("e_ref", d_ref + ham.e_core),
            ("table_bytes", cg.table_bytes() as f64),
        ],
    );

    // Gradient floor: ‖b − ρc‖∞ below this means the energy error
    // (quadratic in the gradient) is far below `tol`.
    let grad_floor = opts.tol.max(1e-14).sqrt() * 0.1;
    let mut history: Vec<SweepStat> = Vec::new();
    let mut converged = false;
    let mut updates = 0usize;
    let mut peak = map.mem_bytes();
    let mut e_prev_sweep = f64::INFINITY;
    let mut sweep_t0 = tracer.now_us();

    // The block of the current scan, by key: an insert may rehash the
    // table, so slots do not survive an update.
    let mut block = [refdet; GRID_CHUNKS];
    let mut block_len = 0;
    let mut next = 0;
    // Gradient scans since the previous trace point (`cdfci_sweep`, then
    // `cdfci_end` for the last partial sweep).
    let mut scans = 0usize;
    // Whether the current block moved any coordinate; true lets the
    // first scan through.
    let mut moved = true;

    while updates < opts.max_updates {
        if next == block_len {
            if !moved {
                // No coordinate of a fresh block admits an improving
                // move: stationary.
                converged = true;
                break;
            }
            let (flags, keys, vals) = map.slots();
            let mut winners = [(usize::MAX, -1.0f64); GRID_CHUNKS];
            scan_block(threads, flags, vals, a_dot / s_norm, &mut winners);
            scans += 1;
            // An empty chunk's −1.0 is under any floor.
            block_len = winners.iter().take_while(|w| w.1 >= grad_floor).count();
            if block_len == 0 {
                converged = true;
                break;
            }
            for (key, w) in block.iter_mut().zip(&winners[..block_len]) {
                *key = keys[w.0];
            }
            next = 0;
            moved = false;
        }
        let det_i = block[next];
        next += 1;
        // Always found: the store never deletes.
        let Some(slot) = map.find(det_i) else {
            continue;
        };
        let [u, b_i] = map.slots().2[slot];
        let d_i = ham.diagonal_element(det_i.a, det_i.b);
        let t = kernel::cdfci_step(u, b_i, d_i, s_norm, a_dot);
        if t == 0.0 {
            continue;
        }
        moved = true;
        s_norm += t * (2.0 * u + t);
        a_dot += t * (2.0 * b_i + t * d_i);
        {
            let vals = map.vals_mut();
            vals[slot][0] = u + t;
            vals[slot][1] = b_i + t * d_i;
        }
        // The column update `b += t·H·e_i` over the connections of
        // `det_i`, sequential and in enumeration order: the store layout
        // stays a pure function of the update history.
        cg.for_each_connection(ham, det_i, opts.h_cut, |j, h| {
            add_to_b(&mut map, j, t * h, opts.max_store, &mut dropped);
        });

        updates += 1;
        if updates.is_multiple_of(SWEEP) {
            let sweep_no = updates / SWEEP;
            if sweep_no.is_multiple_of(NORM_REFRESH_SWEEPS) {
                let (flags, _keys, vals) = map.slots();
                let (s2, a2) = recompute_norms(threads, flags, vals);
                s_norm = s2;
                a_dot = a2;
            }
            let e_now = a_dot / s_norm;
            let now = tracer.now_us();
            let stat = SweepStat {
                sweep: sweep_no,
                support: map.len(),
                energy: e_now + ham.e_core,
                elapsed_us: now - sweep_t0,
            };
            sweep_t0 = now;
            history.push(stat);
            peak = peak.max(map.mem_bytes());
            tracer.instant(
                None,
                "cdfci_sweep",
                Category::Other,
                &[
                    ("sweep", stat.sweep as f64),
                    ("support", stat.support as f64),
                    ("energy", stat.energy),
                    ("store_bytes", map.mem_bytes() as f64),
                    ("dropped", dropped as f64),
                    ("sweep_us", stat.elapsed_us),
                    ("scans", scans as f64),
                ],
            );
            scans = 0;
            if (e_now - e_prev_sweep).abs() < opts.tol {
                converged = true;
                break;
            }
            e_prev_sweep = e_now;
        }
    }

    let e_final = a_dot / s_norm + ham.e_core;
    tracer.instant(
        None,
        "cdfci_end",
        Category::Other,
        &[
            ("updates", updates as f64),
            ("scans", scans as f64),
            ("support", map.len() as f64),
            ("energy", e_final),
        ],
    );
    SparseResult {
        energies: vec![e_final],
        converged,
        iterations: updates,
        support: map.len(),
        formal_dim: space.alpha.len() as f64 * space.beta.len() as f64,
        peak_bytes: peak.max(map.mem_bytes()),
        dropped,
        history,
    }
}

/// `b_j += th`, one term of a column update. Inserts `j` on first
/// contact while the store is under `max_store`; afterwards only existing
/// entries update and the rest are counted as dropped.
fn add_to_b(map: &mut CoefMap, j: Det, th: f64, max_store: usize, dropped: &mut usize) {
    if map.len() < max_store {
        let sj = map.slot_or_insert(j);
        map.vals_mut()[sj][1] += th;
    } else if let Some(sj) = map.find(j) {
        map.vals_mut()[sj][1] += th;
    } else {
        *dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fci_core::hamiltonian::random_hamiltonian;
    use fci_core::slater;
    use fci_linalg::eigh;

    /// Open half-filled Hubbard chain (t = 1, U = 4).
    fn hubbard_chain(sites: usize) -> (DetSpace, Hamiltonian) {
        let ham = Hamiltonian::new(&fci_scf::MoIntegrals::hubbard_chain(sites, 1.0, 4.0, false));
        let space = DetSpace::for_hamiltonian(&ham, sites / 2, sites / 2, 0);
        (space, ham)
    }

    fn dense_ground(space: &DetSpace, ham: &Hamiltonian) -> f64 {
        let h = slater::dense_h(space, ham);
        eigh(&h).eigenvalues[0] + ham.e_core
    }

    #[test]
    fn matches_dense_ground_state() {
        let ham = random_hamiltonian(6, 5);
        let space = DetSpace::c1(6, 3, 2);
        let opts = SparseOptions {
            tol: 1e-12,
            max_updates: 200_000,
            ..SparseOptions::default()
        };
        let res = solve_cdfci(&space, &ham, &opts);
        let exact = dense_ground(&space, &ham);
        assert!(res.converged);
        assert!(
            (res.energy() - exact).abs() < 1e-8,
            "cdfci {} vs dense {}",
            res.energy(),
            exact
        );
        assert!(res.support <= space.dim());
        assert!(!res.history.is_empty());
    }

    #[test]
    fn bounded_store_still_produces_an_estimate() {
        let ham = random_hamiltonian(6, 9);
        let space = DetSpace::c1(6, 3, 3);
        let opts = SparseOptions {
            max_store: 64,
            max_updates: 20_000,
            tol: 1e-10,
            ..SparseOptions::default()
        };
        let res = solve_cdfci(&space, &ham, &opts);
        assert!(res.support <= 64);
        assert!(res.dropped > 0, "cap must have bitten");
        // The variational estimate stays above... CDFCI's quotient is not
        // strictly variational under truncation, but it must be sane:
        let exact = dense_ground(&space, &ham);
        assert!((res.energy() - exact).abs() < 0.5);
    }

    #[test]
    fn thread_count_is_bitwise_invariant() {
        let ham = random_hamiltonian(6, 3);
        let space = DetSpace::c1(6, 3, 3);
        let run = |threads: usize| {
            let opts = SparseOptions {
                threads,
                tol: 1e-11,
                max_updates: 30_000,
                ..SparseOptions::default()
            };
            solve_cdfci(&space, &ham, &opts)
        };
        let r1 = run(1);
        let r2 = run(2);
        let r4 = run(4);
        assert_eq!(r1.energy().to_bits(), r2.energy().to_bits());
        assert_eq!(r1.energy().to_bits(), r4.energy().to_bits());
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.iterations, r4.iterations);
        assert_eq!(r1.support, r4.support);
    }

    #[test]
    fn thread_count_is_bitwise_invariant_on_the_threaded_scan_path() {
        // 63,504 determinants: the store reaches 16,384 slots, where the
        // grid walk goes threaded, after about 8,700 updates.
        let (space, ham) = hubbard_chain(10);
        let run = |threads: usize| {
            let opts = SparseOptions {
                threads,
                max_updates: 12_000,
                ..SparseOptions::default()
            };
            solve_cdfci(&space, &ham, &opts)
        };
        let r1 = run(1);
        assert!(r1.peak_bytes >= 16_384 * 33, "store stayed small");
        for threads in [2, 4] {
            let r = run(threads);
            assert_eq!(r1.energy().to_bits(), r.energy().to_bits());
            assert_eq!(r1.iterations, r.iterations);
            assert_eq!(r1.support, r.support);
        }
    }

    #[test]
    fn update_cap_is_honoured_mid_block() {
        let (space, ham) = hubbard_chain(8);
        let opts = SparseOptions {
            max_updates: 1_000, // 15 blocks of 64 and 40 more
            ..SparseOptions::default()
        };
        let res = solve_cdfci(&space, &ham, &opts);
        assert!(!res.converged);
        assert_eq!(res.iterations, 1_000);
        assert_eq!(res.history.len(), 1_000 / SWEEP);
    }
}
