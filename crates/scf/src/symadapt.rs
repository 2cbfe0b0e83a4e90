//! Symmetry adaptation of molecular orbitals.
//!
//! Eigenvectors of a symmetric operator within a *degenerate* level (e.g.
//! the πx/πy pair of a linear molecule) can come out in an arbitrary
//! mixture of irreps, which breaks the per-orbital irrep labelling the
//! symmetry-blocked FCI needs. This module projects each orbital onto the
//! abelian group's irreps, assigns it to the irrep with the most weight
//! left outside the orbitals already assigned there, and
//! re-orthonormalizes — after which [`fci_ints::mo_irreps`] succeeds.

use fci_ints::{BasisSet, PointGroup};
use fci_linalg::Matrix;

/// Projection-based symmetry cleanup of an orbital set.
///
/// * `c` — MO coefficients (AO × MO), assumed S-orthonormal;
/// * `s` — AO overlap.
///
/// Returns `(c_adapted, irreps)`, in the input's orbital order. Orbital
/// `m` goes to the irrep `g` whose projection `P_g c_m` keeps the most
/// S-weight after removing its components along the orbitals `m' < m`
/// already in `g`; it is that projection, normalized, then Gram–Schmidt
/// orthogonalized against them. Of a degenerate pair mixed at any angle,
/// the first partner takes one irrep and the second the other (by
/// weight alone, a pair mixed at 45° would send both to the same irrep).
/// Panics if an orbital has no weight left in any irrep, i.e. the input
/// does not span whole irrep sectors — not the case for an S-orthonormal
/// set of eigenvectors of a symmetric operator.
pub fn symmetry_adapt(
    pg: &PointGroup,
    basis: &BasisSet,
    s: &Matrix,
    c: &Matrix,
) -> (Matrix, Vec<u8>) {
    let nao = c.nrows();
    let nmo = c.ncols();
    let nops = pg.ops.len();
    let reps: Vec<Vec<(usize, f64)>> = pg.ops.iter().map(|op| op.ao_rep(basis)).collect();

    let mut adapted = Matrix::zeros(nao, nmo);
    let mut irreps = vec![0u8; nmo];
    // Orbitals assigned to each irrep so far, in order.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); nops];
    let mut buf = vec![0.0f64; nao];
    let mut sbuf = vec![0.0f64; nao];
    let mut best_buf = vec![0.0f64; nao];
    for m in 0..nmo {
        let cm = c.col(m);
        // (residual weight, weight, irrep) of the best projection so far.
        let mut best = (0.0f64, 0.0f64, 0u8);
        for g in 0..nops as u8 {
            // P_g c = (1/|G|) Σ_op χ_g(op) R_op c
            buf.iter_mut().for_each(|x| *x = 0.0);
            for (oi, rep) in reps.iter().enumerate() {
                let chi = pg.character(g, oi);
                for (mu, &(img, sgn)) in rep.iter().enumerate() {
                    buf[img] += chi * sgn * cm[mu];
                }
            }
            buf.iter_mut().for_each(|x| *x /= nops as f64);
            // Weight = ⟨P c | S | P c⟩.
            let mut w = 0.0;
            for i in 0..nao {
                let mut t = 0.0;
                for j in 0..nao {
                    t += s[(i, j)] * buf[j];
                }
                sbuf[i] = t;
                w += buf[i] * t;
            }
            // Minus its components along g's earlier orbitals.
            let mut left = w;
            for &m2 in &members[g as usize] {
                let ov: f64 = (0..nao).map(|i| adapted[(i, m2)] * sbuf[i]).sum();
                left -= ov * ov;
            }
            if left > best.0 {
                best = (left, w, g);
                best_buf.copy_from_slice(&buf);
            }
        }
        let (left, w, g) = best;
        assert!(left > 1e-6, "orbital {m} has no irrep component left");
        irreps[m] = g;
        let nrm = w.sqrt();
        for i in 0..nao {
            adapted[(i, m)] = best_buf[i] / nrm;
        }

        // Re-orthonormalize against g's earlier orbitals by Gram–Schmidt
        // in the S metric (projections of different irreps are already
        // S-orthogonal).
        for &m2 in &members[g as usize] {
            let mut ov = 0.0;
            for i in 0..nao {
                let mut t = 0.0;
                for j in 0..nao {
                    t += s[(i, j)] * adapted[(j, m2)];
                }
                ov += adapted[(i, m)] * t;
            }
            for i in 0..nao {
                let sub = ov * adapted[(i, m2)];
                adapted[(i, m)] -= sub;
            }
        }
        let mut nn = 0.0;
        for i in 0..nao {
            let mut t = 0.0;
            for j in 0..nao {
                t += s[(i, j)] * adapted[(j, m)];
            }
            nn += adapted[(i, m)] * t;
        }
        assert!(
            nn > 1e-8,
            "orbital {m} collapsed during re-orthogonalization"
        );
        let nrm = nn.sqrt();
        for i in 0..nao {
            adapted[(i, m)] /= nrm;
        }
        members[g as usize].push(m);
    }
    (adapted, irreps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rhf::core_orbitals;
    use fci_ints::{detect_point_group, mo_irreps, overlap, Molecule};

    #[test]
    fn n2_core_orbitals_adapt_to_d2h() {
        let m =
            Molecule::from_symbols_bohr(&[("N", [0.0, 0.0, -1.05]), ("N", [0.0, 0.0, 1.05])], 0);
        let b = BasisSet::build(&m, "sto-3g");
        let s = overlap(&b);
        let (c, e) = core_orbitals(&b, &m);
        let pg = detect_point_group(&m);
        assert_eq!(pg.n_irrep(), 8);
        // The same orbitals with the first degenerate pair rotated by
        // 45°, so each partner has equal weight in the pair's two irreps.
        let k = (0..e.len() - 1)
            .find(|&k| (e[k + 1] - e[k]).abs() < 1e-10)
            .expect("a linear molecule has a degenerate π level");
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let mut mixed = c.clone();
        for i in 0..c.nrows() {
            mixed[(i, k)] = h * (c[(i, k)] + c[(i, k + 1)]);
            mixed[(i, k + 1)] = h * (c[(i, k)] - c[(i, k + 1)]);
        }
        for input in [&c, &mixed] {
            let (cad, irreps) = symmetry_adapt(&pg, &b, &s, input);
            // Adapted orbitals must now pass the strict irrep detector
            // and agree with the labels we assigned.
            let detected =
                mo_irreps(&pg, &b, &s, &cad, 1e-7).expect("adapted orbitals must be clean");
            assert_eq!(detected, irreps);
            assert_ne!(irreps[k], irreps[k + 1]);
            // Orthonormality retained.
            let ctsc = cad.t_matmul(&s).matmul(&cad);
            assert!(ctsc.max_abs_diff(&Matrix::eye(c.ncols())) < 1e-9);
            // A linear molecule must show π-type (degenerate) irreps ≠ 0.
            let distinct: std::collections::HashSet<u8> = irreps.iter().copied().collect();
            assert!(
                distinct.len() >= 4,
                "expected several irreps, got {distinct:?}"
            );
        }
    }

    #[test]
    fn c1_molecule_all_totally_symmetric() {
        let m = Molecule::from_symbols_bohr(
            &[
                ("O", [0.0; 3]),
                ("H", [0.0, 1.43, 1.11]),
                ("F", [0.3, -1.0, 0.7]),
            ],
            0,
        );
        let b = BasisSet::build(&m, "sto-3g");
        let s = overlap(&b);
        let (c, _) = core_orbitals(&b, &m);
        let pg = detect_point_group(&m);
        let (_, irreps) = symmetry_adapt(&pg, &b, &s, &c);
        assert!(irreps.iter().all(|&g| g == 0));
    }

    #[test]
    fn characters_multiply_correctly() {
        let m = Molecule::from_symbols_bohr(&[("C", [0.0, 0.0, -1.2]), ("C", [0.0, 0.0, 1.2])], 0);
        let pg = detect_point_group(&m);
        // χ_g is a homomorphism: χ(op1)χ(op2) = χ(op1∘op2).
        for g in 0..pg.n_irrep() as u8 {
            for i in 0..pg.ops.len() {
                for j in 0..pg.ops.len() {
                    let prod_mask = pg.ops[i].flips ^ pg.ops[j].flips;
                    let k = pg.ops.iter().position(|o| o.flips == prod_mask).unwrap();
                    assert_eq!(
                        pg.character(g, i) * pg.character(g, j),
                        pg.character(g, k),
                        "irrep {g}, ops {i},{j}"
                    );
                }
            }
        }
    }
}
