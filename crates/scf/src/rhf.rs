//! Restricted Hartree–Fock with DIIS.

use fci_ints::{eri_tensor, kinetic, nuclear_attraction, overlap, BasisSet, EriTensor, Molecule};
use fci_linalg::{eigh, lu_solve, Matrix};

/// Löwdin symmetric orthogonalizer `X = S^{−1/2}` (so `Xᵀ S X = 1`).
///
/// Panics if the overlap has eigenvalues below `1e-10` (linear dependence).
pub(crate) fn lowdin(s: &Matrix) -> Matrix {
    let e = eigh(s);
    let n = s.nrows();
    for &w in &e.eigenvalues {
        assert!(
            w > 1e-10,
            "overlap matrix is (numerically) singular: eigenvalue {w}"
        );
    }
    // X = U diag(w^{-1/2}) Uᵀ
    let mut us = Matrix::zeros(n, n);
    for j in 0..n {
        let f = 1.0 / e.eigenvalues[j].sqrt();
        for i in 0..n {
            us[(i, j)] = e.eigenvectors[(i, j)] * f;
        }
    }
    us.matmul_t(&e.eigenvectors)
}

/// AO core Hamiltonian: kinetic energy plus nuclear attraction.
pub(crate) fn core_hamiltonian(basis: &BasisSet, molecule: &Molecule) -> Matrix {
    let mut h = kinetic(basis);
    h.axpy(1.0, &nuclear_attraction(basis, molecule));
    h
}

/// Eigenvectors of the core Hamiltonian in an orthonormalized AO basis —
/// a cheap, symmetry-clean orbital set for open-shell FCI runs.
pub fn core_orbitals(basis: &BasisSet, molecule: &Molecule) -> (Matrix, Vec<f64>) {
    let s = overlap(basis);
    let h = core_hamiltonian(basis, molecule);
    let x = lowdin(&s);
    let hp = x.t_matmul(&h).matmul(&x);
    let e = eigh(&hp);
    (x.matmul(&e.eigenvectors), e.eigenvalues)
}

/// RHF options.
#[derive(Clone, Debug)]
pub struct RhfOptions {
    /// Maximum SCF iterations.
    pub max_iter: usize,
    /// Convergence threshold on the DIIS error norm.
    pub conv: f64,
    /// Number of Fock matrices kept for DIIS (0 disables DIIS).
    pub diis_depth: usize,
}

impl Default for RhfOptions {
    fn default() -> Self {
        RhfOptions {
            max_iter: 100,
            conv: 1e-9,
            diis_depth: 8,
        }
    }
}

/// Converged RHF wavefunction.
#[derive(Clone, Debug)]
pub struct RhfResult {
    /// Total RHF energy (electronic + nuclear repulsion), hartree.
    pub energy: f64,
    /// Nuclear repulsion energy.
    pub e_nuc: f64,
    /// MO coefficients (AO × MO), all orbitals, ascending orbital energy.
    pub mo_coeffs: Matrix,
    /// Orbital energies.
    pub mo_energies: Vec<f64>,
    /// Number of doubly occupied orbitals.
    pub n_occ: usize,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the convergence threshold was met.
    pub converged: bool,
    /// AO overlap matrix (kept for symmetry analysis downstream).
    pub s_ao: Matrix,
    /// AO core Hamiltonian.
    pub h_ao: Matrix,
    /// AO two-electron integrals.
    pub eri_ao: EriTensor,
}

/// Run closed-shell RHF. Panics if the electron count is odd.
pub fn rhf(molecule: &Molecule, basis: &BasisSet, opts: &RhfOptions) -> RhfResult {
    let nelec = molecule.n_electrons();
    assert!(
        nelec.is_multiple_of(2),
        "RHF requires an even electron count (got {nelec})"
    );
    let nocc = nelec / 2;
    let n = basis.n_basis();
    assert!(
        nocc <= n,
        "not enough basis functions for {nelec} electrons"
    );

    let s = overlap(basis);
    let h = {
        let mut t = kinetic(basis);
        t.axpy(1.0, &nuclear_attraction(basis, molecule));
        t
    };
    let eri = eri_tensor(basis);
    let e_nuc = molecule.nuclear_repulsion();
    let x = lowdin(&s);

    // Core guess.
    let mut c = {
        let hp = x.t_matmul(&h).matmul(&x);
        let e = eigh(&hp);
        x.matmul(&e.eigenvectors)
    };
    let mut mo_energies = vec![0.0; n];
    let mut energy = 0.0;
    let mut converged = false;
    let mut iterations = 0;

    let mut diis_focks: Vec<Matrix> = Vec::new();
    let mut diis_errs: Vec<Matrix> = Vec::new();

    for it in 0..opts.max_iter {
        iterations = it + 1;
        // Density D_{μν} = 2 Σ_occ C_{μi} C_{νi}.
        let mut d = Matrix::zeros(n, n);
        for i in 0..nocc {
            for mu in 0..n {
                for nu in 0..n {
                    d[(mu, nu)] += 2.0 * c[(mu, i)] * c[(nu, i)];
                }
            }
        }
        // Fock build.
        let mut f = h.clone();
        for mu in 0..n {
            for nu in 0..=mu {
                let mut j = 0.0;
                let mut k = 0.0;
                for la in 0..n {
                    for sg in 0..n {
                        let dls = d[(la, sg)];
                        if dls == 0.0 {
                            continue;
                        }
                        j += dls * eri.get(mu, nu, la, sg);
                        k += dls * eri.get(mu, la, nu, sg);
                    }
                }
                let v = f[(mu, nu)] + j - 0.5 * k;
                f[(mu, nu)] = v;
                f[(nu, mu)] = v;
            }
        }
        // Energy.
        let mut e_el = 0.0;
        for mu in 0..n {
            for nu in 0..n {
                e_el += 0.5 * d[(mu, nu)] * (h[(mu, nu)] + f[(mu, nu)]);
            }
        }
        energy = e_el + e_nuc;

        // DIIS error e = X ᵀ(FDS − SDF) X.
        let fds = f.matmul(&d).matmul(&s);
        let sdf = s.matmul(&d).matmul(&f);
        let mut err = fds;
        err.axpy(-1.0, &sdf);
        let err = x.t_matmul(&err).matmul(&x);
        let err_norm = err.norm();

        if err_norm < opts.conv {
            converged = true;
            // Final orbitals from this Fock matrix.
            let fp = x.t_matmul(&f).matmul(&x);
            let e = eigh(&fp);
            c = x.matmul(&e.eigenvectors);
            mo_energies = e.eigenvalues;
            break;
        }

        // DIIS extrapolation.
        let f_use = if opts.diis_depth >= 2 {
            diis_focks.push(f.clone());
            diis_errs.push(err);
            if diis_focks.len() > opts.diis_depth {
                diis_focks.remove(0);
                diis_errs.remove(0);
            }
            if diis_focks.len() >= 2 {
                diis_extrapolate(&diis_focks, &diis_errs).unwrap_or(f)
            } else {
                f
            }
        } else {
            f
        };

        let fp = x.t_matmul(&f_use).matmul(&x);
        let e = eigh(&fp);
        c = x.matmul(&e.eigenvectors);
        mo_energies = e.eigenvalues;
    }

    RhfResult {
        energy,
        e_nuc,
        mo_coeffs: c,
        mo_energies,
        n_occ: nocc,
        iterations,
        converged,
        s_ao: s,
        h_ao: h,
        eri_ao: eri,
    }
}

/// Solve the DIIS linear system and mix the stored Fock matrices.
fn diis_extrapolate(focks: &[Matrix], errs: &[Matrix]) -> Option<Matrix> {
    let m = focks.len();
    // B matrix with the Lagrange constraint row/column.
    let mut b = Matrix::zeros(m + 1, m + 1);
    for i in 0..m {
        for j in 0..m {
            b[(i, j)] = errs[i].dot(&errs[j]);
        }
        b[(i, m)] = -1.0;
        b[(m, i)] = -1.0;
    }
    let mut rhs = vec![0.0; m + 1];
    rhs[m] = -1.0;
    let coef = lu_solve(&b, &rhs).ok()?;
    let (nr, nc) = focks[0].shape();
    let mut f = Matrix::zeros(nr, nc);
    for i in 0..m {
        f.axpy(coef[i], &focks[i]);
    }
    Some(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h2(r: f64) -> (Molecule, BasisSet) {
        let m = Molecule::from_symbols_bohr(&[("H", [0.0, 0.0, 0.0]), ("H", [0.0, 0.0, r])], 0);
        let b = BasisSet::build(&m, "sto-3g");
        (m, b)
    }

    #[test]
    fn lowdin_orthogonalizes() {
        let (_, b) = h2(1.4);
        let s = overlap(&b);
        let x = lowdin(&s);
        let i = x.t_matmul(&s).matmul(&x);
        assert!(i.max_abs_diff(&Matrix::eye(b.n_basis())) < 1e-12);
    }

    #[test]
    fn h2_sto3g_energy() {
        // RHF/STO-3G H2 at R = 1.4 a0: −1.1167 Eh in Szabo & Ostlund
        // (1989), ch. 3, which prints the integrals this energy comes
        // from (see fci-ints' `h2_sto3g_matches_the_textbook`).
        let (m, b) = h2(1.4);
        let res = rhf(&m, &b, &RhfOptions::default());
        assert!(res.converged, "SCF did not converge");
        assert!(
            (res.energy + 1.11671433).abs() < 1e-8,
            "E = {} (expected −1.11671433)",
            res.energy
        );
        assert_eq!(res.n_occ, 1);
        // Orbital ordering: bonding below antibonding.
        assert!(res.mo_energies[0] < res.mo_energies[1]);
    }

    #[test]
    fn he_sto3g_energy() {
        // Literature RHF/STO-3G He energy −2.8078 Eh.
        let m = Molecule::from_symbols_bohr(&[("He", [0.0; 3])], 0);
        let b = BasisSet::build(&m, "sto-3g");
        let res = rhf(&m, &b, &RhfOptions::default());
        assert!(res.converged);
        assert!((res.energy + 2.80778396).abs() < 1e-8, "E = {}", res.energy);
    }

    #[test]
    fn mo_orthonormality() {
        let (m, b) = h2(1.4);
        let res = rhf(&m, &b, &RhfOptions::default());
        let ctsc = res.mo_coeffs.t_matmul(&res.s_ao).matmul(&res.mo_coeffs);
        assert!(ctsc.max_abs_diff(&Matrix::eye(b.n_basis())) < 1e-10);
    }

    #[test]
    fn water_scf_converges() {
        let m = Molecule::from_symbols_bohr(
            &[
                ("O", [0.0, 0.0, 0.0]),
                ("H", [0.0, 1.43, 1.11]),
                ("H", [0.0, -1.43, 1.11]),
            ],
            0,
        );
        let b = BasisSet::build(&m, "sto-3g");
        let res = rhf(&m, &b, &RhfOptions::default());
        assert!(
            res.converged,
            "water SCF failed after {} iterations",
            res.iterations
        );
        // Literature RHF/STO-3G water energies sit near −74.96 Eh for
        // geometries in this range; accept a broad physical window.
        assert!(
            res.energy < -74.0 && res.energy > -76.0,
            "E = {}",
            res.energy
        );
        assert_eq!(res.n_occ, 5);
    }

    #[test]
    fn diis_beats_plain_iteration() {
        let m = Molecule::from_symbols_bohr(
            &[
                ("O", [0.0, 0.0, 0.0]),
                ("H", [0.0, 1.43, 1.11]),
                ("H", [0.0, -1.43, 1.11]),
            ],
            0,
        );
        let b = BasisSet::build(&m, "sto-3g");
        let with = rhf(
            &m,
            &b,
            &RhfOptions {
                diis_depth: 8,
                ..Default::default()
            },
        );
        let without = rhf(
            &m,
            &b,
            &RhfOptions {
                diis_depth: 0,
                max_iter: 300,
                ..Default::default()
            },
        );
        assert!(with.converged && without.converged);
        assert!((with.energy - without.energy).abs() < 1e-7);
        assert!(with.iterations <= without.iterations);
    }

    #[test]
    fn hydrogen_atom_core_orbitals_variational() {
        // Core-Hamiltonian ground state of H atom = exact RHF for 1 e⁻;
        // with an even-tempered basis the energy approaches −0.5 from above.
        let small = BasisSet::even_tempered_s([0.0; 3], 4, 0.1, 3.0);
        let big = BasisSet::even_tempered_s([0.0; 3], 10, 0.02, 2.5);
        let mol = Molecule::from_symbols_bohr(&[("H", [0.0; 3])], 0);
        let (_, e_small) = core_orbitals(&small, &mol);
        let (_, e_big) = core_orbitals(&big, &mol);
        assert!(e_small[0] > -0.5);
        assert!(e_big[0] > -0.5);
        assert!(e_big[0] < e_small[0], "bigger basis must be lower");
        assert!(
            e_big[0] < -0.499,
            "10-term even-tempered should be near-exact: {}",
            e_big[0]
        );
    }

    #[test]
    fn svp_lower_than_sto3g() {
        // Bigger basis, lower RHF energy (variational in basis size when
        // the smaller set's span is nearly contained — holds for H2).
        let (m, b1) = h2(1.4);
        let b2 = BasisSet::build(&m, "svp");
        let e1 = rhf(&m, &b1, &RhfOptions::default());
        let e2 = rhf(&m, &b2, &RhfOptions::default());
        assert!(e2.converged);
        assert!(
            e2.energy < e1.energy,
            "svp {} !< sto-3g {}",
            e2.energy,
            e1.energy
        );
    }
}
