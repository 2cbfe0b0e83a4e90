//! The benchmark *systems*: molecule → integrals → orbitals → active-space
//! MO integrals with symmetry labels, and the catalogue of scaled-down
//! analogues of the paper's systems (see DESIGN.md §2 for the
//! substitution rationale):
//!
//! | paper | here |
//! |---|---|
//! | H3COH / cc-pVDZ-class | H2O / svp (frozen core) |
//! | H2O2 | HOOH / sto-3g (frozen cores) |
//! | CN⁺ (strong multireference) | CN⁺ / sto-3g (frozen cores) |
//! | O ³P / aug-cc-pVQZ | O ³P / svp window |
//! | O⁻ / aug-cc-pVQZ (Fig. 5) | O⁻ / svp window |
//! | C2 X¹Σg⁺ / cc-pVTZ(+) 65e9 dets | C2 / svp window, D2h blocked |

use fci_core::{
    apply_sigma, lowest_det_irrep, solve_prepared, DetSpace, DiagMethod, DiagOptions, FciOptions,
    FciResult, Hamiltonian, PoolParams, SigmaBreakdown, SigmaCtx, SigmaMethod,
};
use fci_ddi::{Backend, Ddi};
use fci_ints::{BasisSet, Molecule};
use fci_scf::{active_space, Orbitals};
use fci_xsim::MachineModel;

/// A fully prepared benchmark system: its Hamiltonian and the
/// determinant space of its target state, built once.
pub(crate) struct System {
    pub(crate) name: String,
    /// Point-group name ("D2h", "C2v", …).
    pub(crate) group: &'static str,
    /// Active-space α/β electron counts.
    pub(crate) na: usize,
    pub(crate) nb: usize,
    /// RHF total energy if an SCF was converged.
    pub(crate) e_scf: Option<f64>,
    /// Active-space Hamiltonian.
    pub(crate) ham: Hamiltonian,
    /// Determinants of the target state's symmetry sector: the irrep of
    /// the lowest-diagonal determinant.
    pub(crate) space: DetSpace,
}

impl System {
    /// Solve the system on `nproc` virtual MSPs of the simulated X1 (DGEMM
    /// σ, the solver's defaults for everything but the diagonaliser).
    pub(crate) fn solve(&self, nproc: usize, method: DiagMethod, diag: DiagOptions) -> FciResult {
        let opts = FciOptions {
            nproc,
            method,
            diag,
            ..FciOptions::default()
        };
        solve_prepared(&self.space, &self.ham, &opts)
    }

    /// One σ of the lowest-diagonal guess on `p` virtual MSPs (Table 1,
    /// Figs. 4–5, the pool ablation).
    pub(crate) fn sigma(&self, p: usize, method: SigmaMethod, pool: PoolParams) -> SigmaBreakdown {
        let ddi = Ddi::new(p, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &self.space,
            ham: &self.ham,
            ddi: &ddi,
            model: &model,
            pool,
        };
        apply_sigma(&ctx, &self.space.guess(&self.ham, p), method).1
    }

    pub(crate) fn describe(&self) -> String {
        format!(
            "system: {} (n={}, Nα={}, Nβ={}, dim={})",
            self.name,
            self.ham.n,
            self.na,
            self.nb,
            self.space.dim()
        )
    }
}

/// Build a benchmark system.
///
/// * `n_frozen` — doubly occupied orbitals folded into the core;
/// * `n_active` — active orbital count (`None` = all remaining);
/// * `na`/`nb` — active-space electron counts (after freezing);
/// * `use_symmetry` — detect the point group and label orbitals.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prepare(
    name: &str,
    molecule: &Molecule,
    basis_name: &str,
    orbitals: Orbitals,
    n_frozen: usize,
    n_active: Option<usize>,
    na: usize,
    nb: usize,
    use_symmetry: bool,
) -> System {
    assert!(
        na + nb + 2 * n_frozen == molecule.n_electrons(),
        "electron bookkeeping: {na}α + {nb}β active + {n_frozen} frozen pairs ≠ {} electrons",
        molecule.n_electrons()
    );
    let basis = BasisSet::build(molecule, basis_name);
    let a = active_space(molecule, &basis, orbitals, n_frozen, n_active, use_symmetry);
    let ham = Hamiltonian::new(&a.mo);
    let space = DetSpace::for_hamiltonian(&ham, na, nb, lowest_det_irrep(&ham, na, nb));
    System {
        name: name.to_string(),
        group: a.group,
        na,
        nb,
        e_scf: a.scf.map(|(e, _)| e),
        ham,
        space,
    }
}

// ---------------- benchmark system catalogue ----------------

/// H2O in its equilibrium-ish geometry.
pub(crate) fn water() -> Molecule {
    Molecule::from_symbols_bohr(
        &[
            ("O", [0.0, 0.0, 0.0]),
            ("H", [0.0, 1.4305, 1.1092]),
            ("H", [0.0, -1.4305, 1.1092]),
        ],
        0,
    )
}

/// Hydrogen peroxide, HOOH (planar-trans model geometry, Cs→C2h-ish but
/// deliberately aligned to keep a C2 axis).
pub(crate) fn hooh() -> Molecule {
    Molecule::from_symbols_bohr(
        &[
            ("O", [0.0, 1.37, 0.0]),
            ("O", [0.0, -1.37, 0.0]),
            ("H", [1.6, 1.9, 0.0]),
            ("H", [-1.6, -1.9, 0.0]),
        ],
        0,
    )
}

/// CN⁺ — the strongly multi-reference cation from Table 2.
pub(crate) fn cn_plus() -> Molecule {
    Molecule::from_symbols_bohr(&[("C", [0.0, 0.0, -1.1]), ("N", [0.0, 0.0, 1.1])], 1)
}

/// Atomic oxygen.
pub(crate) fn o_atom(charge: i32) -> Molecule {
    Molecule::from_symbols_bohr(&[("O", [0.0, 0.0, 0.0])], charge)
}

/// C2 at its ~1.24 Å bond length.
pub(crate) fn c2() -> Molecule {
    Molecule::from_symbols_bohr(&[("C", [0.0, 0.0, -1.17]), ("C", [0.0, 0.0, 1.17])], 0)
}

/// The four Table 2 convergence-study systems (scaled-down analogues).
pub(crate) fn table2_systems() -> Vec<System> {
    vec![
        prepare(
            "H2O/svp fc",
            &water(),
            "svp",
            Orbitals::Rhf,
            1,
            Some(8),
            4,
            4,
            true,
        ),
        prepare(
            "HOOH/sto-3g fc",
            &hooh(),
            "sto-3g",
            Orbitals::Rhf,
            2,
            None,
            7,
            7,
            true,
        ),
        prepare(
            "CN+/sto-3g fc",
            &cn_plus(),
            "sto-3g",
            Orbitals::Rhf,
            2,
            None,
            4,
            4,
            true,
        ),
        prepare(
            "O 3P/svp",
            &o_atom(0),
            "svp",
            Orbitals::Core,
            1,
            Some(12),
            4,
            2,
            true,
        ),
    ]
}

/// O-atom analogue used for Table 1 and the Fig. 4 strong-scaling
/// comparison.
pub(crate) fn fig4_system() -> System {
    prepare(
        "O 3P/svp(12)",
        &o_atom(0),
        "svp",
        Orbitals::Core,
        1,
        Some(12),
        4,
        2,
        false,
    )
}

/// O⁻ analogue used for the Fig. 5 speedup study and the task-pool
/// ablation (larger space: 9 electrons in 14 orbitals, 2 004 002
/// determinants).
pub(crate) fn fig5_system() -> System {
    prepare(
        "O-/svp(14)",
        &o_atom(-1),
        "svp",
        Orbitals::Core,
        0,
        Some(14),
        5,
        4,
        false,
    )
}

/// C2 X¹Σg⁺ analogue for the Table 3 capability run (D2h blocked,
/// FCI(8,16): 3.3 million determinants — large enough that the 432
/// virtual MSPs all hold work, with C(16,3) = 560 mixed-spin task units).
pub(crate) fn c2_system() -> System {
    prepare(
        "C2 X1Sg+/svp(16)",
        &c2(),
        "svp",
        Orbitals::Rhf,
        2,
        Some(16),
        4,
        4,
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_molecules_sane() {
        assert_eq!(water().n_electrons(), 10);
        assert_eq!(hooh().n_electrons(), 18);
        assert_eq!(cn_plus().n_electrons(), 12);
        assert_eq!(o_atom(-1).n_electrons(), 9);
        assert_eq!(c2().n_electrons(), 12);
    }

    #[test]
    fn prepare_small_system() {
        // The cheapest catalogue entry end-to-end.
        let sys = prepare(
            "h2",
            &Molecule::from_symbols_bohr(&[("H", [0.0, 0.0, -0.7]), ("H", [0.0, 0.0, 0.7])], 0),
            "sto-3g",
            Orbitals::Rhf,
            0,
            None,
            1,
            1,
            true,
        );
        assert_eq!(sys.ham.n, 2);
        assert!(sys.e_scf.is_some());
        assert_eq!(sys.group, "D2h");
        // σg ⊗ σg ground state is totally symmetric.
        assert_eq!(sys.space.target_irrep, 0);
        assert_eq!(sys.space.sector_dim(), 2);
    }
}
