//! Molecule → active-space MO integrals, the one recipe every molecular
//! FCI run in this workspace starts from: reference orbitals, symmetry
//! labels, then the frozen-core/active-window transform.

use crate::motran::{transform_integrals, MoIntegrals};
use crate::rhf::{core_hamiltonian, core_orbitals, rhf, RhfOptions};
use crate::symadapt::symmetry_adapt;
use fci_ints::{detect_point_group, eri_tensor, overlap, BasisSet, Molecule};
use fci_linalg::Matrix;

/// Which orbitals the active space is built from. FCI is invariant to
/// the choice within the window; the truncated window and the
/// diagonalizer's convergence rate are not.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orbitals {
    /// Converged closed-shell RHF orbitals when the molecule's total
    /// electron count is even, core-Hamiltonian orbitals when it is odd
    /// or the SCF does not converge. The rule reads the parity of the
    /// whole molecule, not the active α/β split: an even-electron open
    /// shell (O ³P) gets closed-shell RHF orbitals.
    Rhf,
    /// Core-Hamiltonian orbitals, whatever the electron count.
    Core,
}

/// An active space ready for FCI ([`active_space`]).
#[derive(Clone, Debug)]
pub struct ActiveSpace {
    /// Active-window MO integrals, each orbital labelled with its irrep
    /// (all irrep 0 without symmetry).
    pub mo: MoIntegrals,
    /// The orbitals the integrals are over (AO × MO, every orbital,
    /// frozen ones first).
    pub mo_coeffs: Matrix,
    /// Total energy and iteration count of the RHF, when one ran and
    /// converged.
    pub scf: Option<(f64, usize)>,
    /// Point-group name ("D2h", "C2v", …; "C1" without symmetry).
    pub group: &'static str,
}

/// Build the active space of `molecule` in `basis`: `frozen` doubly
/// occupied orbitals folded into the core, then `active` orbitals
/// (`None` = all the rest). With `symmetry`, the orbitals are adapted to
/// the detected abelian point group and labelled with their irreps.
pub fn active_space(
    molecule: &Molecule,
    basis: &BasisSet,
    orbitals: Orbitals,
    frozen: usize,
    active: Option<usize>,
    symmetry: bool,
) -> ActiveSpace {
    let scf = (orbitals == Orbitals::Rhf && molecule.n_electrons().is_multiple_of(2))
        .then(|| rhf(molecule, basis, &RhfOptions::default()));
    let (c, h_ao, eri_ao, scf) = match scf {
        Some(r) if r.converged => (
            r.mo_coeffs,
            r.h_ao,
            r.eri_ao,
            Some((r.energy, r.iterations)),
        ),
        Some(r) => (core_orbitals(basis, molecule).0, r.h_ao, r.eri_ao, None),
        None => (
            core_orbitals(basis, molecule).0,
            core_hamiltonian(basis, molecule),
            eri_tensor(basis),
            None,
        ),
    };
    let nao = basis.n_basis();
    let (c, irreps, group, n_irrep) = if symmetry {
        let pg = detect_point_group(molecule);
        let (c, irreps) = symmetry_adapt(&pg, basis, &overlap(basis), &c);
        (c, irreps, pg.name(), pg.n_irrep())
    } else {
        (c, vec![0; nao], "C1", 1)
    };
    let active = active.unwrap_or(nao - frozen);
    let mo = transform_integrals(
        &h_ao,
        &eri_ao,
        &c,
        molecule.nuclear_repulsion(),
        frozen,
        active,
    )
    .with_symmetry(irreps[frozen..frozen + active].to_vec(), n_irrep);
    ActiveSpace {
        mo,
        mo_coeffs: c,
        scf,
        group,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orbitals_follow_the_request_and_the_electron_count_parity() {
        let h2 = |charge| {
            Molecule::from_symbols_bohr(&[("H", [0.0, 0.0, -0.7]), ("H", [0.0, 0.0, 0.7])], charge)
        };
        let build = |mol: &Molecule, orbitals, symmetry| {
            active_space(
                mol,
                &BasisSet::build(mol, "sto-3g"),
                orbitals,
                0,
                None,
                symmetry,
            )
        };
        let rhf = build(&h2(0), Orbitals::Rhf, true);
        assert!(rhf
            .scf
            .is_some_and(|(e, iterations)| e < -1.1 && iterations > 0));
        // σg (totally symmetric) then σu.
        assert_eq!(
            (rhf.group, rhf.mo.n_irrep, &rhf.mo.orb_sym[..]),
            ("D2h", 8, &[0, 4][..])
        );
        assert_eq!(build(&h2(1), Orbitals::Rhf, false).scf, None);
        let core = build(&h2(0), Orbitals::Core, false);
        assert_eq!(
            (core.scf, core.group, &core.mo.orb_sym[..]),
            (None, "C1", &[0, 0][..])
        );
    }
}
