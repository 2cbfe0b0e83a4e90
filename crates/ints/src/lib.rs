#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Molecular integrals over contracted Cartesian Gaussian basis functions.
//!
//! The paper's benchmark calculations consume one- and two-electron
//! molecular integrals (`h_pq`, `(pq|rs)`) produced by a conventional
//! quantum-chemistry stack. That stack is proprietary-adjacent tooling we
//! rebuild here from scratch using the McMurchie–Davidson scheme:
//!
//! * [`molecule`] — elements, geometries, nuclear repulsion;
//! * [`basis`] — contracted Cartesian shells (s, p, d, …), embedded basis
//!   set data (STO-3G plus a programmatically derived split-valence /
//!   polarization set — see `DESIGN.md` for why we avoid transcribing
//!   larger literature sets);
//! * [`boys`] — the Boys function `F_m(T)`;
//! * [`md`] — Hermite expansion (E) coefficients and Hermite Coulomb (R)
//!   integrals;
//! * [`oneint`] / [`eri`] — overlap, kinetic, nuclear-attraction matrices
//!   and the packed 8-fold-symmetric two-electron integral tensor;
//! * [`symmetry`] — detection of abelian (D2h-subgroup) point-group
//!   operations and their signed-permutation representation in the AO
//!   basis, used to tag molecular orbitals with irreps for
//!   symmetry-blocked FCI.
//!
//! Correctness is established through internal invariants (Hermiticity,
//! translation/rotation invariance, variational bounds) rather than
//! transcription of literature tables; see the crate tests.

pub mod basis;
pub mod boys;
pub mod eri;
pub mod md;
pub mod molecule;
pub mod oneint;
pub mod symmetry;

pub use basis::{BasisSet, Shell};
pub use eri::{eri_tensor, EriTensor};
pub use molecule::{Atom, Molecule, ANGSTROM_TO_BOHR};
pub use oneint::{dipole, kinetic, nuclear_attraction, overlap};
pub use symmetry::{detect_point_group, mo_irreps, PointGroup, SymmetryOp};
