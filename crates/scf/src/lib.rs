#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Self-consistent field and integral transformation layer.
//!
//! The FCI program consumes *molecular orbital* integrals. This crate turns
//! the raw AO integrals from `fci-ints` into that form:
//!
//! * [`rhf()`] — restricted Hartree–Fock with DIIS convergence acceleration
//!   (closed-shell reference orbitals; also the baseline energy the FCI
//!   correlation energy is measured against);
//! * [`core_orbitals`] — core-Hamiltonian eigenvectors in the Löwdin basis,
//!   used as FCI orbitals for open-shell systems (the FCI energy is
//!   invariant to orthogonal rotations of the orbital set, so any
//!   orthonormal set spanning the AO space is exact — only the *rate of
//!   convergence* of the iterative diagonalizer changes);
//! * [`active_space`] — the whole recipe from a molecule to labelled
//!   active-space integrals: [`Orbitals`] picks RHF or core orbitals,
//!   [`symmetry_adapt`] labels them, [`transform_integrals`] folds the
//!   frozen core and cuts the active window;
//! * [`motran`] — the O(n⁵) quarter-transform AO→MO four-index
//!   transformation and frozen-core folding, producing the
//!   [`MoIntegrals`] consumed by `fci-core`.

mod active;
pub mod motran;
pub mod rhf;
pub mod symadapt;

pub use active::{active_space, ActiveSpace, Orbitals};
pub use motran::{transform_integrals, MoIntegrals};
pub use rhf::{core_orbitals, rhf, RhfOptions, RhfResult};
pub use symadapt::symmetry_adapt;
