#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # fci-core — the paper's primary contribution
//!
//! A determinant-based full configuration interaction (FCI) solver in the
//! style of Gan & Harrison (SC'05): the sparse σ = H·C product is
//! reformulated as dense matrix–matrix multiplications through N−1 and
//! N−2 electron string intermediates, executed over a column-distributed
//! CI matrix with one-sided gather/accumulate communication, and the
//! eigenproblem is driven by an automatically adjusted single-vector
//! diagonalization that needs no subspace storage.
//!
//! Layers:
//!
//! * [`hamiltonian`] — integrals in kernel-ready form (the **G** and **V**
//!   coupling matrices);
//! * [`detspace`] — string spaces, coupling tables, symmetry sector;
//! * [`sigma`] — the DGEMM algorithm and the minimum-operation-count
//!   baseline, both instrumented with the `fci-xsim` Cray-X1 cost model;
//! * [`slater`] — brute-force Slater–Condon reference (test oracle and
//!   model-space preconditioner block);
//! * [`diag`] — Davidson subspace, Olsen, damped Olsen, and the paper's
//!   auto-adjusted single-vector method (eqs. 11–15);
//! * [`taskpool`] — the size-ordered aggregated task pool (Fig. 3);
//! * [`perf_model`] — the Table 1 analytic operation/communication model;
//! * [`solver`] — the high-level driver.
//!
//! ```
//! use fci_core::{solve, FciOptions};
//! use fci_scf::MoIntegrals;
//! // Two-site Hubbard model at half filling.
//! let (t, u) = (1.0, 4.0);
//! let mo = MoIntegrals::hubbard_chain(2, t, u, false);
//! // Lattice diagonals are degenerate: use the Davidson subspace method
//! // (molecular systems can use the default auto-adjusted single-vector
//! // scheme — see the `diag` module docs).
//! let opts = FciOptions { method: fci_core::DiagMethod::Davidson, ..Default::default() };
//! let res = solve(&mo, 1, 1, 0, &opts);
//! let exact = 0.5 * (u - (u * u + 16.0 * t * t).sqrt());
//! assert!((res.energy - exact).abs() < 1e-8);
//! ```

pub mod checkpoint;
pub mod detspace;
pub mod diag;
pub mod hamiltonian;
pub mod multiroot;
pub mod perf_model;
pub mod phase;
pub mod properties;
pub mod recovery;
pub mod sigma;
pub mod slater;
pub mod solver;
pub mod taskpool;

pub use checkpoint::{load_ci, save_ci};
pub use detspace::{lowest_det_irrep, DetSpace};
pub use diag::{diagonalize, DiagMethod, DiagOptions, DiagResult, Preconditioner};
pub use hamiltonian::{random_hamiltonian, random_symmetric_hamiltonian, Hamiltonian};
pub use perf_model::PerfModel;
pub use phase::run_phase;
pub use properties::{natural_occupations, one_rdm, s_squared};
pub use recovery::{solve_resilient, solve_resilient_prepared, RecoveryOptions, ResilientResult};
pub use sigma::{apply_sigma, SigmaBreakdown, SigmaCtx, SigmaMethod};
pub use solver::{
    build_space, solve, solve_prepared, solve_roots_prepared, FciOptions, FciResult,
    FciRootsResult, SolverKind,
};
pub use taskpool::{PoolParams, TaskPool};
