#![warn(missing_docs)]

//! Dense linear algebra substrate for the fcix workspace.
//!
//! The Cray-X1 FCI program of Gan & Harrison leans on the vendor `DGEMM`
//! (10–11 GFlop/s per MSP for matrices beyond 300×300) as its sole heavy
//! compute kernel, plus level-1 operations (`DAXPY`, dot products, norms)
//! whose comparatively poor out-of-cache throughput (≈2 GFlop/s per MSP)
//! motivates the whole DGEMM-based reformulation of the σ = H·C product.
//!
//! This crate provides the same tool set, built from scratch:
//!
//! * [`Matrix`] — a column-major dense matrix (the layout every routine in
//!   the FCI code assumes; CI coefficient blocks are (β-string × α-string)
//!   column-major matrices),
//! * [`dgemm`] — a blocked, cache-aware general matrix multiply on one
//!   register tile at the machine's vector width, reading cache-resident
//!   operands where they are, plus a [`dgemm_naive`] reference and a
//!   packed-operand form ([`PackedA`] / [`dgemm_prepacked`], bitwise equal
//!   to [`dgemm`]; no σ kernel keeps one),
//! * level-1 kernels ([`daxpy`], [`ddot`], [`dnrm2`], [`dscal`]),
//! * symmetric eigensolvers: [`eigh`], cyclic Jacobi up to
//!   [`EIGH_JACOBI_CUTOFF`] (it keeps degenerate levels of uncoupled
//!   blocks apart, which RHF relies on) and Householder `tred2` +
//!   implicit QL above it; [`eigh_ql`], `tred2` + QL at every order, for
//!   the diagonalisers' subspaces (at most 12) and 20 × 20 model block;
//!   and the analytic 2×2 solve ([`eigh_2x2`]) at the heart of the
//!   automatically adjusted single-vector method. Fock matrices have at
//!   most 30 basis functions,
//! * Cholesky-QR block orthonormalization ([`cholqr2`] and the
//!   [`cholesky_lower`] factor the distributed multiroot solver drives
//!   per rank),
//! * an LU solver ([`lu_solve`]) for DIIS extrapolation.
//!
//! Everything is plain safe Rust except the GEMM register tile, whose
//! bounds are established by safe slicing before each call and whose
//! arithmetic a test compares bit for bit with a scalar loop.

pub mod arena;
pub mod blas1;
pub mod cholqr;
pub mod eigen;
pub mod gemm;
pub mod matrix;
pub mod probe;
pub mod solve;
mod tridiag;

pub use blas1::{daxpy, ddot, dnrm2, dscal};
pub use cholqr::{cholesky_lower, cholqr2, CholError};
pub use eigen::{eigh, eigh_2x2, eigh_ql, Eigh, EIGH_JACOBI_CUTOFF};
pub use gemm::{dgemm, dgemm_naive, dgemm_prepacked, dgemm_with_threads, PackedA, Trans};
pub use matrix::Matrix;
pub use solve::{lu_solve, LuError};

/// A matrix of uniform entries in [−½, ½) from a seeded LCG: the one
/// generator this crate's unit tests draw from.
#[cfg(test)]
pub(crate) fn rand_mat(nr: usize, nc: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    Matrix::from_fn(nr, nc, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    })
}

/// `R + Rᵀ` for `R = rand_mat(n, n, seed)`.
#[cfg(test)]
pub(crate) fn rand_sym(n: usize, seed: u64) -> Matrix {
    let raw = rand_mat(n, n, seed);
    Matrix::from_fn(n, n, |i, j| raw[(i, j)] + raw[(j, i)])
}
