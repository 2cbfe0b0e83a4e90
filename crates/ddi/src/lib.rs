#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Simulated Distributed Data Interface (DDI).
//!
//! The paper's program distributes the CI coefficient matrix by α-string
//! columns and performs all remote traffic through one-sided operations of
//! the Distributed Data Interface (a Global Arrays derivative), which on
//! the Cray-X1 maps onto SHMEM:
//!
//! * `DDI_GET` — one-sided remote gather of columns (`SHMEM_GET`),
//! * `DDI_ACC` — remote accumulate: acquire the target node's mutex, fetch
//!   the data (`SHMEM_GET`), add locally, write back (`SHMEM_PUT`), fence
//!   (`SHMEM_QUIET`), release. Accumulation therefore moves **twice** the
//!   bytes of a get — a property the paper calls out explicitly (§3.1) and
//!   which our communication accounting reproduces,
//! * `SHMEM_SWAP` — the atomic counter behind the dynamic load-balancing
//!   task server (`nxtval` here).
//!
//! This crate reimplements those semantics over shared memory. "Processors"
//! are virtual ranks; a [`Ddi`] world runs a closure once per rank, either
//! serially (deterministic, the default — correct because the σ algorithms
//! only ever *read* C and *accumulate* into σ, both order-insensitive) or
//! on real OS threads (used by tests to validate the locking protocol).
//! Every operation updates per-rank [`CommStats`] so harnesses can report
//! communication volumes the way Table 3 does.
//!
//! A [`DistMatrix`] stores the elements its [`Layout`] names — for a CI
//! vector the symmetry sector, one contiguous row range per column — and
//! every operation moves and charges those alone. Its block kernels
//! ([`DistMatrix::dots`], [`DistMatrix::combine`],
//! [`DistMatrix::add_combination`]) do a loop of per-vector operations in
//! one pass, bit for bit; a solve recycles its segments through a
//! [`reuse`] scope.
//!
//! For correctness analysis, every one-sided operation can additionally
//! report its protocol steps (lock, get, put, fence, unlock, counter swap)
//! to an [`AccessRecorder`] — see [`record`] and the `fci-check` crate's
//! happens-before race detector built on top of it.
//!
//! For robustness testing, a seeded [`FaultPlan`] (from `fci-fault`) can
//! be attached to a world: remote transfers then run a checked delivery
//! path (per-message sequence numbers + CRC32) that detects injected
//! drops/duplicates/corruption and recovers by bounded
//! retry-with-backoff, with the wasted traffic and wait time charged to
//! the caller's [`CommStats`].

pub mod dist;
pub mod layout;
pub mod record;
pub mod reuse;
pub mod stats;
pub mod world;

pub use dist::{transpose_block, DistMatrix};
pub use fci_fault::{
    Corruption, FaultConfig, FaultPlan, FaultStats, ProtocolFault, RankDeath, RetryPolicy,
};
pub use layout::Layout;
pub use record::{AccessKind, AccessRecorder, CheckConfig, DdiAccess, DdiSite};
pub use stats::CommStats;
pub use world::{Backend, Ddi};
