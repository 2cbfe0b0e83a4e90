#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Occupation-string machinery for determinant-based FCI.
//!
//! In the determinant FCI of Olsen/Knowles–Handy lineage that the paper
//! builds on, the N-electron basis is a direct product of α and β
//! *occupation strings*: subsets of the n spatial orbitals holding Nα (Nβ)
//! electrons. The CI coefficient vector is a matrix `C(Iβ, Iα)` and every σ
//! algorithm is driven by precomputed coupling tables between string spaces:
//!
//! * single-excitation tables `⟨I| E_pq |J⟩ = ±1` (the MOC kernel and the
//!   one-electron σ),
//! * N−1 electron intermediate families `I = a†_p K` (the mixed-spin DGEMM
//!   routine, eqs. 4–6 of the paper), and the same families inverted by
//!   created orbital,
//! * N−2 electron intermediate families `I = a†_p a†_r K`, `p > r` — the
//!   paper's **A** (creation-pair) and **B** (annihilation-pair) coupling
//!   matrices of the same-spin routine (eqs. 7–9), following
//!   Harrison & Zarrabian's (n−2)-electron projection space.
//!
//! Strings are stored as `u64` bit masks (orbital i occupied ⇔ bit i set),
//! with the fermionic phase conventions documented on [`bits`]. Abelian
//! point-group symmetry (D2h and subgroups — every irrep product is a XOR)
//! is supported by sorting each string list by (irrep, mask) so that a
//! symmetry block is a contiguous index range.

pub mod bits;
pub mod space;
pub mod tables;

pub use bits::{annihilate, create, irrep_of_mask, occ_list, Bits};
pub use space::{binomial, SpinStrings};
pub use tables::{
    pair_index, CreateEntry, CreationLists, Creator, Nm1Families, Nm2Families, PairEntry,
    SingleEntry, SinglesTable,
};
