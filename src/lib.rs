#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Facade crate re-exporting the whole fcix workspace under one roof —
//! see the README for the architecture and the per-crate docs for detail.

pub use fci_core as core;
pub use fci_ddi as ddi;
pub use fci_fault as fault;
pub use fci_ints as ints;
pub use fci_linalg as linalg;
pub use fci_obs as obs;
pub use fci_scf as scf;
pub use fci_serve as serve;
pub use fci_sparse as sparse;
pub use fci_strings as strings;
pub use fci_xsim as xsim;
