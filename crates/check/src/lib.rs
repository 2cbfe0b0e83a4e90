#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Correctness analysis for the fcix stack: `fci-check`.
//!
//! The paper asserts that its one-sided communication protocol
//! (`DDI_ACC` = lock → get → add → put → fence → unlock, §3.1) and its
//! manager/worker task pool produce correct, deterministic σ vectors.
//! This crate *checks* those claims instead of trusting them:
//!
//! * [`race`] — a vector-clock happens-before race detector over the
//!   protocol events `fci-ddi` records, attached to a live run through
//!   `CheckConfig`. Validated against deliberately broken protocols
//!   (fault-injected missing fence / missing lock).
//! * [`lint`] — a std-only source scanner (`fcix-check lint`) enforcing repo
//!   conventions: `// SAFETY:` on `unsafe` blocks, no wall-clock reads
//!   outside `crates/obs`, no `unwrap`/`expect` on hot paths, no stray
//!   `println!`. v2: all rules run on the [`lex`] token stream.
//! * [`lex`] — a lossless std-only Rust lexer (raw strings, nested block
//!   comments, char/lifetime disambiguation, doc comments) with byte
//!   spans; the substrate of the front end.
//! * `front` — the front end `graph`, `locks` and `dead` share: one
//!   walk over a file's items (kind, name, visibility, enclosing `impl`
//!   type, method or not, body tokens, test code or not), one definition
//!   of a call site (bare, path or method) with one keyword list, and
//!   the per-file token context (`#[cfg(test)]` regions, waivers) `lint`
//!   reads too. Each analysis keeps only its own semantics on top.
//! * [`graph`] — workspace call graph with transitive
//!   allocation-freedom and panic-freedom analyses rooted at the σ-task
//!   and GEMM kernels (`fcix-check graph`).
//! * [`locks`] — static lock-order / condvar analysis over the serve and
//!   obs layers, with deadlock-cycle detection and a cross-check
//!   against the lock-order edges the `fci-obs` witness observes at run
//!   time (`fcix-check locks`).
//! * [`dead`] — `pub` items whose name no non-test code mentions
//!   outside their definition, unless waived (`fcix-check dead`).
//!
//! `tests/mutants.rs` is the table that justifies each analysis: one
//! seeded defect per class, and the exact set of detectors that flags
//! it.

pub mod dead;
mod front;
pub mod graph;
pub mod lex;
pub mod lint;
pub mod locks;
pub mod race;

pub use lint::{lint_source, LintConfig, Violation};
pub use race::{RaceDetector, RaceReport, RaceSite, VectorClock};
