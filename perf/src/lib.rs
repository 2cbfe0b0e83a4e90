#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # fcix-perf — one host-time benchmark for every solve path
//!
//! Six workloads, one per solve path of the repository; three
//! end-to-end metrics every workload reports; eighty per-layer metrics
//! taken **from outside**, by timing calls into each crate's public
//! functions on the workload's own inputs; and a traced run that records
//! the benchmark's own spans. `perf/README.md` has the tables.
//!
//! * [`inputs`] — seed → integrals, spaces, job streams (the only place
//!   the seed reaches);
//! * [`dense`], [`sparse`], [`served`] — the workloads;
//! * [`machine`] — `fci-linalg` kernels in isolation, the ceilings;
//! * [`span`], [`stats`], [`runner`], [`clock`] — measurement;
//! * [`metrics`] — the catalogue and the result line;
//! * [`refs`], [`refgen`] — reference energies and how they are made;
//! * [`noise`] — the A/A check of the bounds.
//!
//! Nothing here prints: output is the business of `src/bin/`.

pub mod clock;
pub mod dense;
pub mod inputs;
pub mod machine;
pub mod metrics;
pub mod noise;
pub mod refgen;
pub mod refs;
pub mod runner;
pub mod served;
pub mod span;
pub mod sparse;
pub mod stats;

use std::path::Path;

use metrics::Outcome;
use span::Spans;

/// The untraced run of `workload`: end-to-end metrics.
pub fn run(workload: &str, seed: u64, seconds: f64, tmp: &Path) -> Result<Outcome, String> {
    if let Some(case) = dense::case(workload) {
        dense::run(&case, seed, seconds)
    } else if let Some(case) = sparse::case(workload) {
        sparse::run(&case, seed, seconds)
    } else if workload == "served_small" {
        served::run(seed, seconds, tmp)
    } else {
        Err(format!("no workload `{workload}` (try `fcix-perf list`)"))
    }
}

/// The traced run of `workload`: per-layer metrics, and the spans.
pub fn trace(
    workload: &str,
    seed: u64,
    pairs: usize,
    tmp: &Path,
) -> Result<(Outcome, Spans), String> {
    let mut spans = Spans::on(workload);
    let out = if let Some(case) = dense::case(workload) {
        dense::trace(&case, seed, pairs, tmp, &mut spans)
    } else if let Some(case) = sparse::case(workload) {
        sparse::trace(&case, seed, &mut spans)
    } else if workload == "served_small" {
        served::trace(seed, pairs, tmp, &mut spans)
    } else {
        Err(format!("no workload `{workload}` (try `fcix-perf list`)"))
    }?;
    Ok((out, spans))
}
