#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # fci-serve — a multi-tenant job server over the FCI solver
//!
//! The paper's manager/worker task pool (Fig. 3) load-balances *within*
//! one solve. This crate is the level above: many FCI jobs, from many
//! tenants, pushed through the machine as fast as shared state allows.
//!
//! * [`spec`] — job requests: content-addressed problem recipes, spin
//!   sectors, solver knobs, fault plans;
//! * [`cache`] — the shared-artifact cache (integrals, Hamiltonians,
//!   determinant spaces) with cost-aware GreedyDual-Size eviction;
//! * [`server`] — priority queue with per-tenant fairness, admission
//!   control and backpressure, the batching coalescer that turns
//!   same-space jobs into one multi-root solve, and the scoped worker
//!   pool (deterministic at any worker count — see the module docs);
//! * [`result`] — per-job JSONL results and admission refusals (every
//!   tally over them is a metric, fed by the server's trace instants);
//! * [`wal`] — the write-ahead job log: accepted jobs and their state
//!   transitions survive `kill -9`, and a restarted server resumes with
//!   crash-exactly-once semantics;
//! * [`net`] — a std-only TCP/JSONL front-end with per-tenant
//!   token-bucket rate limits, in-flight caps, timeouts, and explicit
//!   overload rejects carrying backoff hints.
//!
//! ```
//! use fci_obs::{MetricsRegistry, ObsConfig};
//! use fci_serve::{serve, JobSpec, JobStatus, ProblemSpec, ServeConfig};
//! // Two different "molecules" of the same size: integrals differ, but
//! // the (4 orbital, 2α2β) determinant space is shared through the cache.
//! let a = ProblemSpec::Hubbard { sites: 4, t: 1.0, u: 4.0, periodic: false };
//! let b = ProblemSpec::Hubbard { sites: 4, t: 1.0, u: 2.0, periodic: false };
//! let jobs = vec![JobSpec::new("a", a, 2, 2), JobSpec::new("b", b, 2, 2)];
//! let metrics = MetricsRegistry::new();
//! let obs = ObsConfig::off().with_metrics(metrics.clone());
//! let report = serve(ServeConfig { workers: 2, obs, ..Default::default() }, jobs);
//! assert_eq!(report.results.len(), 2);
//! assert!(report.results.iter().all(|r| r.status == JobStatus::Done));
//! // The shared string tables: a tally, so it is read from the metrics.
//! assert!(metrics.value("serve.cache_hits", &[]) >= Some(1.0));
//! ```

pub mod cache;
pub mod net;
pub mod result;
pub mod server;
pub mod spec;
pub mod wal;

pub use cache::{Artifact, ArtifactCache, CacheKey, CacheStats};
pub use net::{NetClient, NetConfig, NetServer};
pub use result::{JobResult, JobStatus, RejectReason, ServeReport};
pub use server::{estimated_bytes, serve, serve_with, QueueStats, ServeConfig, Server};
pub use spec::{JobSpec, ProblemSpec};
pub use wal::{Replay, Wal, WalRecord};
