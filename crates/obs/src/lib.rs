#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Observability for the fcix stack (`fci-obs`).
//!
//! The paper's headline results — Table 3's per-phase breakdown, the
//! Fig. 4/5 scaling curves, the 3.4 TFlop/s sustained-rate claim — are
//! *observability artifacts*: they come from per-MSP instrumentation of
//! σ = H·C. This crate provides the machinery to produce the same
//! artifacts from any run of the reproduction:
//!
//! * [`Tracer`] — a span/event tracing layer. Every span carries **dual
//!   timestamps**: host wall-clock (what the real hardware did) and
//!   simulated seconds from the active `fci_xsim::Clock` (what the
//!   modelled Cray-X1 would have done), so one trace explains both real
//!   profiling and the X1 cost model.
//! * [`MetricsRegistry`] — the metrics plane: a sharded, hash-indexed
//!   registry of labelled counters, gauges, and log-linear
//!   ([`Histogram`]) percentile histograms, with a Prometheus-shaped
//!   text exposition ([`MetricsRegistry::render_text`]).
//!   [`MetricsRegistry::from_events`] is the one rollup of a trace's
//!   instants: fault-plane (kinds named by [`FaultKind`]) and serving
//!   tallies.
//! * [`flame`] — collapsed-stack (flamegraph) export of span traces,
//!   keyed by host or simulated time.
//! * Sinks — [`JsonlSink`] (one JSON event per line), [`MemorySink`]
//!   (tests), and a no-op [`NullSink`]; tracing is zero-cost when
//!   disabled (one branch on [`Tracer::enabled`]).
//! * [`RunSummary`] — the Table-3-style per-category rollup (compute /
//!   network / lock / I/O / load imbalance, sustained GF/s per MSP,
//!   aggregate TFlop/s), buildable from a trace's spans or from clock
//!   data. It reads no instant.
//! * [`chrome`] — Chrome Trace Event Format export (`chrome://tracing` /
//!   Perfetto), one lane per virtual MSP.
//!
//! The crate is dependency-free by design: the build environment has no
//! registry access, so serde/tracing/metrics are off the table. A small
//! hand-rolled JSON layer ([`json`]) covers serialization both ways.

pub mod chrome;
pub mod config;
pub mod event;
pub mod flame;
pub mod hist;
pub mod json;
pub mod lockwitness;
pub mod metrics;
pub mod sink;
pub mod summary;
pub mod tracer;

pub use chrome::to_chrome;
pub use config::{MetricsMode, ObsConfig};
pub use event::{parse_jsonl_lenient, Category, Event, EventKind, FaultKind};
pub use flame::{parse_collapsed, to_collapsed, TimeBase};
pub use hist::Histogram;
pub use json::JsonValue;
pub use lockwitness::{TrackedCondvar, TrackedGuard, TrackedMutex};
pub use metrics::{fnv1a, MetricsRegistry};
pub use sink::{JsonlSink, MemorySink, NullSink, Sink};
pub use summary::{RunSummary, HOST_COPY_BYTES, HOST_GEMM_FLOPS};
pub use tracer::Tracer;
