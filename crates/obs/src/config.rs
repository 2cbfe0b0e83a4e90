//! Run-level observability configuration.

use std::path::PathBuf;
use std::sync::Arc;

use crate::metrics::MetricsRegistry;
use crate::sink::JsonlSink;
use crate::tracer::Tracer;

/// How the metrics plane attaches to the tracer a config builds.
#[derive(Clone, Debug, Default)]
pub enum MetricsMode {
    /// A fresh registry whenever tracing is enabled (the default).
    #[default]
    Auto,
    /// Record into a caller-owned registry. With tracing disabled this
    /// still yields a live metrics-only tracer ([`Tracer::metrics_only`]),
    /// so a server can aggregate metrics across solves without paying for
    /// event emission.
    Shared(MetricsRegistry),
}

impl PartialEq for MetricsMode {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (MetricsMode::Auto, MetricsMode::Auto) => true,
            (MetricsMode::Shared(a), MetricsMode::Shared(b)) => a.same_store(b),
            _ => false,
        }
    }
}

impl Eq for MetricsMode {}

/// Observability options, carried on `FciOptions`.
///
/// The default is fully disabled: `tracer()` then returns
/// [`Tracer::disabled`], whose emission methods are a single branch —
/// instrumented hot paths cost nothing when tracing is off.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch for event tracing.
    pub enabled: bool,
    /// Where to write the JSONL trace. `None` with `enabled` collects
    /// events in memory (retrievable via [`Tracer::events`]).
    pub trace_path: Option<PathBuf>,
    /// Metrics-plane attachment (see [`MetricsMode`]).
    pub metrics: MetricsMode,
}

impl ObsConfig {
    /// Tracing disabled (same as `Default`).
    pub fn off() -> ObsConfig {
        ObsConfig::default()
    }

    /// Collect events in memory.
    pub fn in_memory() -> ObsConfig {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }

    /// Write a JSONL trace to `path`.
    pub fn to_file(path: impl Into<PathBuf>) -> ObsConfig {
        ObsConfig {
            enabled: true,
            trace_path: Some(path.into()),
            ..ObsConfig::default()
        }
    }

    /// Use a caller-owned registry for the metrics plane.
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> ObsConfig {
        self.metrics = MetricsMode::Shared(registry);
        self
    }

    /// Build the tracer this configuration describes.
    pub fn tracer(&self) -> std::io::Result<Tracer> {
        let metrics = match &self.metrics {
            MetricsMode::Auto => self.enabled.then(MetricsRegistry::new),
            MetricsMode::Shared(r) => Some(r.clone()),
        };
        if !self.enabled {
            return Ok(match metrics {
                Some(m) => Tracer::metrics_only(m),
                None => Tracer::disabled(),
            });
        }
        match &self.trace_path {
            Some(path) => Ok(Tracer::with_sink(
                Arc::new(JsonlSink::create(path)?),
                metrics,
            )),
            None => Ok(Tracer::in_memory_with(metrics)),
        }
    }

    /// [`ObsConfig::tracer`] for a run that observability must not stop:
    /// a trace output that cannot be opened prints a warning and leaves
    /// the run untraced ([`Tracer::disabled`]). Every solver and the
    /// server open their tracer this way.
    pub fn tracer_or_warn(&self) -> Tracer {
        self.tracer().unwrap_or_else(|e| {
            eprintln!("warning: could not open trace output: {e}; tracing disabled");
            Tracer::disabled()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let t = ObsConfig::default().tracer().unwrap();
        assert!(!t.enabled());
        assert!(t.metrics().is_none());
    }

    #[test]
    fn in_memory_collects() {
        let t = ObsConfig::in_memory().tracer().unwrap();
        assert!(t.enabled());
        assert_eq!(t.events().unwrap().len(), 0);
        // Auto mode: a metrics plane rides along.
        assert!(t.metrics().is_some());
    }

    #[test]
    fn shared_metrics_survive_the_tracer() {
        let reg = MetricsRegistry::new();
        let t = ObsConfig::off().with_metrics(reg.clone()).tracer().unwrap();
        assert!(!t.enabled());
        t.metrics().unwrap().counter_incr("solves", &[]);
        drop(t);
        assert_eq!(reg.value("solves", &[]), Some(1.0));
        // Shared + enabled: events and the caller's registry.
        let t = ObsConfig::in_memory()
            .with_metrics(reg.clone())
            .tracer()
            .unwrap();
        assert!(t.enabled());
        t.metrics().unwrap().counter_incr("solves", &[]);
        assert_eq!(reg.value("solves", &[]), Some(2.0));
    }
}
