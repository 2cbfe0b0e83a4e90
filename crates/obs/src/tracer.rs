//! The tracer: dual-timestamp span/event emission.
//!
//! # Span model
//!
//! The simulator charges costs to per-MSP `Clock`s as category totals, not
//! as timestamped intervals. The tracer reconstructs a timeline from those
//! totals: each virtual MSP (rank) owns a **simulated-time cursor**, and a
//! phase's category segments are stacked at the cursor back-to-back, in
//! Table 3 row order. After every parallel phase the caller invokes
//! [`Tracer::barrier`], which advances all cursors to the slowest rank —
//! exactly the barrier semantics `RunReport::elapsed` assumes.
//!
//! Two invariants fall out of this construction and are tested below:
//!
//! 1. the sum of a rank's span durations equals the owning
//!    `Clock::total()` (durations *are* the clock's category totals), and
//! 2. per-category totals over the whole trace equal the merged
//!    `RunReport` aggregates.
//!
//! Every record also carries host wall-clock microseconds since the tracer
//! epoch, so the same trace shows what the real hardware did.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Category, Event, EventKind};
use crate::metrics::MetricsRegistry;
use crate::sink::{MemorySink, NullSink, Sink};

/// One category slice of a phase, in simulated seconds, with its numeric
/// payload (flops, bytes, message counts, …).
#[derive(Clone, Debug)]
pub struct Segment {
    /// Cost category.
    pub cat: Category,
    /// Simulated duration, seconds.
    pub sim_s: f64,
    /// Payload forwarded to the span's `args`.
    pub args: Vec<(String, f64)>,
}

impl Segment {
    /// Convenience constructor.
    pub fn new(cat: Category, sim_s: f64, args: Vec<(String, f64)>) -> Self {
        Segment { cat, sim_s, args }
    }
}

struct Inner {
    sink: Arc<dyn Sink>,
    /// Typed handle kept only for in-memory tracers so tests and the
    /// in-process summarizer can read events back.
    memory: Option<Arc<MemorySink>>,
    epoch: Instant,
    /// Per-rank simulated-time cursors, seconds.
    cursors: Mutex<Vec<f64>>,
    /// The metrics plane riding along with this tracer, if any.
    metrics: Option<MetricsRegistry>,
}

/// Handle for emitting trace events. Cheap to clone; cloning shares the
/// sink and the cursors. A disabled tracer is a single `None` — every
/// emission method is one branch and a return.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that drops everything at zero cost.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer writing to the given sink, with a fresh metrics plane
    /// attached.
    pub fn new(sink: Arc<dyn Sink>) -> Tracer {
        Tracer::with_sink(sink, Some(MetricsRegistry::new()))
    }

    /// A tracer writing to the given sink with an explicit (possibly
    /// absent, possibly shared) metrics registry.
    pub fn with_sink(sink: Arc<dyn Sink>, metrics: Option<MetricsRegistry>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                sink,
                memory: None,
                epoch: Instant::now(),
                cursors: Mutex::new(Vec::new()),
                metrics,
            })),
        }
    }

    /// A tracer collecting events in memory (with a metrics plane); read
    /// events back with [`Tracer::events`].
    pub fn in_memory() -> Tracer {
        Tracer::in_memory_with(Some(MetricsRegistry::new()))
    }

    /// [`Tracer::in_memory`] with an explicit (possibly absent, possibly
    /// shared) metrics registry.
    pub fn in_memory_with(metrics: Option<MetricsRegistry>) -> Tracer {
        let mem = Arc::new(MemorySink::new());
        Tracer {
            inner: Some(Arc::new(Inner {
                sink: mem.clone(),
                memory: Some(mem),
                epoch: Instant::now(),
                cursors: Mutex::new(Vec::new()),
                metrics,
            })),
        }
    }

    /// A tracer that records *only* metrics: the sink is null, so no
    /// [`Event`] is built, but every span and instant still feeds the
    /// registry through the table of [`MetricsRegistry::from_events`].
    pub fn metrics_only(metrics: MetricsRegistry) -> Tracer {
        Tracer::with_sink(Arc::new(NullSink), Some(metrics))
    }

    /// The metrics registry riding along with this tracer, if any. Spans
    /// and instants reach it by themselves; a layer records here directly
    /// only a metric no event carries.
    #[inline]
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().and_then(|i| i.metrics.as_ref())
    }

    /// Whether events will actually be recorded. Guard hot loops on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.sink.enabled(),
            None => false,
        }
    }

    /// Whether spans and instants reach anything: a sink that records
    /// events, or a metrics registry. Guard the work of building a phase's
    /// spans on this.
    #[inline]
    pub fn active(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.metrics.is_some() || inner.sink.enabled(),
            None => false,
        }
    }

    /// Events collected so far (in-memory tracers only).
    pub fn events(&self) -> Option<Vec<Event>> {
        self.inner
            .as_ref()
            .and_then(|i| i.memory.as_ref())
            .map(|m| m.events())
    }

    /// Host microseconds since the tracer epoch (0 when disabled).
    pub fn now_us(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_secs_f64() * 1e6,
            None => 0.0,
        }
    }

    /// Current simulated-time cursor of a rank, seconds.
    pub fn cursor(&self, rank: usize) -> f64 {
        match &self.inner {
            Some(inner) => inner
                .cursors
                .lock()
                .unwrap()
                .get(rank)
                .copied()
                .unwrap_or(0.0),
            None => 0.0,
        }
    }

    /// Advance every cursor (growing the set to `nranks`) to the slowest
    /// rank — the simulated barrier at the end of a parallel phase.
    pub fn barrier(&self, nranks: usize) {
        let Some(inner) = &self.inner else { return };
        let mut cursors = inner.cursors.lock().unwrap();
        if cursors.len() < nranks {
            cursors.resize(nranks, 0.0);
        }
        let max = cursors.iter().copied().fold(0.0, f64::max);
        for c in cursors.iter_mut() {
            *c = max;
        }
    }

    /// Emit a point event at the rank's current simulated time.
    pub fn instant(&self, rank: Option<usize>, name: &str, cat: Category, args: &[(&str, f64)]) {
        self.instant_labelled(rank, name, cat, args, &[]);
    }

    /// [`Tracer::instant`] with string labels (a served job's `tenant`).
    /// An attached registry takes the instant through
    /// [`MetricsRegistry::from_events`]' table, reading the borrowed
    /// name, args and labels; only a recording sink builds an [`Event`].
    pub fn instant_labelled(
        &self,
        rank: Option<usize>,
        name: &str,
        cat: Category,
        args: &[(&str, f64)],
        labels: &[(&str, &str)],
    ) {
        let Some(inner) = &self.inner else { return };
        if let Some(m) = &inner.metrics {
            m.record_event(EventKind::Instant, name, cat, 0.0, args, labels);
        }
        if !inner.sink.enabled() {
            return;
        }
        let sim_s = rank.map_or(0.0, |r| self.cursor(r));
        inner.sink.record(&Event {
            kind: EventKind::Instant,
            // lint: allow(alloc) — behind the sink gate above; tracing is off in production hot loops
            name: name.to_string(),
            cat,
            rank,
            host_us: self.now_us(),
            host_dur_us: 0.0,
            sim_s,
            sim_dur_s: 0.0,
            // lint: allow(alloc) — behind the sink gate above; tracing is off in production hot loops
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            // lint: allow(alloc) — behind the sink gate above; tracing is off in production hot loops
            labels: labels.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
        });
    }

    /// Emit a counter sample at the rank's current simulated time.
    pub fn counter(&self, rank: Option<usize>, name: &str, args: &[(&str, f64)]) {
        let Some(inner) = self.inner.as_ref().filter(|i| i.sink.enabled()) else {
            return;
        };
        let sim_s = rank.map_or(0.0, |r| self.cursor(r));
        inner.sink.record(&Event {
            kind: EventKind::Counter,
            name: name.to_string(),
            cat: Category::Other,
            rank,
            host_us: self.now_us(),
            host_dur_us: 0.0,
            sim_s,
            sim_dur_s: 0.0,
            args: args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            labels: Vec::new(),
        });
    }

    /// Record one rank's share of a phase: stack `segments` at the rank's
    /// cursor as back-to-back spans and advance the cursor by their total.
    ///
    /// Host time: the phase's measured host interval
    /// (`host_start_us`..`+host_dur_us`) is split across the spans in
    /// proportion to their simulated durations, so both timelines nest the
    /// same way. Segments with zero duration *and* an all-zero payload are
    /// skipped. An attached registry takes each span through the table of
    /// [`MetricsRegistry::from_events`], with or without a recording sink.
    pub fn record_phase(
        &self,
        rank: usize,
        phase: &str,
        segments: &[Segment],
        host_start_us: f64,
        host_dur_us: f64,
    ) {
        if !self.active() {
            return;
        }
        let Some(inner) = &self.inner else { return };
        let events = inner.sink.enabled();
        let no_labels: &[(&str, &str)] = &[];
        let mut cursors = inner.cursors.lock().unwrap();
        if cursors.len() <= rank {
            cursors.resize(rank + 1, 0.0);
        }
        let sim_total: f64 = segments.iter().map(|s| s.sim_s).sum();
        let mut sim_at = cursors[rank];
        let mut host_at = host_start_us;
        for seg in segments {
            let keep = seg.sim_s != 0.0 || seg.args.iter().any(|(_, v)| *v != 0.0);
            if !keep {
                continue;
            }
            let host_share = if sim_total > 0.0 {
                host_dur_us * seg.sim_s / sim_total
            } else {
                0.0
            };
            if let Some(m) = &inner.metrics {
                m.record_event(
                    EventKind::Span,
                    phase,
                    seg.cat,
                    seg.sim_s,
                    &seg.args,
                    no_labels,
                );
            }
            if events {
                inner.sink.record(&Event {
                    kind: EventKind::Span,
                    name: phase.to_string(),
                    cat: seg.cat,
                    rank: Some(rank),
                    host_us: host_at,
                    host_dur_us: host_share,
                    sim_s: sim_at,
                    sim_dur_s: seg.sim_s,
                    args: seg.args.clone(),
                    labels: Vec::new(),
                });
            }
            sim_at += seg.sim_s;
            host_at += host_share;
        }
        cursors[rank] += sim_total;
    }

    /// Flush the underlying sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(cat: Category, s: f64) -> Segment {
        Segment::new(cat, s, vec![])
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.instant(Some(0), "x", Category::Other, &[]);
        t.record_phase(0, "p", &[seg(Category::Dgemm, 1.0)], 0.0, 0.0);
        t.barrier(4);
        assert_eq!(t.cursor(0), 0.0);
        assert!(t.events().is_none());
    }

    #[test]
    fn spans_stack_and_cursor_advances() {
        let t = Tracer::in_memory();
        t.record_phase(
            0,
            "p1",
            &[seg(Category::Dgemm, 1.0), seg(Category::Net, 0.5)],
            0.0,
            30.0,
        );
        let evs = t.events().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].sim_s, 0.0);
        assert_eq!(evs[0].sim_dur_s, 1.0);
        assert_eq!(evs[1].sim_s, 1.0);
        assert_eq!(evs[1].sim_dur_s, 0.5);
        // Host interval split 2:1.
        assert!((evs[0].host_dur_us - 20.0).abs() < 1e-9);
        assert!((evs[1].host_us - 20.0).abs() < 1e-9);
        assert_eq!(t.cursor(0), 1.5);
    }

    #[test]
    fn barrier_aligns_cursors_to_max() {
        let t = Tracer::in_memory();
        t.record_phase(0, "p", &[seg(Category::Dgemm, 2.0)], 0.0, 0.0);
        t.record_phase(1, "p", &[seg(Category::Dgemm, 5.0)], 0.0, 0.0);
        t.barrier(3);
        assert_eq!(t.cursor(0), 5.0);
        assert_eq!(t.cursor(1), 5.0);
        assert_eq!(t.cursor(2), 5.0);
        // Next phase starts at the barrier.
        t.record_phase(0, "q", &[seg(Category::Io, 1.0)], 0.0, 0.0);
        let evs = t.events().unwrap();
        assert_eq!(evs.last().unwrap().sim_s, 5.0);
    }

    #[test]
    fn span_durations_sum_to_segment_total() {
        let t = Tracer::in_memory();
        let segs = [
            seg(Category::Dgemm, 0.1),
            seg(Category::Daxpy, 0.2),
            seg(Category::Gather, 0.0), // dropped
            seg(Category::Net, 0.3),
        ];
        t.record_phase(2, "p", &segs, 0.0, 0.0);
        let evs = t.events().unwrap();
        assert_eq!(evs.len(), 3);
        let sum: f64 = evs.iter().map(|e| e.sim_dur_s).sum();
        assert_eq!(sum, 0.1 + 0.2 + 0.3);
        assert_eq!(t.cursor(2), sum);
    }

    #[test]
    fn zero_duration_segment_with_payload_kept() {
        let t = Tracer::in_memory();
        t.record_phase(
            0,
            "p",
            &[Segment::new(
                Category::Net,
                0.0,
                vec![("bytes".into(), 64.0)],
            )],
            0.0,
            0.0,
        );
        assert_eq!(t.events().unwrap().len(), 1);
    }

    #[test]
    fn metrics_plane_attaches() {
        assert!(Tracer::disabled().metrics().is_none());
        let t = Tracer::in_memory();
        t.metrics().unwrap().counter_incr("x", &[]);
        assert_eq!(t.metrics().unwrap().value("x", &[]), Some(1.0));
        // Metrics-only: no events, but spans and instants feed the shared
        // registry, and the cursors advance as with a sink.
        let shared = MetricsRegistry::new();
        let mo = Tracer::metrics_only(shared.clone());
        assert!(!mo.enabled() && mo.active());
        assert!(!Tracer::disabled().active());
        mo.instant(Some(0), "cache_hit", Category::Other, &[("count", 2.0)]);
        mo.record_phase(0, "p", &[seg(Category::Dgemm, 1.5)], 0.0, 0.0);
        mo.metrics().unwrap().counter_incr("y", &[]);
        assert_eq!(shared.value("y", &[]), Some(1.0));
        assert_eq!(shared.value("serve.cache_hits", &[]), Some(2.0));
        let span = [("phase", "p"), ("cat", "dgemm")];
        assert_eq!(shared.percentile("trace.span_s", &span, 100.0), Some(1.5));
        assert_eq!(mo.cursor(0), 1.5);
        assert!(mo.events().is_none());
    }

    #[test]
    fn instants_carry_cursor_time() {
        let t = Tracer::in_memory();
        t.record_phase(1, "p", &[seg(Category::Dgemm, 4.0)], 0.0, 0.0);
        t.instant(Some(1), "task_grab", Category::Other, &[("task", 7.0)]);
        let evs = t.events().unwrap();
        let last = evs.last().unwrap();
        assert_eq!(last.kind, EventKind::Instant);
        assert_eq!(last.sim_s, 4.0);
        assert_eq!(last.arg("task"), Some(7.0));
    }
}
