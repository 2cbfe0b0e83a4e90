//! The metrics plane: a sharded, hash-indexed registry of counters,
//! gauges, and log-linear histograms with label dimensions.
//!
//! # Design
//!
//! The registry is split into `NSHARDS` shards, each behind its own
//! mutex. A metric is addressed by `(name, labels)`; an FNV-1a hash of
//! that key picks the shard **and** indexes an open-addressed table
//! inside it, so hot-path recording is: hash (no allocation), lock one
//! shard, one probe, bump a slot. A label-less metric is just
//! `(name, [])`.
//!
//! Label order is significant: pass labels in a fixed order per call
//! site (they are hashed and compared as given).
//!
//! Cloning a registry is cheap and shares the store — the solver, the
//! serving layer, and exporters can all hold handles to one plane.

use std::sync::{Arc, Mutex};

use crate::event::{Category, Event, EventKind, FaultKind};
use crate::hist::Histogram;

/// Number of independently locked shards.
pub(crate) const NSHARDS: usize = 16;

const EMPTY: usize = usize::MAX;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a continued from state `h` over `bytes`.
#[inline]
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a, the repo's standard content hash (no external hash crates).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Hash of a metric key: FNV-1a over the name and every label key and
/// value, each terminated by a `0xff` byte.
#[inline]
fn key_hash(name: &str, labels: &[(&str, &str)]) -> u64 {
    let eat = |h, s: &str| fnv1a_extend(fnv1a_extend(h, s.as_bytes()), &[0xff]);
    labels
        .iter()
        .fold(eat(FNV_OFFSET, name), |h, (k, v)| eat(eat(h, k), v))
}

enum Value {
    Counter(f64),
    Gauge(f64),
    Hist(Histogram),
}

struct Entry {
    hash: u64,
    name: String,
    labels: Vec<(String, String)>,
    value: Value,
}

impl Entry {
    fn matches(&self, hash: u64, name: &str, labels: &[(&str, &str)]) -> bool {
        self.hash == hash
            && self.name == name
            && self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
    }
}

#[derive(Default)]
struct Shard {
    entries: Vec<Entry>,
    /// Open-addressed hash table of indices into `entries`.
    table: Vec<usize>,
}

impl Shard {
    fn find(&self, hash: u64, name: &str, labels: &[(&str, &str)]) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY => return None,
                i if self.entries[i].matches(hash, name, labels) => return Some(i),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Store a key the shard has not seen. Copying its name and labels
    /// to the heap is the registry's one allocation per key: the waivers
    /// here and in `rehash` rest on `crates/core/tests/alloc_hotpath.rs`,
    /// whose σ task loop with a registry attached allocates nothing
    /// after warm-up.
    fn add_entry(&mut self, hash: u64, name: &str, labels: &[(&str, &str)], value: Value) -> usize {
        let idx = self.entries.len();
        // lint: allow(alloc) — a new key only (alloc_hotpath)
        self.entries.push(Entry {
            hash,
            // lint: allow(alloc) — a new key only (alloc_hotpath)
            name: name.to_string(),
            labels: labels
                .iter()
                // lint: allow(alloc) — a new key only (alloc_hotpath)
                .map(|(k, v)| (k.to_string(), v.to_string()))
                // lint: allow(alloc) — a new key only (alloc_hotpath)
                .collect(),
            value,
        });
        if self.entries.len() * 2 >= self.table.len() {
            self.rehash();
        } else {
            self.place(idx);
        }
        idx
    }

    fn place(&mut self, idx: usize) {
        let mask = self.table.len() - 1;
        let mut slot = (self.entries[idx].hash as usize) & mask;
        while self.table[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.table[slot] = idx;
    }

    fn rehash(&mut self) {
        let cap = (self.entries.len() * 4).next_power_of_two().max(16);
        // lint: allow(alloc) — a new key only (alloc_hotpath)
        self.table = vec![EMPTY; cap];
        for i in 0..self.entries.len() {
            self.place(i);
        }
    }
}

struct Store {
    shards: Vec<Mutex<Shard>>,
}

/// Sharded registry of named counters, gauges, and histograms.
///
/// Counters only ever grow; gauges record the most recent value;
/// histograms accumulate samples and answer bucket-bounded percentile
/// queries. Only this crate records: every update comes from the one
/// table of [`MetricsRegistry::from_events`], applied by a
/// [`Tracer`](crate::Tracer) with this registry attached or by the
/// replay of a trace. Readers ([`MetricsRegistry::value`],
/// [`MetricsRegistry::percentile`], [`MetricsRegistry::render_text`])
/// are public. All operations take `&self`; clones share the underlying
/// store.
#[derive(Clone)]
pub struct MetricsRegistry {
    store: Arc<Store>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            store: Arc::new(Store {
                shards: (0..NSHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            }),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n: usize = self
            .store
            .shards
            .iter()
            .map(|s| s.lock().unwrap().entries.len())
            .sum();
        f.debug_struct("MetricsRegistry")
            .field("metrics", &n)
            .finish()
    }
}

/// One metric sample: `(name, sorted labels, value)`.
type LabeledValue = (String, Vec<(String, String)>, f64);
/// One histogram: `(name, sorted labels, histogram)`.
type LabeledHist = (String, Vec<(String, String)>, Histogram);

/// A point-in-time copy of every metric, sorted by `(name, labels)`.
#[derive(Clone, Debug, Default)]
pub(crate) struct MetricsSnapshot {
    /// Monotonic counters.
    pub(crate) counters: Vec<LabeledValue>,
    /// Last-value gauges.
    pub(crate) gauges: Vec<LabeledValue>,
    /// Histograms.
    pub(crate) hists: Vec<LabeledHist>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Whether two handles share the same underlying store.
    pub fn same_store(&self, other: &MetricsRegistry) -> bool {
        Arc::ptr_eq(&self.store, &other.store)
    }

    fn with_entry(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        mk: impl FnOnce() -> Value,
        f: impl FnOnce(&mut Value),
    ) {
        let hash = key_hash(name, labels);
        let shard = &self.store.shards[(hash >> 56) as usize & (NSHARDS - 1)];
        let mut shard = shard.lock().unwrap();
        let idx = match shard.find(hash, name, labels) {
            Some(i) => i,
            None => shard.add_entry(hash, name, labels, mk()),
        };
        f(&mut shard.entries[idx].value);
    }

    fn read_entry<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        f: impl FnOnce(&Value) -> Option<T>,
    ) -> Option<T> {
        let hash = key_hash(name, labels);
        let shard = &self.store.shards[(hash >> 56) as usize & (NSHARDS - 1)];
        let shard = shard.lock().unwrap();
        let idx = shard.find(hash, name, labels)?;
        f(&shard.entries[idx].value)
    }

    /// Add to a labelled monotonic counter (created at 0 on first use).
    pub(crate) fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: f64) {
        self.with_entry(
            name,
            labels,
            || Value::Counter(0.0),
            |v| {
                if let Value::Counter(c) = v {
                    *c += delta;
                }
            },
        );
    }

    /// Increment a labelled counter by one.
    pub(crate) fn counter_incr(&self, name: &str, labels: &[(&str, &str)]) {
        self.counter_add(name, labels, 1.0);
    }

    /// Set a labelled gauge to its latest value.
    pub(crate) fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.with_entry(
            name,
            labels,
            || Value::Gauge(0.0),
            |v| {
                if let Value::Gauge(g) = v {
                    *g = value;
                }
            },
        );
    }

    /// Record a sample into a labelled histogram.
    pub(crate) fn observe(&self, name: &str, labels: &[(&str, &str)], sample: f64) {
        self.with_entry(
            name,
            labels,
            || Value::Hist(Histogram::new()),
            |v| {
                if let Value::Hist(h) = v {
                    h.record(sample);
                }
            },
        );
    }

    /// Current value of a labelled counter or gauge.
    pub fn value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.read_entry(name, labels, |v| match v {
            Value::Counter(c) => Some(*c),
            Value::Gauge(g) => Some(*g),
            Value::Hist(_) => None,
        })
    }

    /// Bucket-bounded percentile of a labelled histogram.
    pub fn percentile(&self, name: &str, labels: &[(&str, &str)], q: f64) -> Option<f64> {
        self.read_entry(name, labels, |v| match v {
            Value::Hist(h) => h.percentile(q),
            _ => None,
        })
    }

    /// Every metric, sorted by `(name, labels)` for deterministic output.
    pub(crate) fn snapshot_all(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.store.shards {
            let shard = shard.lock().unwrap();
            for e in &shard.entries {
                let key = (e.name.clone(), e.labels.clone());
                match &e.value {
                    Value::Counter(c) => snap.counters.push((key.0, key.1, *c)),
                    Value::Gauge(g) => snap.gauges.push((key.0, key.1, *g)),
                    Value::Hist(h) => snap.hists.push((key.0, key.1, h.clone())),
                }
            }
        }
        snap.counters
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        snap.gauges
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        snap.hists
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        snap
    }

    /// Render the text exposition format — Prometheus-shaped
    /// (`# TYPE` headers, `name{label="v"} value` samples, histograms as
    /// summaries with `quantile` labels), with internal dotted names
    /// mapped to `fcix_<underscored>`. This is the byte stream a future
    /// TCP `/metrics` endpoint will serve, and what
    /// `fcix batch --metrics-out` snapshots to disk.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot_all();
        let mut out = String::new();
        let wire = |name: &str| format!("fcix_{}", name.replace('.', "_"));
        let labelset = |labels: &[(String, String)], extra: Option<(&str, &str)>| {
            let mut parts: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", v.replace('"', "'")))
                .collect();
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        let mut last_type: Option<(String, &str)> = None;
        let mut type_line = |out: &mut String, name: &str, ty: &'static str| {
            if last_type.as_ref().map(|(n, t)| (n.as_str(), *t)) != Some((name, ty)) {
                out.push_str(&format!("# TYPE {name} {ty}\n"));
                last_type = Some((name.to_string(), ty));
            }
        };
        for (name, labels, v) in &snap.counters {
            let w = wire(name);
            type_line(&mut out, &w, "counter");
            out.push_str(&format!("{w}{} {v}\n", labelset(labels, None)));
        }
        for (name, labels, v) in &snap.gauges {
            let w = wire(name);
            type_line(&mut out, &w, "gauge");
            out.push_str(&format!("{w}{} {v}\n", labelset(labels, None)));
        }
        for (name, labels, h) in &snap.hists {
            let w = wire(name);
            type_line(&mut out, &w, "summary");
            let s = h.stats();
            for (q, qv) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                out.push_str(&format!(
                    "{w}{} {qv}\n",
                    labelset(labels, Some(("quantile", q)))
                ));
            }
            out.push_str(&format!("{w}_max{} {}\n", labelset(labels, None), s.max));
            out.push_str(&format!("{w}_sum{} {}\n", labelset(labels, None), s.sum));
            out.push_str(&format!(
                "{w}_count{} {}\n",
                labelset(labels, None),
                s.count
            ));
        }
        out
    }

    /// Rebuild a metrics plane from a recorded trace, so `fcix trace
    /// metrics` can expose any JSONL trace without the producing process.
    ///
    /// This is a fold of the one table from an event to metric updates,
    /// which keeps no state from one event to the next. A
    /// [`Tracer`](crate::Tracer) with a registry applies the same table
    /// to every span and instant it builds, so the live plane and the
    /// replay of its trace agree by construction. No layer records any
    /// other way: the registry's writers are private to this crate.
    /// DESIGN.md's metric catalogue lists the table row by row.
    pub fn from_events(events: &[Event]) -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        for e in events {
            reg.record_event(e.kind, &e.name, e.cat, e.sim_dur_s, &e.args, &e.labels);
        }
        reg
    }

    /// The one table from a trace record to metric updates; it keeps no
    /// state from one record to the next. Spans feed
    /// `trace.span_s{phase,cat}` (their simulated duration) and
    /// `trace.flops{cat}`. Each instant the table names feeds the series
    /// listed beside it below, from its own args; a missing arg records
    /// nothing, except the `count` of the cache instants, which defaults
    /// to 1. Fault kinds are named by [`FaultKind`]. A label an instant
    /// carries (a σ phase, a served job's `tenant`, a request's `verb`)
    /// becomes the one label of the series it feeds.
    pub(crate) fn record_event<K: AsRef<str>, L: AsRef<str>>(
        &self,
        kind: EventKind,
        name: &str,
        cat: Category,
        sim_dur_s: f64,
        args: &[(K, f64)],
        labels: &[(L, L)],
    ) {
        let arg = |key: &str| {
            args.iter()
                .find(|(k, _)| k.as_ref() == key)
                .map(|(_, v)| *v)
        };
        let label = |key: &'static str| {
            labels
                .iter()
                .find(|(k, _)| k.as_ref() == key)
                .map(|(_, v)| [(key, v.as_ref())])
        };
        let gauge = |metric: &str, key: &str| {
            if let Some(v) = arg(key) {
                self.gauge_set(metric, &[], v);
            }
        };
        let hist = |metric: &str, key: &str, labels: &[(&str, &str)]| {
            if let Some(v) = arg(key) {
                self.observe(metric, labels, v);
            }
        };
        let count = |metric: &str, key: &str| {
            if let Some(n) = arg(key) {
                self.counter_add(metric, &[], n);
            }
        };
        // A found label as a one-label set; none when the record lacks it.
        fn one<'a>(label: &'a Option<[(&'a str, &'a str); 1]>) -> &'a [(&'a str, &'a str)] {
            label.as_ref().map_or(&[], |l| &l[..])
        }
        match kind {
            EventKind::Span => {
                self.observe(
                    "trace.span_s",
                    &[("phase", name), ("cat", cat.as_str())],
                    sim_dur_s,
                );
                if let Some(flops) = arg("flops") {
                    self.counter_add("trace.flops", &[("cat", cat.as_str())], flops);
                }
            }
            EventKind::Instant => match name {
                "ddi_get" | "ddi_get_cols" => hist("ddi.get_bytes", "bytes", &[]),
                "ddi_acc" => hist("ddi.acc_bytes", "bytes", &[]),
                "fault_injected" => {
                    let kind = [("kind", FaultKind::from_code(arg("kind")).label())];
                    self.counter_incr("fault.injected", &kind);
                    if let Some(b) = arg("backoff_s").filter(|b| *b > 0.0) {
                        self.observe("ddi.retry_backoff_s", &kind, b);
                    }
                }
                "task_recompute" => self.counter_incr("fault.recomputes", &[]),
                "rank_death_recovery" => {
                    self.counter_incr("fault.rank_deaths", &[]);
                    hist("fault.rank_death_recovery_s", "lost_s", &[]);
                }
                "diag_iter" => {
                    count("davidson.iters", "sigmas");
                    gauge("davidson.residual", "residual");
                    if let Some(s) = arg("iter_s").filter(|s| *s > 0.0) {
                        self.observe("davidson.iter_s", &[], s);
                    }
                }
                "cdfci_begin" | "selected_begin" => {
                    gauge("sparse.conn.table_bytes", "table_bytes");
                }
                "cdfci_sweep" => {
                    gauge("sparse.cdfci.support", "support");
                    gauge("sparse.cdfci.store_bytes", "store_bytes");
                    gauge("sparse.cdfci.dropped", "dropped");
                    hist("sparse.cdfci.sweep_us", "sweep_us", &[]);
                    count("sparse.cdfci.scans", "scans");
                }
                "cdfci_end" => count("sparse.cdfci.scans", "scans"),
                "selected_outer" => {
                    gauge("sparse.selected.support", "support");
                    gauge("sparse.selected.nnz", "nnz");
                    gauge("sparse.selected.energy", "energy");
                    hist("sparse.selected.outer_us", "outer_us", &[]);
                }
                "job_submit" => gauge("serve.queue_depth", "depth"),
                "job_done" | "job_failed" => {
                    let tenant = label("tenant");
                    let by_tenant = one(&tenant);
                    let outcome = match name {
                        "job_done" => "serve.jobs_done",
                        _ => "serve.jobs_failed",
                    };
                    self.counter_incr(outcome, by_tenant);
                    hist("serve.queue_wait_us", "queue_us", by_tenant);
                    hist("serve.exec_us", "exec_us", by_tenant);
                }
                "batch_solve" => {
                    hist("serve.batch_size", "jobs", &[]);
                    if arg("jobs").is_some_and(|j| j > 1.0) {
                        self.counter_incr("serve.batches", &[]);
                    }
                }
                "cache_hit" | "cache_miss" | "cache_evict" => {
                    let metric = match name {
                        "cache_hit" => "serve.cache_hits",
                        "cache_miss" => "serve.cache_misses",
                        _ => "serve.cache_evictions",
                    };
                    self.counter_add(metric, &[], arg("count").unwrap_or(1.0));
                }
                "wal_recovered" => {
                    gauge("serve.wal_recovered_pending", "pending");
                    gauge("serve.wal_recovered_completed", "completed");
                    gauge("serve.wal_warnings", "warnings");
                }
                "wal_append" => {
                    self.counter_incr("serve.wal_appends", &[]);
                    gauge("serve.wal_bytes", "bytes");
                }
                "net_request" => self.counter_incr("net.requests", one(&label("verb"))),
                "net_reject" => self.counter_incr("net.rejects", one(&label("reason"))),
                // The spread of per-rank busy time is the load imbalance
                // Table 3 reports as a residual row.
                "rank_busy" => hist("sigma.rank_busy_s", "busy_s", one(&label("phase"))),
                "phase_end" => {
                    let phase = label("phase");
                    hist("sigma.phase_s", "elapsed_s", one(&phase));
                    hist("sigma.phase_gflops", "gflops_per_msp", one(&phase));
                }
                "gemm_probe" | "eigh_probe" => {
                    let (key, gflops, secs) = match name {
                        "gemm_probe" => ("shape", "linalg.gemm_gflops", "linalg.gemm_s"),
                        _ => ("n", "linalg.eigh_gflops", "linalg.eigh_s"),
                    };
                    let by = label(key);
                    hist(gflops, "gflops", one(&by));
                    hist(secs, "s", one(&by));
                }
                _ => {}
            },
            EventKind::Counter => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.counter_incr("ddi.nxtval", &[]);
        m.counter_incr("ddi.nxtval", &[]);
        m.counter_add("ddi.acc_bytes", &[], 4096.0);
        assert_eq!(m.value("ddi.nxtval", &[]), Some(2.0));
        assert_eq!(m.value("ddi.acc_bytes", &[]), Some(4096.0));
        assert_eq!(m.value("missing", &[]), None);
    }

    #[test]
    fn gauges_take_last_value() {
        let m = MetricsRegistry::new();
        m.gauge_set("residual", &[], 1.0);
        m.gauge_set("residual", &[], 1e-6);
        assert_eq!(m.value("residual", &[]), Some(1e-6));
    }

    #[test]
    fn snapshot_is_sorted() {
        let m = MetricsRegistry::new();
        m.gauge_set("b", &[], 2.0);
        m.gauge_set("a", &[], 1.0);
        let snap = m.snapshot_all();
        assert_eq!(snap.gauges[0].0, "a");
        assert_eq!(snap.gauges[1].0, "b");
    }

    #[test]
    fn labels_address_distinct_series() {
        let m = MetricsRegistry::new();
        m.counter_incr("serve.jobs_done", &[("tenant", "a")]);
        m.counter_incr("serve.jobs_done", &[("tenant", "a")]);
        m.counter_incr("serve.jobs_done", &[("tenant", "b")]);
        assert_eq!(m.value("serve.jobs_done", &[("tenant", "a")]), Some(2.0));
        assert_eq!(m.value("serve.jobs_done", &[("tenant", "b")]), Some(1.0));
        assert_eq!(m.value("serve.jobs_done", &[]), None);
    }

    #[test]
    fn histogram_percentiles_queryable() {
        let m = MetricsRegistry::new();
        for i in 1..=1000 {
            m.observe("serve.queue_wait_us", &[("tenant", "t0")], i as f64);
        }
        let p50 = m
            .percentile("serve.queue_wait_us", &[("tenant", "t0")], 50.0)
            .unwrap();
        assert!((500.0..=500.0 * 1.04).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn many_metrics_stay_addressable() {
        // Exercise shard rehashing: hundreds of distinct keys.
        let m = MetricsRegistry::new();
        for i in 0..500 {
            m.counter_add(&format!("m{i}"), &[], i as f64);
        }
        for i in 0..500 {
            assert_eq!(m.value(&format!("m{i}"), &[]), Some(i as f64));
        }
        assert_eq!(m.snapshot_all().counters.len(), 500);
    }

    #[test]
    fn render_text_is_exposition_shaped() {
        let m = MetricsRegistry::new();
        m.counter_add("serve.jobs_done", &[("tenant", "a")], 3.0);
        m.gauge_set("serve.queue_depth", &[], 2.0);
        m.observe("serve.exec_us", &[("tenant", "a")], 1500.0);
        let text = m.render_text();
        assert!(text.contains("# TYPE fcix_serve_jobs_done counter"));
        assert!(text.contains("fcix_serve_jobs_done{tenant=\"a\"} 3"));
        assert!(text.contains("# TYPE fcix_serve_queue_depth gauge"));
        assert!(text.contains("# TYPE fcix_serve_exec_us summary"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("fcix_serve_exec_us_count{tenant=\"a\"} 1"));
    }

    /// The table on one hand-built trace: plain counts, the `count`
    /// payload of cache instants, each fault kind (a legacy fault instant
    /// without a payload files under `other`), the `tenant` label of job
    /// instants, the Davidson series, the single-job batch that is no
    /// coalesced solve, CDFCI scans summed over its points, the WAL and
    /// network tallies and a GEMM probe's `shape`; and the tracer that
    /// built the trace fed its own registry the same lines.
    #[test]
    fn instants_roll_up() {
        let t = crate::Tracer::in_memory();
        let instant = |name: &str, args: &[(&str, f64)]| {
            t.instant(Some(0), name, crate::Category::Other, args);
        };
        let job = |name: &str, tenant: &str| {
            let args = [("queue_us", 10.0), ("exec_us", 20.0)];
            t.instant_labelled(None, name, Category::Other, &args, &[("tenant", tenant)]);
        };
        instant("job_submit", &[("seq", 0.0), ("depth", 3.0)]);
        instant("cache_miss", &[]);
        instant("cache_hit", &[("count", 3.0)]);
        instant("cache_evict", &[("count", 2.0)]);
        instant("batch_solve", &[("jobs", 2.0)]);
        instant("batch_solve", &[("jobs", 1.0)]);
        instant("cdfci_sweep", &[("scans", 4.0)]);
        instant("cdfci_end", &[("scans", 1.0)]);
        instant("wal_append", &[("bytes", 100.0)]);
        instant("wal_append", &[("bytes", 180.0)]);
        let labelled = |name: &str, args: &[(&str, f64)], label: (&str, &str)| {
            t.instant_labelled(None, name, Category::Other, args, &[label]);
        };
        labelled("net_request", &[], ("verb", "ping"));
        labelled("net_reject", &[], ("reason", "invalid"));
        let probe = [("gflops", 2.5), ("s", 1e-3)];
        labelled("gemm_probe", &probe, ("shape", "4x4x4"));
        job("job_done", "a");
        job("job_done", "a");
        job("job_failed", "b");
        for b in [0.001, 0.002, 0.004, 0.008] {
            instant("fault_injected", &[("kind", 0.0), ("backoff_s", b)]);
        }
        instant("fault_injected", &[]);
        instant("fault_injected", &[("kind", 4.0), ("stall_ns", 5e4)]);
        instant("fault_injected", &[("kind", 5.0), ("ka", 1.0)]);
        instant("task_recompute", &[("ka", 1.0), ("attempt", 0.0)]);
        instant(
            "rank_death_recovery",
            &[("survivors", 3.0), ("lost_s", 0.75)],
        );
        for (sigmas, res, iter_s) in [(2.0, 0.5, 0.25), (3.0, 0.1, 0.0)] {
            let args = [("sigmas", sigmas), ("residual", res), ("iter_s", iter_s)];
            instant("diag_iter", &args);
        }
        let events = t.events().unwrap();
        let reg = MetricsRegistry::from_events(&events);
        let kind = |k| [("kind", k)];
        let tenant = |k| [("tenant", k)];
        for (name, labels, want) in [
            ("serve.queue_depth", &[][..], 3.0),
            ("serve.jobs_done", &tenant("a"), 2.0),
            ("serve.jobs_failed", &tenant("b"), 1.0),
            ("serve.batches", &[], 1.0),
            ("sparse.cdfci.scans", &[], 5.0),
            ("serve.wal_appends", &[], 2.0),
            ("serve.wal_bytes", &[], 180.0),
            ("net.requests", &[("verb", "ping")], 1.0),
            ("net.rejects", &[("reason", "invalid")], 1.0),
            ("serve.cache_hits", &[], 3.0),
            ("serve.cache_misses", &[], 1.0),
            ("serve.cache_evictions", &[], 2.0),
            ("fault.injected", &kind("transient"), 4.0),
            ("fault.injected", &kind("other"), 1.0),
            ("fault.injected", &kind("nxtval_stall"), 1.0),
            ("fault.injected", &kind("poisoned_task"), 1.0),
            ("fault.recomputes", &[], 1.0),
            ("fault.rank_deaths", &[], 1.0),
            ("davidson.iters", &[], 5.0),
            ("davidson.residual", &[], 0.1),
        ] {
            assert_eq!(reg.value(name, labels), Some(want), "{name} {labels:?}");
        }
        let backoff = |q| reg.percentile("ddi.retry_backoff_s", &kind("transient"), q);
        let p50 = backoff(50.0).unwrap();
        assert!((0.002..=0.002 * 1.04).contains(&p50), "p50 = {p50}");
        assert_eq!(backoff(100.0), Some(0.008));
        let text = reg.render_text();
        for line in [
            "fcix_ddi_retry_backoff_s_count{kind=\"transient\"} 4",
            "fcix_fault_rank_death_recovery_s_count 1",
            "fcix_fault_rank_death_recovery_s_max 0.75",
            "fcix_serve_exec_us_count{tenant=\"a\"} 2",
            "fcix_serve_queue_wait_us_count{tenant=\"b\"} 1",
            "fcix_davidson_iter_s_count 1",
            "fcix_serve_batch_size_count 2",
            "fcix_linalg_gemm_gflops_max{shape=\"4x4x4\"} 2.5",
            "fcix_linalg_gemm_s_count{shape=\"4x4x4\"} 1",
        ] {
            assert!(text.lines().any(|l| l == line), "no {line} in:\n{text}");
        }
        assert!(!text.contains("fcix_ddi_retry_backoff_s_count{kind=\"other\"}"));
        assert_eq!(t.metrics().unwrap().render_text(), text);
    }

    #[test]
    fn shared_store_across_clones() {
        let m = MetricsRegistry::new();
        let m2 = m.clone();
        m2.counter_incr("x", &[]);
        assert_eq!(m.value("x", &[]), Some(1.0));
        assert!(m.same_store(&m2));
        assert!(!m.same_store(&MetricsRegistry::new()));
    }
}
