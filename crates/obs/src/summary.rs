//! Table-3-style run summaries.
//!
//! [`RunSummary`] is the per-category rollup the paper prints as Table 3:
//! compute / network / lock / I/O rows, load imbalance, sustained GF/s per
//! MSP, aggregate TFlop/s. It can be built from a trace's spans
//! ([`RunSummary::from_events`]) or filled directly from clock data (the
//! `fci-xsim` crate does this for `RunReport`). It reads no instant: the
//! fault-plane and serving tallies instants carry roll up in one place,
//! `MetricsRegistry::from_events` (`fcix trace metrics`).

use std::collections::BTreeMap;

use crate::event::{Category, Event, EventKind};

/// Aggregate per-category telemetry of one run (or one phase).
///
/// All times are *aggregate seconds across MSPs* (divide by [`nproc`] for
/// the per-MSP averages the table prints). `elapsed` is the wall-clock of
/// the run: the busy time of the slowest MSP.
///
/// [`nproc`]: RunSummary::nproc
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Number of virtual MSPs.
    pub nproc: usize,
    /// Aggregate seconds in DGEMM-class compute.
    pub t_dgemm: f64,
    /// Aggregate seconds in DAXPY/indexed + scalar compute.
    pub t_daxpy: f64,
    /// Aggregate seconds in gather/scatter and local copies.
    pub t_gather: f64,
    /// Aggregate seconds in network transfers.
    pub t_net: f64,
    /// Aggregate seconds acquiring remote mutexes.
    pub t_lock: f64,
    /// Aggregate seconds of disk I/O.
    pub t_io: f64,
    /// Wall-clock seconds (busy time of the slowest MSP).
    pub elapsed: f64,
    /// **Host** wall-clock seconds the traced spans actually took (first
    /// span start to last span end on the host clock). Zero when the
    /// trace carries no host timestamps. Sits next to `elapsed` so real
    /// and modeled throughput diverge visibly when a kernel regresses.
    pub host_elapsed: f64,
    /// Mean busy seconds per MSP.
    pub mean_busy: f64,
    /// DGEMM flops (aggregate).
    pub flops_dgemm: f64,
    /// DAXPY-class flops (aggregate).
    pub flops_daxpy: f64,
    /// Network bytes moved (aggregate).
    pub net_bytes: f64,
    /// One-sided messages sent (aggregate).
    pub net_msgs: f64,
    /// Remote mutex acquisitions (aggregate).
    pub lock_acquires: f64,
    /// `nxtval` counter messages (aggregate).
    pub nxtval_msgs: f64,
    /// Message resends performed by DDI recovery loops (aggregate).
    pub retries: f64,
    /// **Host** microseconds inside a σ routine, split by part: one entry
    /// per `*_host_us` counter name (`same_spin_host_us`: transpose /
    /// one-electron / gather / GEMM / scatter; `mixed_host_us`: get (the
    /// `DDI_GET` alone) / build / GEMM / scatter / acc), each part summed
    /// over every rank and phase that emitted it. Empty for traces
    /// without the counters.
    pub host_splits: Vec<(String, Vec<(String, f64)>)>,
    /// GEMM flops the host ran, per `*_host_us` counter name (its
    /// [`HOST_GEMM_FLOPS`] arg). Exact-zero screening keeps them below
    /// the charged `flops_dgemm`, which count the unscreened shapes.
    pub host_gemm_flops: Vec<(String, f64)>,
}

/// The arg of a `*_host_us` counter that carries the GEMM flops the host
/// ran (every other arg is a part's host µs).
pub const HOST_GEMM_FLOPS: &str = "gemm_flops";

/// The value stored under `key` in an insertion-ordered association
/// list, added with its default on first use.
fn slot<'a, T: Default>(list: &'a mut Vec<(String, T)>, key: &str) -> &'a mut T {
    let at = list.iter().position(|(k, _)| k == key);
    let at = at.unwrap_or_else(|| {
        list.push((key.to_string(), T::default()));
        list.len() - 1
    });
    &mut list[at].1
}

impl RunSummary {
    /// Aggregate time of a category.
    // lint: allow(dead) — oracle: the telemetry tests compare trace and clock rollups by category
    pub fn time(&self, cat: Category) -> f64 {
        match cat {
            Category::Dgemm => self.t_dgemm,
            Category::Daxpy => self.t_daxpy,
            Category::Gather => self.t_gather,
            Category::Net => self.t_net,
            Category::Lock => self.t_lock,
            Category::Io => self.t_io,
            Category::Other => 0.0,
        }
    }

    /// The row a category's time accumulates in; none for
    /// [`Category::Other`], which is also what an unknown wire name parses
    /// to.
    fn time_mut(&mut self, cat: Category) -> Option<&mut f64> {
        match cat {
            Category::Dgemm => Some(&mut self.t_dgemm),
            Category::Daxpy => Some(&mut self.t_daxpy),
            Category::Gather => Some(&mut self.t_gather),
            Category::Net => Some(&mut self.t_net),
            Category::Lock => Some(&mut self.t_lock),
            Category::Io => Some(&mut self.t_io),
            Category::Other => None,
        }
    }

    /// Load imbalance = elapsed − mean busy (the Table 3 residual row).
    pub fn load_imbalance(&self) -> f64 {
        self.elapsed - self.mean_busy
    }

    /// Total flops (aggregate).
    pub fn flops(&self) -> f64 {
        self.flops_dgemm + self.flops_daxpy
    }

    /// Sustained GFlop/s per MSP over the wall-clock.
    pub fn gflops_per_msp(&self) -> f64 {
        if self.elapsed == 0.0 || self.nproc == 0 {
            0.0
        } else {
            self.flops() / self.elapsed / self.nproc as f64 / 1e9
        }
    }

    /// Aggregate sustained TFlop/s over the wall-clock.
    pub fn tflops(&self) -> f64 {
        if self.elapsed == 0.0 {
            0.0
        } else {
            self.flops() / self.elapsed / 1e12
        }
    }

    /// Sustained GFlop/s over the **host** wall-clock (aggregate flops /
    /// real seconds this process spent in the traced spans). The
    /// simulated [`RunSummary::gflops_per_msp`] answers "how fast would
    /// the X1 run this"; this answers "how fast did the host actually
    /// run it" — the number the GEMM-engine benches track.
    pub(crate) fn host_gflops(&self) -> f64 {
        if self.host_elapsed == 0.0 {
            0.0
        } else {
            self.flops() / self.host_elapsed / 1e9
        }
    }

    /// Build a summary from a trace.
    ///
    /// Span durations accumulate into the category rows; the standard
    /// payload keys (`flops`, `bytes`, `msgs`, `acquires`, `nxtval`,
    /// `retries`) accumulate into the counters, and `*_host_us` counter
    /// records into [`RunSummary::host_splits`]. Instants are skipped.
    /// Wall-clock is the busy time (span duration sum) of the slowest
    /// rank, matching `RunReport::elapsed`.
    pub fn from_events(events: &[Event]) -> RunSummary {
        let mut s = RunSummary::default();
        // Busy seconds per rank that ran a span: a map, so that a rank id
        // costs one entry whatever its value.
        let mut busy: BTreeMap<usize, f64> = BTreeMap::new();
        let mut host_first = f64::INFINITY;
        let mut host_last = f64::NEG_INFINITY;
        for e in events {
            if e.kind == EventKind::Counter && e.name.ends_with("_host_us") {
                for (k, v) in &e.args {
                    if k == HOST_GEMM_FLOPS {
                        *slot(&mut s.host_gemm_flops, &e.name) += v;
                    } else {
                        *slot(slot(&mut s.host_splits, &e.name), k) += v;
                    }
                }
            }
            if e.kind != EventKind::Span {
                continue;
            }
            if let Some(t) = s.time_mut(e.cat) {
                *t += e.sim_dur_s;
            }
            if e.host_us != 0.0 || e.host_dur_us != 0.0 {
                host_first = host_first.min(e.host_us);
                host_last = host_last.max(e.host_us + e.host_dur_us);
            }
            if let Some(r) = e.rank {
                *busy.entry(r).or_default() += e.sim_dur_s;
            }
            match e.cat {
                Category::Dgemm => s.flops_dgemm += e.arg("flops").unwrap_or(0.0),
                Category::Daxpy => s.flops_daxpy += e.arg("flops").unwrap_or(0.0),
                Category::Net => {
                    s.net_bytes += e.arg("bytes").unwrap_or(0.0);
                    s.net_msgs += e.arg("msgs").unwrap_or(0.0);
                    s.nxtval_msgs += e.arg("nxtval").unwrap_or(0.0);
                    s.retries += e.arg("retries").unwrap_or(0.0);
                }
                Category::Lock => s.lock_acquires += e.arg("acquires").unwrap_or(0.0),
                _ => {}
            }
        }
        // Ranks below the highest that ran no span were idle.
        s.nproc = busy
            .last_key_value()
            .map_or(0, |(&r, _)| r.saturating_add(1));
        s.elapsed = busy.values().copied().fold(0.0, f64::max);
        s.mean_busy = if busy.is_empty() {
            0.0
        } else {
            busy.values().sum::<f64>() / s.nproc as f64
        };
        if host_last > host_first {
            s.host_elapsed = (host_last - host_first) / 1e6;
        }
        s
    }

    /// Render the Table-3-style breakdown as text.
    pub fn render(&self, title: &str) -> String {
        let n = self.nproc.max(1) as f64;
        let per_msp = |t: f64| t / n;
        let pct = |t: f64| {
            if self.elapsed > 0.0 {
                100.0 * per_msp(t) / self.elapsed
            } else {
                0.0
            }
        };
        let mut out = String::new();
        out.push_str(&format!("{title}  ({} MSPs)\n", self.nproc));
        out.push_str(&format!(
            "  {:<24} {:>12}  {:>6}\n",
            "row", "time/MSP (s)", "%"
        ));
        let rows: [(&str, f64); 7] = [
            ("compute: DGEMM", self.t_dgemm),
            ("compute: DAXPY/scalar", self.t_daxpy),
            ("gather/scatter", self.t_gather),
            ("network", self.t_net),
            ("lock wait", self.t_lock),
            ("disk I/O", self.t_io),
            ("load imbalance", self.load_imbalance() * n),
        ];
        for (name, t) in rows {
            out.push_str(&format!(
                "  {:<24} {:>12.4}  {:>5.1}%\n",
                name,
                per_msp(t),
                pct(t)
            ));
        }
        out.push_str(&format!(
            "  {:<24} {:>12.4}  {:>5.1}%\n",
            "total (wall)", self.elapsed, 100.0
        ));
        out.push_str(&format!(
            "  sustained: {:.2} GF/s per MSP, {:.4} TFlop/s aggregate\n",
            self.gflops_per_msp(),
            self.tflops()
        ));
        if self.host_elapsed > 0.0 {
            out.push_str(&format!(
                "  host: {:.4} s wall, {:.2} GF/s actual\n",
                self.host_elapsed,
                self.host_gflops()
            ));
        }
        let gemm_flops = |name: &str| {
            let found = self.host_gemm_flops.iter().find(|(k, _)| k == name);
            found.map(|&(_, v)| v)
        };
        for (name, parts) in &self.host_splits {
            let sum: f64 = parts.iter().map(|(_, us)| us).sum();
            let ran =
                gemm_flops(name).map_or(String::new(), |v| format!(", GEMM ran {v:.3e} flops"));
            out.push_str(&format!(
                "  host: {} split, {:.4} s over all MSPs{ran}\n",
                name.trim_end_matches("_host_us"),
                sum / 1e6
            ));
            for (part, us) in parts {
                out.push_str(&format!(
                    "    {:<22} {:>12.4}  {:>5.1}%\n",
                    part,
                    us / 1e6,
                    100.0 * us / sum.max(f64::MIN_POSITIVE)
                ));
            }
        }
        if !self.host_gemm_flops.is_empty() {
            let ran: f64 = self.host_gemm_flops.iter().map(|(_, v)| v).sum();
            out.push_str(&format!(
                "  host: GEMM ran {ran:.3e} of {:.3e} charged DGEMM flops ({:.1}%)\n",
                self.flops_dgemm,
                100.0 * ran / self.flops_dgemm.max(f64::MIN_POSITIVE)
            ));
        }
        out.push_str(&format!(
            "  traffic: {:.3e} bytes in {} msgs ({} resent); nxtval {}; lock acquires {}\n",
            self.net_bytes, self.net_msgs, self.retries, self.nxtval_msgs, self.lock_acquires
        ));
        out
    }

    /// Render a side-by-side diff of two summaries (for `fcix trace diff`).
    pub fn render_diff(&self, other: &RunSummary) -> String {
        let rel = |a: f64, b: f64| {
            if a == 0.0 && b == 0.0 {
                0.0
            } else if a == 0.0 {
                f64::INFINITY
            } else {
                100.0 * (b - a) / a
            }
        };
        let rows: [(&str, f64, f64); 10] = [
            ("t_dgemm", self.t_dgemm, other.t_dgemm),
            ("t_daxpy", self.t_daxpy, other.t_daxpy),
            ("t_gather", self.t_gather, other.t_gather),
            ("t_net", self.t_net, other.t_net),
            ("t_lock", self.t_lock, other.t_lock),
            ("t_io", self.t_io, other.t_io),
            ("elapsed", self.elapsed, other.elapsed),
            (
                "load_imbalance",
                self.load_imbalance(),
                other.load_imbalance(),
            ),
            ("net_bytes", self.net_bytes, other.net_bytes),
            ("flops", self.flops(), other.flops()),
        ];
        let mut out = String::new();
        out.push_str(&format!(
            "  {:<16} {:>14} {:>14} {:>9}\n",
            "metric", "A", "B", "Δ%"
        ));
        for (name, a, b) in rows {
            out.push_str(&format!(
                "  {:<16} {:>14.6} {:>14.6} {:>+8.2}%\n",
                name,
                a,
                b,
                rel(a, b)
            ));
        }
        out.push_str(&format!(
            "  {:<16} {:>14.3} {:>14.3} {:>+8.2}%\n",
            "GF/s per MSP",
            self.gflops_per_msp(),
            other.gflops_per_msp(),
            rel(self.gflops_per_msp(), other.gflops_per_msp())
        ));
        out.push_str(&format!(
            "  {:<16} {:>14.3} {:>14.3} {:>+8.2}%\n",
            "host GF/s",
            self.host_gflops(),
            other.host_gflops(),
            rel(self.host_gflops(), other.host_gflops())
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{Segment, Tracer};

    fn traced() -> Vec<Event> {
        let t = Tracer::in_memory();
        // Rank 0: 1.0 s dgemm (2e9 flops) + 0.25 s net (1e6 bytes, 10 msgs).
        t.record_phase(
            0,
            "sigma",
            &[
                Segment::new(Category::Dgemm, 1.0, vec![("flops".into(), 2.0e9)]),
                Segment::new(
                    Category::Net,
                    0.25,
                    vec![("bytes".into(), 1e6), ("msgs".into(), 10.0)],
                ),
            ],
            0.0,
            0.0,
        );
        // Rank 1: 0.5 s dgemm (1e9 flops) + 0.1 s lock (3 acquires).
        t.record_phase(
            1,
            "sigma",
            &[
                Segment::new(Category::Dgemm, 0.5, vec![("flops".into(), 1.0e9)]),
                Segment::new(Category::Lock, 0.1, vec![("acquires".into(), 3.0)]),
            ],
            0.0,
            0.0,
        );
        t.barrier(2);
        t.events().unwrap()
    }

    #[test]
    fn from_events_aggregates() {
        let s = RunSummary::from_events(&traced());
        assert_eq!(s.nproc, 2);
        assert!((s.t_dgemm - 1.5).abs() < 1e-12);
        assert!((s.t_net - 0.25).abs() < 1e-12);
        assert!((s.t_lock - 0.1).abs() < 1e-12);
        assert!((s.elapsed - 1.25).abs() < 1e-12);
        assert!((s.mean_busy - (1.25 + 0.6) / 2.0).abs() < 1e-12);
        assert!((s.flops() - 3.0e9).abs() < 1.0);
        assert_eq!(s.net_msgs, 10.0);
        assert_eq!(s.lock_acquires, 3.0);
        // 3e9 flops / 1.25 s / 2 MSPs = 1.2 GF/s per MSP.
        assert!((s.gflops_per_msp() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn no_rank_id_allocates_in_proportion() {
        // A per-rank table sized by the largest id would abort here.
        let span = |rank, sim_dur_s| Event {
            kind: EventKind::Span,
            name: "bb".into(),
            cat: Category::Dgemm,
            rank: Some(rank),
            host_us: 0.0,
            host_dur_us: 0.0,
            sim_s: 0.0,
            sim_dur_s,
            args: vec![],
            labels: vec![],
        };
        let s = RunSummary::from_events(&[span(0, 1.0), span(1 << 50, 3.0)]);
        assert_eq!(s.nproc, (1 << 50) + 1);
        assert_eq!(s.elapsed, 3.0);
        assert_eq!(s.mean_busy, 4.0 / s.nproc as f64);
        let s = RunSummary::from_events(&[span(usize::MAX, 2.0)]);
        assert_eq!((s.nproc, s.elapsed), (usize::MAX, 2.0));
    }

    #[test]
    fn host_time_rollup_and_rate() {
        let t = Tracer::in_memory();
        // 2e9 flops over 0.5 host seconds → 4 GF/s actual.
        t.record_phase(
            0,
            "sigma",
            &[Segment::new(
                Category::Dgemm,
                1.0,
                vec![("flops".into(), 2.0e9)],
            )],
            1_000_000.0,
            500_000.0,
        );
        let s = RunSummary::from_events(&t.events().unwrap());
        assert!((s.host_elapsed - 0.5).abs() < 1e-12);
        assert!((s.host_gflops() - 4.0).abs() < 1e-9);
        let text = s.render("t");
        assert!(text.contains("GF/s actual"), "missing host line:\n{text}");
        // Without host timestamps there is no host line and no rate.
        let mut untimed = s.clone();
        untimed.host_elapsed = 0.0;
        assert_eq!(untimed.host_gflops(), 0.0);
        assert!(!untimed.render("t").contains("GF/s actual"));
    }

    #[test]
    fn host_split_counters_roll_up() {
        let t = Tracer::in_memory();
        // Two ranks of one phase, then rank 0 of the next.
        for (rank, gemm) in [(0, 30.0), (1, 50.0), (0, 20.0)] {
            t.counter(
                Some(rank),
                "same_spin_host_us",
                &[("transpose", 5.0), ("gemm", gemm), (HOST_GEMM_FLOPS, 1e6)],
            );
        }
        t.counter(Some(0), "mixed_host_us", &[("get", 1.0)]);
        t.counter(None, "pool_shape", &[("tasks", 9.0)]);
        let s = RunSummary::from_events(&t.events().unwrap());
        let want = |name: &str, parts: &[(&str, f64)]| {
            let parts = parts.iter().map(|(k, v)| (k.to_string(), *v)).collect();
            (name.to_string(), parts)
        };
        assert_eq!(
            s.host_splits,
            [
                want("same_spin_host_us", &[("transpose", 15.0), ("gemm", 100.0)]),
                want("mixed_host_us", &[("get", 1.0)]),
            ]
        );
        // The host GEMM flops are not a part: they roll up on their own.
        assert_eq!(s.host_gemm_flops, [("same_spin_host_us".to_string(), 3e6)]);
        let text = s.render("t");
        assert!(text.contains("host: same_spin split"), "{text}");
        assert!(text.contains("gemm"), "{text}");
        assert!(text.contains("GEMM ran 3.000e6 flops"), "{text}");
        assert!(
            text.contains("GEMM ran 3.000e6 of 0.000e0 charged"),
            "{text}"
        );
        // A trace without the counters prints no split.
        let plain = RunSummary::from_events(&traced());
        assert!(plain.host_splits.is_empty());
        assert!(!plain.render("t").contains("split"));
        assert!(!plain.render("t").contains("GEMM ran"));
    }

    #[test]
    fn render_mentions_all_rows() {
        let s = RunSummary::from_events(&traced());
        let text = s.render("Table 3");
        for needle in [
            "DGEMM",
            "DAXPY",
            "network",
            "lock wait",
            "disk I/O",
            "load imbalance",
            "TFlop/s",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn diff_renders() {
        let s = RunSummary::from_events(&traced());
        let text = s.render_diff(&s);
        assert!(text.contains("elapsed"));
        assert!(text.contains("+0.00%"));
    }
}
