//! Aggregation of per-MSP clocks into run-level metrics.

use crate::clock::Clock;
use fci_obs::{RunSummary, Tracer};

/// The simulated-time outcome of one parallel phase (or whole iteration).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// One clock per virtual MSP.
    pub clocks: Vec<Clock>,
}

impl RunReport {
    /// Wrap a set of per-MSP clocks.
    pub fn new(clocks: Vec<Clock>) -> Self {
        RunReport { clocks }
    }

    /// Number of MSPs.
    pub fn nproc(&self) -> usize {
        self.clocks.len()
    }

    /// Wall-clock of the phase = the slowest MSP (barrier semantics).
    pub fn elapsed(&self) -> f64 {
        self.clocks.iter().map(Clock::total).fold(0.0, f64::max)
    }

    /// Mean busy time across MSPs.
    pub fn mean_busy(&self) -> f64 {
        if self.clocks.is_empty() {
            return 0.0;
        }
        self.clocks.iter().map(Clock::total).sum::<f64>() / self.clocks.len() as f64
    }

    /// Load imbalance = elapsed − mean busy time (the paper's Table 3
    /// reports exactly this kind of residual as "Load Imbalance").
    pub fn load_imbalance(&self) -> f64 {
        self.elapsed() - self.mean_busy()
    }

    /// Aggregate flops across MSPs.
    pub fn total_flops(&self) -> f64 {
        self.clocks.iter().map(Clock::flops).sum()
    }

    /// Sustained GFlop/s per MSP over the phase wall-clock.
    pub fn gflops_per_msp(&self) -> f64 {
        let t = self.elapsed();
        if t == 0.0 || self.clocks.is_empty() {
            return 0.0;
        }
        self.total_flops() / t / self.clocks.len() as f64 / 1e9
    }

    /// Aggregate sustained TFlop/s over the phase wall-clock.
    pub fn tflops(&self) -> f64 {
        let t = self.elapsed();
        if t == 0.0 {
            0.0
        } else {
            self.total_flops() / t / 1e12
        }
    }

    /// Total network bytes moved.
    pub fn total_net_bytes(&self) -> f64 {
        self.clocks.iter().map(|c| c.net_bytes).sum()
    }

    /// Total one-sided messages sent (including counter traffic).
    pub fn total_net_msgs(&self) -> f64 {
        self.clocks.iter().map(|c| c.net_msgs).sum()
    }

    /// Total remote mutex acquisitions.
    pub fn total_lock_acquires(&self) -> f64 {
        self.clocks.iter().map(|c| c.lock_acquires).sum()
    }

    /// Total `nxtval` counter operations.
    pub fn total_nxtval_msgs(&self) -> f64 {
        self.clocks.iter().map(|c| c.nxtval_msgs).sum()
    }

    /// Merge another phase's report into this one, summing per-MSP
    /// charges.
    ///
    /// If the MSP counts differ, the shorter side is padded with idle
    /// (default) clocks — the missing ranks simply did nothing in that
    /// phase.
    pub fn merge(&mut self, other: &RunReport) {
        if self.clocks.len() < other.clocks.len() {
            self.clocks.resize(other.clocks.len(), Clock::default());
        }
        for (a, b) in self.clocks.iter_mut().zip(&other.clocks) {
            a.merge(b);
        }
    }

    /// Roll the report up into the Table-3-style [`RunSummary`].
    // lint: allow(dead) — oracle: the clock-side rollup the trace's `RunSummary` is tested against
    pub fn summary(&self) -> RunSummary {
        let mut s = RunSummary {
            nproc: self.nproc(),
            elapsed: self.elapsed(),
            mean_busy: self.mean_busy(),
            ..RunSummary::default()
        };
        for c in &self.clocks {
            s.t_dgemm += c.t_dgemm;
            s.t_daxpy += c.t_daxpy;
            s.t_gather += c.t_gather;
            s.t_net += c.t_net;
            s.t_lock += c.t_lock;
            s.t_io += c.t_io;
            s.flops_dgemm += c.flops_dgemm;
            s.flops_daxpy += c.flops_daxpy;
            s.net_bytes += c.net_bytes;
            s.net_msgs += c.net_msgs;
            s.lock_acquires += c.lock_acquires;
            s.nxtval_msgs += c.nxtval_msgs;
            s.retries += c.retries;
        }
        s
    }

    /// Emit this phase into a trace: one stack of category spans per MSP
    /// (derived from each rank's clock via [`Clock::segments`]), followed
    /// by the phase barrier. `host_start_us`/`host_dur_us` bound the
    /// measured host interval of the phase. A tracer with only a metrics
    /// registry takes the spans too: they feed its `trace.*` series.
    pub fn record_to(&self, tracer: &Tracer, phase: &str, host_start_us: f64, host_dur_us: f64) {
        if !tracer.active() {
            return;
        }
        for (rank, clock) in self.clocks.iter().enumerate() {
            tracer.record_phase(rank, phase, &clock.segments(), host_start_us, host_dur_us);
        }
        tracer.barrier(self.nproc());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;

    fn clock_with_daxpy(seconds: f64) -> Clock {
        let m = MachineModel::cray_x1();
        let mut c = Clock::default();
        c.charge_daxpy(&m, seconds * m.daxpy_rate);
        c
    }

    #[test]
    fn elapsed_is_max() {
        let r = RunReport::new(vec![
            clock_with_daxpy(1.0),
            clock_with_daxpy(3.0),
            clock_with_daxpy(2.0),
        ]);
        assert!((r.elapsed() - 3.0).abs() < 1e-12);
        assert!((r.mean_busy() - 2.0).abs() < 1e-12);
        assert!((r.load_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_run_has_no_imbalance() {
        let r = RunReport::new(vec![clock_with_daxpy(2.0); 8]);
        assert!(r.load_imbalance() < 1e-12);
        // 2 GF/s per MSP sustained.
        assert!((r.gflops_per_msp() - 2.0).abs() < 1e-9);
        assert!((r.tflops() - 2.0 * 8.0 / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates_phases() {
        let mut r = RunReport::default();
        r.merge(&RunReport::new(vec![clock_with_daxpy(1.0); 4]));
        r.merge(&RunReport::new(vec![clock_with_daxpy(0.5); 4]));
        assert!((r.elapsed() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_pads_mismatched_counts() {
        // Regression: this used to assert (panic) on mismatched lengths.
        let mut r = RunReport::new(vec![clock_with_daxpy(1.0); 2]);
        r.merge(&RunReport::new(vec![clock_with_daxpy(0.5); 4]));
        assert_eq!(r.nproc(), 4);
        assert!((r.clocks[0].total() - 1.5).abs() < 1e-12);
        // Padded ranks only saw the second phase.
        assert!((r.clocks[3].total() - 0.5).abs() < 1e-12);
        // Merging a shorter report leaves trailing ranks untouched.
        let mut r2 = RunReport::new(vec![clock_with_daxpy(1.0); 4]);
        r2.merge(&RunReport::new(vec![clock_with_daxpy(0.5); 2]));
        assert_eq!(r2.nproc(), 4);
        assert!((r2.clocks[3].total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_safe() {
        let r = RunReport::default();
        assert_eq!(r.elapsed(), 0.0);
        assert_eq!(r.gflops_per_msp(), 0.0);
        assert_eq!(r.load_imbalance(), 0.0);
    }

    #[test]
    fn summary_matches_report_aggregates() {
        let m = MachineModel::cray_x1();
        let mut c0 = clock_with_daxpy(1.0);
        c0.charge_net(&m, 1000, 3);
        c0.note_nxtval(2);
        let mut c1 = clock_with_daxpy(2.0);
        c1.charge_mutex(&m, 4);
        let r = RunReport::new(vec![c0, c1]);
        let s = r.summary();
        assert_eq!(s.nproc, 2);
        assert!((s.elapsed - r.elapsed()).abs() < 1e-15);
        assert!((s.load_imbalance() - r.load_imbalance()).abs() < 1e-15);
        assert!((s.flops() - r.total_flops()).abs() < 1e-6);
        assert_eq!(s.net_msgs, 3.0);
        assert_eq!(s.lock_acquires, 4.0);
        assert_eq!(s.nxtval_msgs, 2.0);
        assert!((s.tflops() - r.tflops()).abs() < 1e-15);
    }

    #[test]
    fn record_to_reproduces_summary() {
        let m = MachineModel::cray_x1();
        let mut c0 = clock_with_daxpy(1.0);
        c0.charge_dgemm(&m, 32, 32, 32);
        c0.charge_net(&m, 512, 2);
        let c1 = clock_with_daxpy(0.25);
        let r = RunReport::new(vec![c0, c1]);

        let tracer = Tracer::in_memory();
        r.record_to(&tracer, "phase", 0.0, 0.0);
        let from_trace = RunSummary::from_events(&tracer.events().unwrap());
        let direct = r.summary();
        assert!((from_trace.t_dgemm - direct.t_dgemm).abs() < 1e-12);
        assert!((from_trace.t_daxpy - direct.t_daxpy).abs() < 1e-12);
        assert!((from_trace.t_net - direct.t_net).abs() < 1e-12);
        assert!((from_trace.elapsed - direct.elapsed).abs() < 1e-12);
        assert!((from_trace.flops() - direct.flops()).abs() < 1e-6);
        assert_eq!(from_trace.net_bytes, direct.net_bytes);
    }
}
