//! Glue between the DDI execution world and the xsim clocks: run one
//! parallel phase, collect per-rank clocks, and fold the communication
//! statistics into simulated time.

use fci_ddi::{CommStats, Ddi};
use fci_obs::{Tracer, HOST_COPY_BYTES, HOST_GEMM_FLOPS};
use fci_xsim::{Clock, MachineModel, RunReport};
use std::sync::Mutex;

/// Execute `f(rank, stats, clock)` on every rank and return the phase
/// report. Network/lock time implied by the recorded [`CommStats`] is
/// charged onto each rank's clock automatically.
///
/// `name` labels the phase in traces: if a tracer is attached to `ddi`,
/// the finished phase is emitted as per-MSP category spans (dual host /
/// simulated timestamps) followed by a barrier ([`RunReport::record_to`]).
pub fn run_phase<F>(ddi: &Ddi, model: &MachineModel, name: &str, f: F) -> RunReport
where
    F: Fn(usize, &mut CommStats, &mut Clock) + Sync,
{
    run_split_phase(ddi, model, name, |rank, st, ck, _| f(rank, st, ck))
}

/// [`run_phase`] whose ranks split their host time: `f` gets a
/// [`HostSplit`] started at the phase's own first clock read, and a phase
/// in which some rank lapped ends at the latest lap. So a rank's parts
/// tile the phase's host interval up to its last lap, and time the host
/// loses anywhere in it (to preemption, say) counts in a part and in the
/// phase alike.
pub(crate) fn run_split_phase<F>(ddi: &Ddi, model: &MachineModel, name: &str, f: F) -> RunReport
where
    F: Fn(usize, &mut CommStats, &mut Clock, &mut HostSplit) + Sync,
{
    let tracer = ddi.tracer();
    let host_start = tracer.now_us();
    let ranks = Mutex::new(vec![(Clock::default(), None); ddi.nproc()]);
    let stats = ddi.run(|rank, st| {
        let mut ck = Clock::default();
        let mut host = HostSplit::new(&tracer);
        host.start_at(host_start);
        f(rank, st, &mut ck, &mut host);
        ranks.lock().unwrap()[rank] = (ck, host.last_lap());
    });
    let (mut clocks, laps): (Vec<Clock>, Vec<_>) = ranks.into_inner().unwrap().into_iter().unzip();
    let host_end = host_end(&tracer, laps);
    for (ck, st) in clocks.iter_mut().zip(&stats) {
        charge_comm(ck, st, model);
    }
    let report = RunReport::new(clocks);
    report.record_to(&tracer, name, host_start, host_end - host_start);
    report
}

/// Where a phase's host interval ends: at the latest of its ranks' last
/// laps ([`HostSplit::last_lap`]), or now if no rank timed a lap.
pub(crate) fn host_end(tracer: &Tracer, laps: impl IntoIterator<Item = Option<f64>>) -> f64 {
    let last = laps.into_iter().flatten().reduce(f64::max);
    last.unwrap_or_else(|| tracer.now_us())
}

/// Host-time split of one rank's share of a phase into five named parts
/// — the paper's Table 3 rows on the host clock. It runs only while the
/// world's tracer records events: each [`HostSplit::lap`] adds the host
/// µs since the previous lap to one part; without a tracer a lap is one
/// branch on a `None`. The first lap counts from [`HostSplit::start_at`],
/// which its phase sets to the phase's own first clock read, and laps
/// follow one another with no gap: a phase's host interval is its parts,
/// to the last lap. Beside the parts it tallies the GEMM flops the host
/// ran, which exact-zero screening holds below the flops the simulated
/// clock charges, and the bytes the first part moved, where the caller
/// counts them.
#[derive(Clone)]
pub(crate) struct HostSplit<'t> {
    tracer: Option<&'t Tracer>,
    last_us: f64,
    lapped: bool,
    parts_us: [f64; 5],
    gemm_flops: f64,
    copy_bytes: f64,
}

impl<'t> HostSplit<'t> {
    /// A split that times iff `tracer` is enabled (read once, here).
    pub(crate) fn new(tracer: &'t Tracer) -> Self {
        HostSplit {
            tracer: tracer.enabled().then_some(tracer),
            ..HostSplit::off()
        }
    }

    /// A split that never times (no world to trace into).
    pub(crate) fn off() -> HostSplit<'static> {
        HostSplit {
            tracer: None,
            last_us: 0.0,
            lapped: false,
            parts_us: [0.0; 5],
            gemm_flops: 0.0,
            copy_bytes: 0.0,
        }
    }

    /// Count the next lap from `us`, a read of this split's tracer clock.
    #[inline]
    pub(crate) fn start_at(&mut self, us: f64) {
        self.last_us = us;
    }

    /// The clock read that ended the last lap, if this split timed one.
    #[inline]
    pub(crate) fn last_lap(&self) -> Option<f64> {
        self.lapped.then_some(self.last_us)
    }

    /// Book the host time since the previous lap (or start) to `part`.
    #[inline]
    pub(crate) fn lap(&mut self, part: usize) {
        if let Some(t) = self.tracer {
            let now = t.now_us();
            self.parts_us[part] += now - self.last_us;
            self.last_us = now;
            self.lapped = true;
        }
    }

    /// Count an `m × n × k` GEMM the host ran.
    #[inline]
    pub(crate) fn gemm(&mut self, m: usize, n: usize, k: usize) {
        self.gemm_flops += 2.0 * m as f64 * n as f64 * k as f64;
    }

    /// Count `bytes` the first part read and wrote.
    #[inline]
    pub(crate) fn moved(&mut self, bytes: usize) {
        self.copy_bytes += bytes as f64;
    }

    /// Emit the sums as one `name` counter on `rank`'s lane, one arg per
    /// part, then the host GEMM flops as `gemm_flops` and — if any were
    /// counted — the first part's bytes as `copy_bytes`.
    pub(crate) fn emit(&self, rank: usize, name: &str, parts: [&str; 5]) {
        if let Some(t) = self.tracer {
            let args: [(&str, f64); 7] = std::array::from_fn(|i| match parts.get(i) {
                Some(&part) => (part, self.parts_us[i]),
                None if i == 5 => (HOST_GEMM_FLOPS, self.gemm_flops),
                None => (HOST_COPY_BYTES, self.copy_bytes),
            });
            let n = if self.copy_bytes > 0.0 { 7 } else { 6 };
            t.counter(Some(rank), name, &args[..n]);
        }
    }
}

/// Fold one rank's communication counters into its clock.
pub fn charge_comm(clock: &mut Clock, stats: &CommStats, model: &MachineModel) {
    clock.charge_net(model, stats.total_bytes(), stats.total_msgs());
    clock.charge_mutex(model, stats.mutex_acquires);
    clock.note_nxtval(stats.nxtval_msgs);
    if stats.retries > 0 || stats.backoff_ns > 0 {
        clock.charge_backoff(stats.backoff_ns, stats.retries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fci_ddi::Backend;
    use fci_obs::{RunSummary, Tracer};

    #[test]
    fn phase_collects_all_ranks() {
        let ddi = Ddi::new(4, Backend::Serial);
        let model = MachineModel::cray_x1();
        let rep = run_phase(&ddi, &model, "test", |rank, _st, ck| {
            ck.charge_daxpy(&model, (rank + 1) as f64 * 1e9);
        });
        assert_eq!(rep.nproc(), 4);
        // Slowest rank = rank 3: 4e9 flops at 2 GF/s = 2 s.
        assert!((rep.elapsed() - 2.0).abs() < 1e-12);
        assert!(rep.load_imbalance() > 0.0);
    }

    #[test]
    fn comm_is_charged() {
        let ddi = Ddi::new(2, Backend::Serial);
        let model = MachineModel::cray_x1();
        let m = fci_ddi::DistMatrix::zeros(10, 4, 2);
        let rep = run_phase(&ddi, &model, "test", |rank, st, _ck| {
            let buf = vec![1.0; 10];
            // Every rank accumulates into a column it does not own.
            let col = if rank == 0 { 3 } else { 0 };
            m.acc_col(rank, col, &buf, st);
        });
        assert!(rep.elapsed() > 0.0);
        assert!(rep.total_net_bytes() > 0.0);
        // acc moves 2× payload: 10 doubles → 160 bytes per rank.
        assert!((rep.total_net_bytes() - 320.0).abs() < 1e-9);
        // Message and lock counters surface at report level.
        assert_eq!(rep.total_net_msgs(), 2.0);
        assert_eq!(rep.total_lock_acquires(), 2.0);
    }

    #[test]
    fn traced_phase_matches_report() {
        let ddi = Ddi::new(3, Backend::Serial);
        let tracer = Tracer::in_memory();
        ddi.attach_tracer(tracer.clone());
        let model = MachineModel::cray_x1();
        let rep = run_phase(&ddi, &model, "work", |rank, _st, ck| {
            ck.charge_daxpy(&model, (rank + 1) as f64 * 1e8);
            ck.charge_io(&model, 1e6, 0.0);
        });
        let s = RunSummary::from_events(&tracer.events().unwrap());
        let direct = rep.summary();
        assert_eq!(s.nproc, 3);
        assert!((s.elapsed - direct.elapsed).abs() < 1e-12);
        assert!((s.t_daxpy - direct.t_daxpy).abs() < 1e-12);
        assert!((s.t_io - direct.t_io).abs() < 1e-12);
    }
}
