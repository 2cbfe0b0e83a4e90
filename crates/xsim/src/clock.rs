//! Per-MSP simulated clocks.

use crate::model::MachineModel;
use fci_obs::tracer::Segment;
use fci_obs::Category;

/// Accumulated simulated time and work of one virtual MSP.
///
/// Time is split by category so harnesses can print the Table 3 style
/// breakdown (compute vs communication vs lock wait vs I/O) and compute
/// sustained flop rates. Alongside the time split, the clock keeps event
/// *counters* (messages, lock acquisitions, nxtval traffic) so summaries
/// can report counts as well as bytes; counters never affect the time
/// accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Clock {
    /// Seconds spent in DGEMM-class compute.
    pub t_dgemm: f64,
    /// Seconds spent in DAXPY/indexed compute.
    pub t_daxpy: f64,
    /// Seconds spent in vector gather/scatter and local copies.
    pub t_gather: f64,
    /// Seconds spent in network transfers.
    pub t_net: f64,
    /// Seconds spent acquiring remote mutexes.
    pub t_lock: f64,
    /// Seconds of disk I/O.
    pub t_io: f64,
    /// Floating-point operations executed in DGEMM kernels.
    pub flops_dgemm: f64,
    /// Floating-point operations executed in DAXPY-class kernels.
    pub flops_daxpy: f64,
    /// Bytes moved over the network by this MSP.
    pub net_bytes: f64,
    /// One-sided messages sent by this MSP (including counter traffic).
    pub net_msgs: f64,
    /// Remote mutex acquisitions by this MSP.
    pub lock_acquires: f64,
    /// Atomic-counter (`nxtval`) operations issued by this MSP.
    pub nxtval_msgs: f64,
    /// Message resends performed by DDI recovery loops (fault plane).
    pub retries: f64,
}

impl Clock {
    /// Total simulated seconds.
    pub fn total(&self) -> f64 {
        self.t_dgemm + self.t_daxpy + self.t_gather + self.t_net + self.t_lock + self.t_io
    }

    /// Total flops.
    pub fn flops(&self) -> f64 {
        self.flops_dgemm + self.flops_daxpy
    }

    /// Charge a `C(m×n) += A(m×k) B(k×n)` multiply (2mnk flops).
    pub fn charge_dgemm(&mut self, model: &MachineModel, m: usize, n: usize, k: usize) {
        let fl = 2.0 * m as f64 * n as f64 * k as f64;
        self.flops_dgemm += fl;
        self.t_dgemm += fl / model.dgemm_rate(m, n, k);
    }

    /// Charge `n_flops` of DAXPY-class (indexed multiply–add) work.
    pub fn charge_daxpy(&mut self, model: &MachineModel, n_flops: f64) {
        self.flops_daxpy += n_flops;
        self.t_daxpy += n_flops / model.daxpy_rate;
    }

    /// Charge `n_ops` of scalar-unit work (list generation, index
    /// arithmetic, Hamiltonian-element lookup). Not counted as flops —
    /// this is the non-vectorizable overhead that caps MOC scalability.
    pub fn charge_scalar(&mut self, model: &MachineModel, n_ops: f64) {
        self.t_daxpy += n_ops / model.scalar_rate;
    }

    /// Charge a gather/scatter of `n_elems` 8-byte elements.
    pub fn charge_gather(&mut self, model: &MachineModel, n_elems: f64) {
        self.t_gather += n_elems / model.gather_rate;
    }

    /// Charge a local memory copy of `bytes`.
    pub fn charge_memcpy(&mut self, model: &MachineModel, bytes: f64) {
        self.t_gather += bytes / model.memcpy_rate;
    }

    /// Charge `n_msgs` one-sided messages moving `bytes` in total.
    pub fn charge_net(&mut self, model: &MachineModel, bytes: u64, n_msgs: u64) {
        self.net_bytes += bytes as f64;
        self.net_msgs += n_msgs as f64;
        self.t_net += n_msgs as f64 * model.net_latency + bytes as f64 / model.net_bandwidth;
    }

    /// Charge `n` remote mutex acquisitions.
    pub fn charge_mutex(&mut self, model: &MachineModel, n: u64) {
        self.lock_acquires += n as f64;
        self.t_lock += n as f64 * model.mutex_cost;
    }

    /// Charge disk traffic.
    pub fn charge_io(&mut self, model: &MachineModel, read_bytes: f64, write_bytes: f64) {
        self.t_io += read_bytes / model.disk_read + write_bytes / model.disk_write;
    }

    /// Record `n` `nxtval` counter operations. Count only — their time is
    /// already part of the network charge (they ride `total_msgs()`).
    pub fn note_nxtval(&mut self, n: u64) {
        self.nxtval_msgs += n as f64;
    }

    /// Charge recovery wait: `ns` of simulated backoff/stall time spent
    /// waiting to resend after `n_retries` detected delivery faults. The
    /// wait itself is network time (the MSP sits on the interconnect);
    /// the resent messages' wire cost arrives separately via
    /// [`Clock::charge_net`], since CommStats already counts them.
    pub fn charge_backoff(&mut self, ns: u64, n_retries: u64) {
        self.t_net += ns as f64 * 1e-9;
        self.retries += n_retries as f64;
    }

    /// Merge another clock's charges into this one.
    pub fn merge(&mut self, other: &Clock) {
        self.t_dgemm += other.t_dgemm;
        self.t_daxpy += other.t_daxpy;
        self.t_gather += other.t_gather;
        self.t_net += other.t_net;
        self.t_lock += other.t_lock;
        self.t_io += other.t_io;
        self.flops_dgemm += other.flops_dgemm;
        self.flops_daxpy += other.flops_daxpy;
        self.net_bytes += other.net_bytes;
        self.net_msgs += other.net_msgs;
        self.lock_acquires += other.lock_acquires;
        self.nxtval_msgs += other.nxtval_msgs;
        self.retries += other.retries;
    }

    /// This clock's charges as tracer segments, in Table 3 row order.
    ///
    /// The segment durations are exactly the category fields, so a trace
    /// built from these segments reproduces [`Clock::total`] as the sum of
    /// its span durations — the invariant `tests/trace_telemetry.rs`
    /// checks to 1e-9.
    pub fn segments(&self) -> Vec<Segment> {
        vec![
            Segment::new(
                Category::Dgemm,
                self.t_dgemm,
                vec![("flops".into(), self.flops_dgemm)],
            ),
            Segment::new(
                Category::Daxpy,
                self.t_daxpy,
                vec![("flops".into(), self.flops_daxpy)],
            ),
            Segment::new(Category::Gather, self.t_gather, vec![]),
            Segment::new(
                Category::Net,
                self.t_net,
                vec![
                    ("bytes".into(), self.net_bytes),
                    ("msgs".into(), self.net_msgs),
                    ("nxtval".into(), self.nxtval_msgs),
                    ("retries".into(), self.retries),
                ],
            ),
            Segment::new(
                Category::Lock,
                self.t_lock,
                vec![("acquires".into(), self.lock_acquires)],
            ),
            Segment::new(Category::Io, self.t_io, vec![]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgemm_charge_flops_and_rate() {
        let m = MachineModel::cray_x1();
        let mut c = Clock::default();
        c.charge_dgemm(&m, 100, 200, 50);
        assert_eq!(c.flops_dgemm, 2.0 * 100.0 * 200.0 * 50.0);
        assert!(c.t_dgemm > 0.0);
        // Sustained rate below asymptotic peak.
        assert!(c.flops() / c.total() < m.dgemm_peak);
    }

    #[test]
    fn daxpy_charge_rate_exact() {
        let m = MachineModel::cray_x1();
        let mut c = Clock::default();
        c.charge_daxpy(&m, 4.0e9);
        assert!((c.t_daxpy - 2.0).abs() < 1e-12);
        assert!((c.flops() / c.total() / 1e9 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn same_flops_dgemm_faster_than_daxpy() {
        // The core premise of the paper, encoded in the model.
        let m = MachineModel::cray_x1();
        let mut a = Clock::default();
        let mut b = Clock::default();
        a.charge_dgemm(&m, 500, 500, 500);
        b.charge_daxpy(&m, 2.0 * 500.0 * 500.0 * 500.0);
        assert!(
            a.total() < b.total() / 4.0,
            "dgemm {} vs daxpy {}",
            a.total(),
            b.total()
        );
    }

    #[test]
    fn net_and_lock_charges() {
        let m = MachineModel::cray_x1();
        let mut c = Clock::default();
        c.charge_net(&m, 8_000, 2);
        assert!((c.t_net - (2.0 * m.net_latency + 8_000.0 / m.net_bandwidth)).abs() < 1e-15);
        c.charge_mutex(&m, 3);
        assert!((c.t_lock - 3.0 * m.mutex_cost).abs() < 1e-15);
        c.charge_io(&m, 293e6, 0.0);
        assert!((c.t_io - 1.0).abs() < 1e-9);
    }

    #[test]
    fn counters_track_without_time() {
        let m = MachineModel::cray_x1();
        let mut c = Clock::default();
        c.charge_net(&m, 1_000, 5);
        c.charge_mutex(&m, 2);
        let t = c.total();
        c.note_nxtval(7);
        assert_eq!(c.net_msgs, 5.0);
        assert_eq!(c.lock_acquires, 2.0);
        assert_eq!(c.nxtval_msgs, 7.0);
        // note_nxtval is count-only.
        assert_eq!(c.total(), t);
    }

    #[test]
    fn merge_adds_everything() {
        let m = MachineModel::cray_x1();
        let mut a = Clock::default();
        a.charge_daxpy(&m, 1e9);
        a.charge_net(&m, 100, 1);
        a.note_nxtval(1);
        let mut b = a;
        b.merge(&a);
        assert!((b.total() - 2.0 * a.total()).abs() < 1e-15);
        assert_eq!(b.net_bytes, 200.0);
        assert_eq!(b.net_msgs, 2.0);
        assert_eq!(b.nxtval_msgs, 2.0);
    }

    #[test]
    fn segments_sum_to_total() {
        let m = MachineModel::cray_x1();
        let mut c = Clock::default();
        c.charge_dgemm(&m, 64, 64, 64);
        c.charge_daxpy(&m, 1e8);
        c.charge_gather(&m, 1e6);
        c.charge_net(&m, 4096, 3);
        c.charge_mutex(&m, 2);
        c.charge_io(&m, 1e6, 1e6);
        let segs = c.segments();
        let sum: f64 = segs.iter().map(|s| s.sim_s).sum();
        assert_eq!(sum, c.total());
        // Payload carried on the right rows.
        assert_eq!(segs[0].args[0].1, c.flops_dgemm);
        assert_eq!(segs[3].args[0].1, c.net_bytes);
        assert_eq!(segs[4].args[0].1, 2.0);
    }
}
