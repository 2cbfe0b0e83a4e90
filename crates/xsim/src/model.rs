//! Machine parameter sets.

/// Performance constants of one simulated machine.
///
/// All rates are per MSP (per virtual processor). See the crate docs for
/// the calibration sources.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// Theoretical peak, flop/s (X1 MSP: 12.8e9).
    pub peak_flops: f64,
    /// Asymptotic DGEMM rate, flop/s.
    pub dgemm_peak: f64,
    /// Effective matrix size at which DGEMM runs at half `dgemm_peak`.
    pub dgemm_half_size: f64,
    /// DAXPY / indexed multiply–add rate out of cache, flop/s.
    pub daxpy_rate: f64,
    /// Scalar-unit rate, ops/s. The X1's scalar pipeline is far slower than
    /// its vector pipes; excitation-list generation and Hamiltonian-element
    /// index work run here. This is what turns the MOC algorithm's
    /// *replicated* same-spin list computation into the Amdahl bottleneck
    /// of Fig. 4.
    pub scalar_rate: f64,
    /// Vector gather/scatter rate, elements/s (8-byte words).
    pub gather_rate: f64,
    /// Local memory copy rate, bytes/s.
    pub memcpy_rate: f64,
    /// One-sided message latency, seconds.
    pub net_latency: f64,
    /// Per-MSP interconnect bandwidth, bytes/s.
    pub net_bandwidth: f64,
    /// Cost of acquiring a remote node's mutex (DDI_ACC protocol), s.
    pub mutex_cost: f64,
    /// Disk read bandwidth, bytes/s (Table 3 reports 293 MB/s read).
    pub disk_read: f64,
    /// Disk write bandwidth, bytes/s (Table 3 reports 246 MB/s write).
    pub disk_write: f64,
}

impl MachineModel {
    /// The Cray-X1 MSP model used throughout the reproduction.
    pub fn cray_x1() -> Self {
        MachineModel {
            peak_flops: 12.8e9,
            dgemm_peak: 11.5e9,
            dgemm_half_size: 38.0,
            daxpy_rate: 2.0e9,
            scalar_rate: 0.4e9,
            gather_rate: 1.2e9,
            memcpy_rate: 20e9,
            net_latency: 5.0e-6,
            net_bandwidth: 8.0e9,
            mutex_cost: 8.0e-6,
            disk_read: 293e6,
            disk_write: 246e6,
        }
    }

    /// Effective DGEMM rate (flop/s) for an `m × k · k × n` multiply.
    ///
    /// `rate = dgemm_peak · s / (s + s_half)` with `s = (m n k)^{1/3}`;
    /// at s = 300 this gives ≈ 0.89 · dgemm_peak ≈ 10.2 GFlop/s, matching
    /// the "10–11 GFlop/s beyond 300×300" calibration point.
    pub fn dgemm_rate(&self, m: usize, n: usize, k: usize) -> f64 {
        if m == 0 || n == 0 || k == 0 {
            return self.dgemm_peak;
        }
        let s = ((m as f64) * (n as f64) * (k as f64)).cbrt();
        self.dgemm_peak * s / (s + self.dgemm_half_size)
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        Self::cray_x1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_points() {
        let m = MachineModel::cray_x1();
        // Large DGEMM lands in the paper's 10–11 GF/s window.
        let r = m.dgemm_rate(300, 300, 300);
        assert!(r > 10.0e9 && r < 11.5e9, "r = {r}");
        let r = m.dgemm_rate(1000, 1000, 1000);
        assert!(r > 10.8e9);
        // Small DGEMM is much slower.
        assert!(m.dgemm_rate(10, 10, 10) < 0.25 * m.dgemm_peak);
        // DAXPY rate sits near the cited 2 GF/s.
        assert!((m.daxpy_rate - 2.0e9).abs() < 1e-9 * 2.0e9);
    }

    #[test]
    fn rate_monotone_in_size() {
        let m = MachineModel::cray_x1();
        let mut prev = 0.0;
        for s in [4usize, 16, 64, 256, 1024] {
            let r = m.dgemm_rate(s, s, s);
            assert!(r > prev);
            prev = r;
        }
        assert!(prev < m.dgemm_peak);
    }

    #[test]
    fn degenerate_gemm_dims() {
        let m = MachineModel::cray_x1();
        assert_eq!(m.dgemm_rate(0, 10, 10), m.dgemm_peak);
    }
}
