//! `fci-linalg` kernels in isolation: the ceilings the layers above are
//! compared with, measured in the same run as the layer itself.

use fci_linalg::{
    cholqr2, daxpy, dgemm_prepacked, dgemm_with_threads, eigh, Matrix, PackedA, Trans,
};

use crate::clock::now_s;
use crate::inputs::SplitMix;
use crate::metrics::Values;
use crate::runner::{probe, probe_batch, PROBE_CALLS};
use crate::span::Spans;
use crate::stats::median;

/// Edge of the square GEMM behind `linalg.gemm_peak_gflops`.
pub const PEAK_GEMM_N: usize = 512;
/// This box's L2, the last-level cache one core can fill.
pub const L2_BYTES: usize = 4 << 20;
/// Doubles per array of the bandwidth probe: each array is eight L2s,
/// twice the four the method asks for.
pub const STREAM_LEN: usize = 8 * L2_BYTES / 8;

/// A dense matrix of reproducible values in (−0.5, 0.5).
fn filled(nrows: usize, ncols: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix::new(seed);
    Matrix::from_fn(nrows, ncols, |_, _| {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

/// The two ceilings every workload reports: serial DGEMM peak and
/// sustained memory bandwidth.
pub fn ceilings(v: &mut Values, spans: &mut Spans) {
    let n = PEAK_GEMM_N;
    let (a, b) = (filled(n, n, 1), filled(n, n, 2));
    let mut c = Matrix::zeros(n, n);
    let t = probe(spans, "linalg.gemm_peak", || {
        dgemm_with_threads(1, Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c)
    });
    v.set(
        "linalg.gemm_peak_gflops",
        2.0 * (n * n * n) as f64 / t / 1e9,
    );

    let x = vec![1.0f64; STREAM_LEN];
    let mut y = vec![2.0f64; STREAM_LEN];
    let t = probe(spans, "linalg.stream", || daxpy(1e-9, &x, &mut y));
    // daxpy reads x, reads y, writes y.
    v.set("linalg.stream_gbs", 24.0 * STREAM_LEN as f64 / t / 1e9);
}

/// Gflop/s of `dgemm_prepacked` at `(m × n) = A(m × k) · B(k × n)`, the
/// call the σ routines make, serial.
pub fn gemm_prepacked_gflops(m: usize, n: usize, k: usize, spans: &mut Spans) -> f64 {
    let pa = PackedA::pack(Trans::No, &filled(m, k, 3));
    let b = filled(k, n, 4);
    let mut c = Matrix::zeros(m, n);
    let t = probe_batch(spans, "linalg.gemm_sigma_shape", 20, || {
        dgemm_prepacked(1, 1.0, &pa, Trans::No, &b, 0.0, &mut c)
    });
    2.0 * (m * n * k) as f64 / t / 1e9
}

/// Seconds per `eigh` of a symmetric `n × n` matrix.
pub fn eigh_seconds(n: usize, spans: &mut Spans) -> f64 {
    let r = filled(n, n, 5);
    let a = Matrix::from_fn(n, n, |i, j| r[(i, j)] + r[(j, i)]);
    probe_batch(spans, "linalg.eigh", 50, || eigh(&a))
}

/// Seconds per `cholqr2` of a tall `rows × cols` block. The copy that
/// restores the operand between calls is outside the timed part.
pub fn cholqr2_seconds(rows: usize, cols: usize, spans: &mut Spans) -> f64 {
    let block = filled(rows, cols, 6);
    let times: Vec<f64> = (0..PROBE_CALLS)
        .map(|_| {
            let mut work = block.clone();
            spans.scope("linalg.cholqr2", |_| {
                let t0 = now_s();
                // A random tall block is far from rank deficient.
                cholqr2(&mut work).expect("cholqr2 of a full-rank block");
                now_s() - t0
            })
        })
        .collect();
    median(&times)
}
