//! Property test for the blocked GEMM engine: on 200 random shapes
//! including edge tiles (m, n not multiples of the microkernel MR/NR)
//! and all four transpose combinations, `dgemm`
//!
//! * agrees with `dgemm_naive` within `1e-12·k`,
//! * and produces the bits the threaded engine it replaced produced at
//!   one thread (that engine was bitwise identical at every thread
//!   count; the file keeps its name from that property).

use fci_linalg::{dgemm, dgemm_naive, Matrix, Trans};

/// FNV-1a-style fold of every result element's `to_bits()`, printed by
/// this generator at commit 466146e with `dgemm_with_threads(1, ..)`.
/// The build fixes whether `fmadd` fuses (`gemm.rs`), and the two
/// roundings differ, so there is one recorded value for each.
const PARENT_DIGEST: u64 = if cfg!(target_feature = "fma") {
    0xd26b_c479_bfab_c845
} else {
    0x42c7_c7d1_3a8e_7eec
};

/// Deterministic splitmix64 — no external RNG crates in the workspace.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn uniform(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    fn dim(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() as usize) % (hi - lo + 1)
    }
}

fn rand_mat(rng: &mut Rng, nr: usize, nc: usize) -> Matrix {
    Matrix::from_fn(nr, nc, |_, _| rng.uniform())
}

#[test]
fn close_to_naive_and_bitwise_the_parents() {
    let mut rng = Rng(0x5eed_cafe);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let transes = [Trans::No, Trans::Yes];
    for case in 0..200 {
        // Mix of tiny (small-path), mid, and block-boundary-crossing
        // shapes; bias toward sizes that leave MR/NR edge tiles.
        let (m, n, k) = match case % 4 {
            0 => (rng.dim(1, 24), rng.dim(1, 24), rng.dim(0, 24)),
            1 => (rng.dim(25, 90), rng.dim(25, 90), rng.dim(1, 90)),
            2 => (rng.dim(120, 170), rng.dim(1, 40), rng.dim(200, 300)),
            _ => (
                8 * rng.dim(1, 16) + rng.dim(1, 7),
                4 * rng.dim(1, 12) + rng.dim(1, 3),
                rng.dim(1, 128),
            ),
        };
        let ta = transes[(case / 4) % 2];
        let tb = transes[(case / 8) % 2];
        let alpha = [1.0, -0.5, 2.25][case % 3];
        let beta = [0.0, 1.0, -1.5][(case / 3) % 3];

        let a = match ta {
            Trans::No => rand_mat(&mut rng, m, k),
            Trans::Yes => rand_mat(&mut rng, k, m),
        };
        let b = match tb {
            Trans::No => rand_mat(&mut rng, k, n),
            Trans::Yes => rand_mat(&mut rng, n, k),
        };
        let c0 = rand_mat(&mut rng, m, n);

        let mut c1 = c0.clone();
        dgemm(ta, tb, alpha, &a, &b, beta, &mut c1);
        for x in c1.as_slice() {
            digest = (digest ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }

        let mut c_ref = c0.clone();
        dgemm_naive(ta, tb, alpha, &a, &b, beta, &mut c_ref);
        let diff = c1.max_abs_diff(&c_ref);
        let tol = 1e-12 * (k.max(1) as f64);
        assert!(
            diff <= tol,
            "case {case}: |fast - naive| = {diff} > {tol} \
             (m={m} n={n} k={k} {ta:?} {tb:?} alpha={alpha} beta={beta})"
        );
    }
    assert_eq!(digest, PARENT_DIGEST, "result bits moved: {digest:#018x}");
}
