//! Pins the GEMM engine's *arithmetic*, not a digest of it: on random
//! shapes, all four transpose combinations and edge tiles everywhere,
//! `dgemm` — and `dgemm_prepacked`, where `PackedA::pack` is asked for
//! the same op(A) — must equal, bit for bit, a scalar loop that does what
//! `gemm.rs` states for every element of C:
//!
//! ```text
//! c ← beta·c                       (skipped at beta = 1, zero at beta = 0)
//! for each KC stripe, ascending:   acc ← 0
//!     for l in the stripe, ascending:   acc ← fma(a[i,l], b[l,j], acc)
//!     c ← c + alpha·acc
//! ```
//!
//! with multiply-then-add in place of `fma` on a build without hardware
//! FMA. Nothing about m, n, the tile shape, the vector width or whether
//! an operand was packed appears in it, so a retiling that keeps this
//! test green is a performance change only. Agreement with `dgemm_naive`
//! within `1e-12·k` is checked on the same shapes.

use fci_fault::Xorshift64;
use fci_linalg::{dgemm, dgemm_naive, dgemm_prepacked, Matrix, PackedA, Trans};

/// `gemm.rs`'s depth stripe — the one constant the bits depend on.
const KC: usize = 256;

/// The stated per-element arithmetic, one element at a time.
fn dgemm_stated(
    ta: Trans,
    tb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let k = if ta == Trans::No {
        a.ncols()
    } else {
        a.nrows()
    };
    let op = |t: Trans, x: &Matrix, i: usize, j: usize| {
        if t == Trans::No {
            x[(i, j)]
        } else {
            x[(j, i)]
        }
    };
    for j in 0..c.ncols() {
        for i in 0..c.nrows() {
            let mut cij = if beta == 0.0 {
                0.0
            } else if beta == 1.0 {
                c[(i, j)]
            } else {
                c[(i, j)] * beta
            };
            for l0 in (0..k).step_by(KC) {
                let mut acc = 0.0f64;
                for l in l0..k.min(l0 + KC) {
                    let (x, y) = (op(ta, a, i, l), op(tb, b, l, j));
                    acc = if cfg!(target_feature = "fma") {
                        x.mul_add(y, acc)
                    } else {
                        acc + x * y
                    };
                }
                cij += alpha * acc;
            }
            c[(i, j)] = cij;
        }
    }
}

fn rand_mat(rng: &mut Xorshift64, nr: usize, nc: usize) -> Matrix {
    Matrix::from_fn(nr, nc, |_, _| rng.next_f64() - 0.5)
}

#[test]
fn bitwise_the_stated_arithmetic_and_close_to_naive() {
    let mut rng = Xorshift64::new(0x5eed_cafe);
    let transes = [Trans::No, Trans::Yes];
    for case in 0..264 {
        // Tiny, mid, and block-boundary-crossing shapes, biased toward
        // sizes that leave row masks and narrow column tiles. Class 4 is
        // what 432 ranks and a stripe boundary produce: one to three
        // columns, a handful of rows, k beyond one KC stripe. Class 5 is
        // past every in-place bound, where A and a transposed B are packed.
        let mut dim = |lo: usize, hi: usize| lo + rng.next_index(hi - lo + 1);
        let (m, n, k) = match case % 6 {
            0 => (dim(1, 24), dim(1, 24), dim(0, 24)),
            1 => (dim(25, 90), dim(25, 90), dim(1, 90)),
            2 => (dim(120, 170), dim(1, 40), dim(200, 300)),
            3 => (
                8 * dim(1, 16) + dim(1, 7),
                4 * dim(1, 12) + dim(1, 3),
                dim(1, 128),
            ),
            4 => (dim(1, 8), dim(1, 3), KC + dim(1, 2 * KC)),
            _ => (dim(257, 290), dim(240, 280), dim(257, 300)),
        };
        let ta = transes[(case / 6) % 2];
        let tb = transes[(case / 12) % 2];
        let alpha = [1.0, -0.5, 2.25][case % 3];
        let beta = [0.0, 1.0, -1.5][(case / 3) % 3];
        check(&mut rng, case, (m, n, k), (ta, tb), alpha, beta);
    }
}

/// The epilogue's shape class: `m` in 1–7 or 9–15, so the last row
/// vector is masked on either lane width, and `n` in 37–230, so a masked
/// column shares its cache lines with the next across many column tiles
/// (`ldc = m`) — the small σ products (`6×210×6`) live here.
#[test]
fn masked_rows_across_many_column_tiles() {
    let mut rng = Xorshift64::new(0x0e91_1065);
    let transes = [Trans::No, Trans::Yes];
    for case in 0..96 {
        let mut dim = |lo: usize, hi: usize| lo + rng.next_index(hi - lo + 1);
        let m = if case % 2 == 0 { dim(1, 7) } else { dim(9, 15) };
        let (n, k) = (dim(37, 230), dim(1, 48));
        let ta = transes[(case / 2) % 2];
        let tb = transes[(case / 4) % 2];
        let alpha = [1.0, -0.5, 2.25][case % 3];
        let beta = [0.0, 1.0, -1.5][(case / 3) % 3];
        check(&mut rng, case, (m, n, k), (ta, tb), alpha, beta);
    }
}

/// `dgemm` and `dgemm_prepacked` on random operands of one shape: bitwise
/// the stated arithmetic, and within `1e-12·k` of `dgemm_naive`.
fn check(
    rng: &mut Xorshift64,
    case: usize,
    (m, n, k): (usize, usize, usize),
    (ta, tb): (Trans, Trans),
    alpha: f64,
    beta: f64,
) {
    let what = format!("case {case}: m={m} n={n} k={k} {ta:?} {tb:?} alpha={alpha} beta={beta}");
    let a = match ta {
        Trans::No => rand_mat(rng, m, k),
        Trans::Yes => rand_mat(rng, k, m),
    };
    let b = match tb {
        Trans::No => rand_mat(rng, k, n),
        Trans::Yes => rand_mat(rng, n, k),
    };
    let c0 = rand_mat(rng, m, n);

    let mut want = c0.clone();
    dgemm_stated(ta, tb, alpha, &a, &b, beta, &mut want);

    let mut c1 = c0.clone();
    dgemm(ta, tb, alpha, &a, &b, beta, &mut c1);
    assert_eq!(c1, want, "dgemm bits, {what}");

    let pa = PackedA::pack(ta, &a);
    let mut c2 = c0.clone();
    dgemm_prepacked(1, alpha, &pa, tb, &b, beta, &mut c2);
    assert_eq!(c2, want, "dgemm_prepacked bits, {what}");

    let mut c_ref = c0.clone();
    dgemm_naive(ta, tb, alpha, &a, &b, beta, &mut c_ref);
    let diff = c1.max_abs_diff(&c_ref);
    let tol = 1e-12 * (k.max(1) as f64);
    assert!(diff <= tol, "|fast - naive| = {diff} > {tol}, {what}");
}
