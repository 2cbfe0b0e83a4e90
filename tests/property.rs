//! Property-style tests on the core invariants: σ-algorithm equivalence,
//! kernel correctness, combinatorial tables. Cases are drawn from the
//! seeded `fci_fault::Xorshift64` (no external fuzzing dependency), so
//! every run exercises the same inputs and failures are reproducible by
//! construction.

use fcix::core::{
    apply_sigma, random_hamiltonian, slater, DetSpace, PoolParams, SigmaCtx, SigmaMethod, TaskPool,
};
use fcix::ddi::{Backend, Ddi};
use fcix::fault::Xorshift64;
use fcix::linalg::{dgemm, dgemm_naive, eigh, lu_solve, Matrix, Trans};
use fcix::strings::{annihilate, binomial, create, SpinStrings};
use fcix::xsim::MachineModel;

/// An `nr × nc` matrix of uniform entries in `[−½, ½)` drawn from `seed`.
fn rand_mat(nr: usize, nc: usize, seed: u64) -> Matrix {
    let mut g = Xorshift64::new(seed);
    Matrix::from_fn(nr, nc, |_, _| g.next_f64() - 0.5)
}

/// σ(DGEMM) == σ(MOC) == dense Slater–Condon for arbitrary electron
/// counts, processor counts and random (but physical) integrals.
#[test]
fn sigma_algorithms_agree() {
    let mut g = Xorshift64::new(0xFC1);
    let mut cases = 0;
    while cases < 24 {
        let n = 3 + g.next_index(3);
        let na = 1 + g.next_index(3);
        let nb = g.next_index(4);
        let nproc = 1 + g.next_index(6);
        let seed = g.next_u64() % 1000;
        if na > n || nb > n {
            continue;
        }
        let ham = random_hamiltonian(n, seed);
        let space = DetSpace::c1(n, na, nb);
        if space.dim() > 2500 {
            continue;
        }
        cases += 1;
        let ddi = Ddi::new(nproc, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = space.zeros_ci(nproc);
        let mut vals = Xorshift64::new(seed);
        c.map_inplace(|_, _, _| vals.next_f64() - 0.5);
        let (sig_d, _) = apply_sigma(&ctx, &c, SigmaMethod::Dgemm);
        let (sig_m, _) = apply_sigma(&ctx, &c, SigmaMethod::Moc);
        let reference = slater::sigma_dense(&space, &ham, &c.to_dense());
        let dd = sig_d.to_dense();
        let dm = sig_m.to_dense();
        for i in 0..reference.len() {
            assert!(
                (dd[i] - reference[i]).abs() < 1e-9,
                "dgemm[{i}] n={n} na={na} nb={nb}"
            );
            assert!(
                (dm[i] - reference[i]).abs() < 1e-9,
                "moc[{i}] n={n} na={na} nb={nb}"
            );
        }
    }
}

/// Blocked DGEMM equals the naive triple loop for arbitrary shapes,
/// transposes and alpha/beta.
#[test]
fn gemm_matches_naive() {
    let mut g = Xorshift64::new(0xD6E);
    for _ in 0..40 {
        let m = 1 + g.next_index(39);
        let n = 1 + g.next_index(39);
        let k = g.next_index(40);
        let ta = g.next_u64() & 1 == 1;
        let tb = g.next_u64() & 1 == 1;
        let alpha = 4.0 * g.next_f64() - 2.0;
        let beta = 4.0 * g.next_f64() - 2.0;
        let seed = g.next_u64() % 100;
        let tra = if ta { Trans::Yes } else { Trans::No };
        let trb = if tb { Trans::Yes } else { Trans::No };
        let a = if ta {
            rand_mat(k, m, seed)
        } else {
            rand_mat(m, k, seed)
        };
        let b = if tb {
            rand_mat(n, k, seed + 7)
        } else {
            rand_mat(k, n, seed + 7)
        };
        let c0 = rand_mat(m, n, seed + 13);
        let mut c1 = c0.clone();
        let mut c2 = c0;
        dgemm(tra, trb, alpha, &a, &b, beta, &mut c1);
        dgemm_naive(tra, trb, alpha, &a, &b, beta, &mut c2);
        assert!(
            c1.max_abs_diff(&c2) < 1e-11 * (k as f64 + 1.0),
            "m={m} n={n} k={k}"
        );
    }
}

/// Jacobi eigendecomposition reconstructs the matrix.
#[test]
fn eigh_reconstructs() {
    let mut g = Xorshift64::new(0xE16);
    for _ in 0..30 {
        let n = 1 + g.next_index(11);
        let seed = g.next_u64() % 100;
        let raw = rand_mat(n, n, seed);
        let a = Matrix::from_fn(n, n, |i, j| raw[(i, j)] + raw[(j, i)]);
        let e = eigh(&a);
        // A = V diag(w) Vᵀ
        let mut recon = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += e.eigenvectors[(i, k)] * e.eigenvalues[k] * e.eigenvectors[(j, k)];
                }
                recon[(i, j)] = acc;
            }
        }
        assert!(recon.max_abs_diff(&a) < 1e-9, "n={n} seed={seed}");
    }
}

/// LU solve inverts well-conditioned systems.
#[test]
fn lu_roundtrip() {
    let mut g = Xorshift64::new(0x107);
    for _ in 0..30 {
        let n = 1 + g.next_index(14);
        let seed = g.next_u64() % 100;
        let raw = rand_mat(n, n, seed);
        let a = Matrix::from_fn(n, n, |i, j| raw[(i, j)] + if i == j { 3.0 } else { 0.0 });
        let xt: Vec<f64> = (0..n).map(|i| i as f64 - 1.5).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a[(i, j)] * xt[j];
            }
        }
        let x = lu_solve(&a, &b).unwrap();
        for i in 0..n {
            assert!((x[i] - xt[i]).abs() < 1e-8, "n={n} i={i}");
        }
    }
}

/// Task pools cover every item exactly once for arbitrary shapes.
#[test]
fn taskpool_partition() {
    let mut g = Xorshift64::new(0x7A5);
    for _ in 0..60 {
        let nitems = g.next_index(3000);
        let nproc = 1 + g.next_index(63);
        let fine = 1 + g.next_index(127);
        let large = 1 + g.next_index(31);
        let small = g.next_index(32);
        let pool = TaskPool::aggregated(
            nitems,
            nproc,
            PoolParams {
                fine_per_proc: fine,
                large_per_proc: large,
                small_per_proc: small,
            },
        );
        let mut seen = vec![0u8; nitems];
        for t in 0..pool.len() {
            for i in pool.task(t) {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "nitems={nitems} nproc={nproc} fine={fine} large={large} small={small}"
        );
        // The sizes() report must agree with the ranges themselves.
        let sizes = pool.sizes();
        assert_eq!(sizes.len(), pool.len());
        for (t, &sz) in sizes.iter().enumerate() {
            assert_eq!(sz, pool.task(t).len());
        }
    }
}

/// String creation/annihilation anticommute and the rank/space tables
/// are consistent.
#[test]
fn string_space_consistency() {
    let mut g = Xorshift64::new(0x57A);
    let mut cases = 0;
    while cases < 30 {
        let n = 1 + g.next_index(11);
        let ne = g.next_index(6);
        if ne > n {
            continue;
        }
        cases += 1;
        let sp = SpinStrings::c1(n, ne);
        assert_eq!(sp.len(), binomial(n, ne));
        for i in 0..sp.len() {
            let m = sp.mask(i);
            assert_eq!(m.count_ones() as usize, ne);
            assert_eq!(sp.index_of(m), Some(i));
            // a†_p a_p = n_p on any occupied p.
            if let Some(p) = (0..n).find(|&p| m & (1 << p) != 0) {
                let (s1, m1) = annihilate(m, p).unwrap();
                let (s2, m2) = create(m1, p).unwrap();
                assert_eq!(m2, m);
                assert_eq!(s1 * s2, 1);
            }
        }
    }
}

/// The Boys function satisfies its downward recursion everywhere.
#[test]
fn boys_recursion() {
    let mut g = Xorshift64::new(0xB05);
    for _ in 0..50 {
        let t = 200.0 * g.next_f64();
        let mut v = [0.0; 7];
        fcix::ints::boys::boys(6, t, &mut v);
        for m in 0..6 {
            let lhs = (2 * m + 1) as f64 * v[m];
            let rhs = 2.0 * t * v[m + 1] + (-t).exp();
            assert!(
                (lhs - rhs).abs() < 1e-10 * lhs.abs().max(1e-30),
                "m={m} t={t}"
            );
        }
        // Bounds: 0 < F_m(T) ≤ 1/(2m+1).
        for (m, &x) in v.iter().enumerate() {
            assert!(x > 0.0 && x <= 1.0 / (2 * m + 1) as f64 + 1e-15);
        }
    }
}
