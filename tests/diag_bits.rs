//! Bit pins of the single-vector diagonalisers: Olsen, damped Olsen and
//! the paper's auto-adjusted method, which share one loop. Each run pins
//! its σ count and an FNV-1a hash of the `to_bits` of its energy history,
//! its residual history and its final CI vector (full β × α product,
//! α-major), so a rewrite of the loop's vector algebra that moves any of
//! those values by one ulp — or flips the sign of a zero among them —
//! fails here. The cases are a 4-irrep blocked sector at 1, 3 and 7
//! ranks, an 8-site Hubbard chain, and a truncated CI (CISD of the same
//! chain), whose excluded determinants carry an ∞ diagonal. σ runs
//! through a GEMM, so there is one constant per multiply-add rule, as the
//! σ and set-up pins have.

use fcix::core::{
    build_space, random_symmetric_hamiltonian, solve_prepared, DetSpace, DiagMethod, FciOptions,
    Hamiltonian,
};
use fcix::scf::MoIntegrals;

/// FNV-1a over the bytes of each value's bit pattern.
fn fnv(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in values {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Pick the pin of the build's multiply-add rule.
fn by_fma(fused: u64, unfused: u64) -> u64 {
    if cfg!(target_feature = "fma") {
        fused
    } else {
        unfused
    }
}

/// The σ count and the hash of one run at the default options.
fn run(space: &DetSpace, ham: &Hamiltonian, nproc: usize, method: DiagMethod) -> (usize, u64) {
    let opts = FciOptions {
        nproc,
        method,
        ..FciOptions::default()
    };
    let d = solve_prepared(space, ham, &opts).diag;
    let values = d.energy_history.iter().chain(&d.residual_history).copied();
    (d.iterations, fnv(values.chain(d.c.to_dense())))
}

#[test]
fn single_vector_methods_keep_their_bits() {
    use DiagMethod::{AutoAdjust, Olsen, OlsenDamped};
    // An 8-orbital, 4-irrep sector (784 of 3,136 determinants).
    let sym = [0u8, 1, 2, 3, 0, 1, 2, 3];
    let random = random_symmetric_hamiltonian(8, 37, &sym, 4);
    let blocked = DetSpace::new(8, 3, 3, &sym, 4, 2);
    // The 8-site Hubbard chain at half filling, full and CISD.
    let chain = Hamiltonian::new(&MoIntegrals::hubbard_chain(8, 1.0, 4.0, false));
    let full = build_space(&chain, 4, 4, 0, None);
    let cisd = build_space(&chain, 4, 4, 0, Some(2));
    let cases: [(&str, &DetSpace, &Hamiltonian, usize); 5] = [
        ("blocked, 1 rank", &blocked, &random, 1),
        ("blocked, 3 ranks", &blocked, &random, 3),
        ("blocked, 7 ranks", &blocked, &random, 7),
        ("chain, 2 ranks", &full, &chain, 2),
        ("chain CISD, 2 ranks", &cisd, &chain, 2),
    ];
    // Per case, per method (Olsen, OlsenDamped, AutoAdjust): σ count,
    // then the hash with and without fused multiply-add.
    let want: [[(usize, u64, u64); 3]; 5] = [
        [
            (19, 0x2e63_caef_7bb8_e0e0, 0x31a3_2b29_cac7_adf8),
            (31, 0xb9e9_a34e_885f_4fb0, 0x7b49_b32b_4ff2_64cc),
            (19, 0x71ec_f276_3854_8635, 0xfd46_bb8f_ec13_825d),
        ],
        [
            (19, 0xbb12_acd5_66b4_614d, 0xaf1e_4312_afff_2bc8),
            (31, 0x7530_cd11_1bf1_83bd, 0x35b3_7a18_ed80_1881),
            (19, 0x9350_4e96_e4d3_756f, 0x2f5f_aba9_68a3_1529),
        ],
        [
            (19, 0xf86c_53dd_0875_445f, 0xf241_66a1_7a06_a95e),
            (31, 0xc011_df7d_669e_3ecb, 0x3a75_f2b6_115d_6291),
            (19, 0x6aa1_da8b_b7c7_749d, 0x1c94_a27f_5834_18f7),
        ],
        // The chain's σ rounds the same with and without fusion.
        [
            (60, 0x394f_b8bf_fd6e_bb93, 0x394f_b8bf_fd6e_bb93),
            (60, 0xd7ff_4c19_d711_55a5, 0xd7ff_4c19_d711_55a5),
            (60, 0xbabf_cb68_44e3_a2d0, 0xbabf_cb68_44e3_a2d0),
        ],
        [
            (60, 0x6228_ff6b_c593_5574, 0x6228_ff6b_c593_5574),
            (60, 0xcd27_c61b_8cfb_66db, 0xcd27_c61b_8cfb_66db),
            (60, 0x7eec_ceb5_beba_13e5, 0x7eec_ceb5_beba_13e5),
        ],
    ];
    let mut failures = Vec::new();
    for ((name, space, ham, nproc), want) in cases.into_iter().zip(want) {
        for (method, (iters, fused, unfused)) in
            [Olsen, OlsenDamped, AutoAdjust].into_iter().zip(want)
        {
            let got = run(space, ham, nproc, method);
            if got != (iters, by_fma(fused, unfused)) {
                failures.push(format!("{name}, {method:?}: ({}, {:#018x})", got.0, got.1));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
