//! Bit pins of the set-up chain: AO two-electron integrals, RHF, the
//! active-space transform and the determinant diagonal. Each check hashes
//! the `to_bits` of every value (FNV-1a over the little-endian bytes), so
//! a kernel rewrite that moves any value by one ulp — or flips the sign of
//! a zero — fails here. The constants were taken from the McMurchie–Davidson
//! engine before its shell-pair rewrite; the GEMM-free steps (AO integrals)
//! have one constant on every target, the steps behind a GEMM one per
//! multiply-add rule, as the σ pins have.

use fcix::core::Hamiltonian;
use fcix::ints::{eri_tensor, BasisSet, EriTensor, Molecule};
use fcix::scf::{active_space, rhf, Orbitals, RhfOptions};
use fcix::strings::SpinStrings;

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

/// Every stored `(pq|rs)`: `p ≥ q`, `r ≥ s`, `pq ≥ rs`.
fn eri_values(eri: &EriTensor) -> Vec<f64> {
    let n = eri.n_basis();
    let mut out = Vec::with_capacity(eri.n_unique());
    for p in 0..n {
        for q in 0..=p {
            for r in 0..=p {
                let smax = if r == p { q } else { r };
                for s in 0..=smax {
                    out.push(eri.get(p, q, r, s));
                }
            }
        }
    }
    assert_eq!(out.len(), eri.n_unique());
    out
}

/// C2 on the z axis at 2.34 bohr, the bond length of the C2 workloads.
fn c2() -> Molecule {
    Molecule::from_symbols_bohr(&[("C", [0.0, 0.0, -1.17]), ("C", [0.0, 0.0, 1.17])], 0)
}

fn water() -> Molecule {
    Molecule::from_symbols_bohr(
        &[
            ("O", [0.0, 0.0, 0.0]),
            ("H", [0.0, 1.43, 1.11]),
            ("H", [0.0, -1.43, 1.11]),
        ],
        0,
    )
}

/// Pick the pin of the build's multiply-add rule.
fn by_fma(fused: u64, unfused: u64) -> u64 {
    if cfg!(target_feature = "fma") {
        fused
    } else {
        unfused
    }
}

#[test]
fn ao_eri_tensors_keep_their_bits() {
    for (name, mol, want) in [
        ("C2/svp", c2(), 0xe660_7404_19ae_85f0),
        ("H2O/svp", water(), 0x4dc9_817e_6c00_4fe9),
    ] {
        let eri = eri_tensor(&BasisSet::build(&mol, "svp"));
        assert_eq!(
            fnv(eri_values(&eri)),
            want,
            "{name}: {:#018x}",
            fnv(eri_values(&eri))
        );
    }
}

#[test]
fn c2_rhf_keeps_its_bits() {
    let mol = c2();
    let res = rhf(&mol, &BasisSet::build(&mol, "svp"), &RhfOptions::default());
    let got = (
        res.converged,
        res.iterations,
        res.energy.to_bits(),
        fnv(res.mo_coeffs.as_slice().iter().copied()),
    );
    let want = (
        true,
        12,
        by_fma(0xc052_a1d7_aa7f_06db, 0xc052_a1d7_aa7f_06e1),
        by_fma(0x5cda_d17c_4356_f962, 0x3c98_fafe_5529_cab4),
    );
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn c2_active_space_and_diagonal_keep_their_bits() {
    let mol = c2();
    let space = active_space(
        &mol,
        &BasisSet::build(&mol, "svp"),
        Orbitals::Rhf,
        2,
        Some(13),
        true,
    );
    let mo = &space.mo;
    let got = (
        fnv(mo.h.as_slice().iter().copied()),
        fnv(eri_values(&mo.eri)),
        mo.e_core.to_bits(),
    );
    let want = (
        by_fma(0x2c0b_9ff0_ff35_b859, 0x08ae_d099_2cc5_cbda),
        by_fma(0x7bb8_4623_3777_30a6, 0x1555_2daa_788c_1573),
        by_fma(0xc04c_9226_8358_d1fc, 0xc04c_9226_8358_d1fb),
    );
    assert_eq!(got, want, "{got:#x?}");

    // ⟨D|H|D⟩ − E_core over all 715² determinants, α-major.
    let ham = Hamiltonian::new(mo);
    let strings = SpinStrings::new(13, 4, &mo.orb_sym, mo.n_irrep);
    assert_eq!(strings.len(), 715);
    let masks: Vec<u64> = (0..strings.len()).map(|i| strings.mask(i)).collect();
    let diag = fnv(masks
        .iter()
        .flat_map(|&a| masks.iter().map(move |&b| (a, b)))
        .map(|(a, b)| ham.diagonal_element(a, b)));
    assert_eq!(
        diag,
        by_fma(0x5949_d05b_4175_0ff9, 0x07eb_5851_fabc_183f),
        "{diag:#018x}"
    );
}
