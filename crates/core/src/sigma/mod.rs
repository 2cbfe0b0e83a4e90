//! σ = H·C algorithms.
//!
//! Two complete implementations, mirroring the paper's comparison:
//!
//! * [`dgemm`](crate::sigma::same_spin)/[`mixed`] —
//!   the paper's contribution: dense matrix–matrix multiply through N−2
//!   (same-spin) and dual N−1 (mixed-spin) intermediates;
//! * [`moc`] — the minimum-operation-count baseline:
//!   indexed multiply–add over precomputed excitation lists, with the
//!   same-spin element work replicated on every processor.
//!
//! Orchestration common to both: the β-spin part acts on rows of the
//! column-distributed CI matrix (fully local); the α-spin part reuses the
//! same kernel on the distributed transpose Cᵀ (communication counted);
//! the mixed part gathers, multiplies and remote-accumulates.

pub mod mixed;
pub mod moc;
pub mod same_spin;

use crate::detspace::DetSpace;
use crate::hamiltonian::Hamiltonian;
use crate::taskpool::PoolParams;
use fci_ddi::{Ddi, DistMatrix};
use fci_xsim::{MachineModel, RunReport};
use std::sync::Arc;

/// Everything a σ evaluation needs besides the vector itself.
pub struct SigmaCtx<'a> {
    /// Determinant space and coupling tables.
    pub space: &'a DetSpace,
    /// Hamiltonian coupling matrices.
    pub ham: &'a Hamiltonian,
    /// Virtual processor world.
    pub ddi: &'a Ddi,
    /// Machine cost model.
    pub model: &'a MachineModel,
    /// Mixed-spin task pool shape.
    pub pool: PoolParams,
}

/// The most irreps a point group has here (D2h).
const MAX_IRREP: usize = 8;

/// The blocked kernels index the space's tables and the Hamiltonian's
/// blocks by the same irreps: both must carry the same orbital labels.
fn assert_same_point_group(space: &DetSpace, ham: &Hamiltonian) {
    assert!(
        space.alpha.orb_sym() == ham.orb_sym && space.alpha.n_irrep() == ham.n_irrep,
        "determinant space and Hamiltonian disagree on the orbital irreps"
    );
}

/// Which σ algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SigmaMethod {
    /// The paper's DGEMM-based algorithm.
    Dgemm,
    /// The minimum-operation-count baseline.
    Moc,
}

/// Per-routine simulated-time breakdown of one σ evaluation, matching the
/// rows the paper reports (Fig. 4, Table 3).
#[derive(Clone, Debug, Default)]
pub struct SigmaBreakdown {
    /// Same-spin routine on the β (row) spin — local, statically balanced.
    pub beta_beta: RunReport,
    /// Same-spin routine on the α spin (runs on the transpose).
    pub alpha_alpha: RunReport,
    /// Mixed-spin routine (gather / DGEMM / accumulate, dynamic balance).
    pub alpha_beta: RunReport,
    /// Distributed transposes used by the α-spin same-spin routine.
    pub transpose: RunReport,
}

impl SigmaBreakdown {
    /// Merge all phases into a single per-MSP report.
    pub fn total(&self) -> RunReport {
        let mut r = RunReport::default();
        r.merge(&self.beta_beta);
        r.merge(&self.alpha_alpha);
        r.merge(&self.alpha_beta);
        r.merge(&self.transpose);
        r
    }

    /// Add another evaluation's charges (e.g. summing over iterations).
    pub fn merge(&mut self, other: &SigmaBreakdown) {
        self.beta_beta.merge(&other.beta_beta);
        self.alpha_alpha.merge(&other.alpha_alpha);
        self.alpha_beta.merge(&other.alpha_beta);
        self.transpose.merge(&other.transpose);
    }
}

/// Evaluate σ = (H − E_core)·C with the chosen algorithm.
///
/// Returns the distributed σ vector and the simulated-time breakdown.
///
/// `c` and σ are CI vectors of `ctx.space` ([`DetSpace::zeros_ci`]): they
/// store the target irrep's sector only, and H is totally symmetric, so
/// σ is H·C. [`SigmaMethod::Dgemm`] multiplies only the in-sector blocks
/// of C, Ĝ and V. [`SigmaMethod::Moc`], the paper's baseline, works on
/// full columns and keeps the sector of its result; the two agree to
/// ~1e-10 (verified by the test suite, with and without symmetry), and
/// only the simulated cost differs otherwise.
pub fn apply_sigma(
    ctx: &SigmaCtx,
    c: &DistMatrix,
    method: SigmaMethod,
) -> (DistMatrix, SigmaBreakdown) {
    let space = ctx.space;
    let sigma = space.zeros_ci(ctx.ddi.nproc());
    // Wire both vectors into the world's tracer/recorder (no-ops when the
    // world has none attached; first attachment wins for reused `c`).
    ctx.ddi.adopt(c);
    ctx.ddi.adopt(&sigma);
    let mut bd = SigmaBreakdown::default();

    // β-spin same-spin part (one-electron + ββ doubles): local.
    if space.beta.n_elec() >= 1 {
        bd.beta_beta = match method {
            SigmaMethod::Dgemm => same_spin::half_sigma_dgemm(
                ctx,
                "beta_beta",
                c,
                &sigma,
                &space.beta_singles,
                space.beta_nm2.as_ref(),
            ),
            SigmaMethod::Moc => moc::half_sigma_moc(
                ctx,
                "beta_beta",
                c,
                &sigma,
                &space.beta_singles,
                space.beta_nm2.as_ref(),
            ),
        };
    }

    // α-spin same-spin part on the transpose.
    {
        let tracer = ctx.ddi.tracer();
        let host_t0 = tracer.now_us();
        let mut tstats = vec![fci_ddi::CommStats::default(); ctx.ddi.nproc()];
        let ct = c.transpose(&mut tstats);
        let sigma_t = DistMatrix::with_layout(Arc::clone(ct.layout()), ctx.ddi.nproc());
        ctx.ddi.adopt(&ct);
        ctx.ddi.adopt(&sigma_t);
        let host_t1 = tracer.now_us();
        bd.alpha_alpha = match method {
            SigmaMethod::Dgemm => same_spin::half_sigma_dgemm(
                ctx,
                "alpha_alpha",
                &ct,
                &sigma_t,
                &space.alpha_singles,
                space.alpha_nm2.as_ref(),
            ),
            SigmaMethod::Moc => moc::half_sigma_moc(
                ctx,
                "alpha_alpha",
                &ct,
                &sigma_t,
                &space.alpha_singles,
                space.alpha_nm2.as_ref(),
            ),
        };
        let host_t2 = tracer.now_us();
        let sigma_tt = sigma_t.transpose(&mut tstats);
        sigma.axpy(1.0, &sigma_tt);
        // Charge the transpose traffic as its own phase. The clocks are
        // built directly from the recorded transpose statistics (no ranks
        // run here — both transposes above already moved the data).
        let mut tclocks = vec![fci_xsim::Clock::default(); ctx.ddi.nproc()];
        for (ck, st) in tclocks.iter_mut().zip(&tstats) {
            crate::phase::charge_comm(ck, st, ctx.model);
            // Local reshuffle cost of the transpose itself.
            let elems = c.layout().stored() as f64 / ctx.ddi.nproc() as f64;
            ck.charge_gather(ctx.model, 2.0 * elems);
        }
        bd.transpose = RunReport::new(tclocks);
        // Host time of the transpose phase = both transpose windows.
        let host_dur = (host_t1 - host_t0) + (tracer.now_us() - host_t2);
        crate::phase::finish_phase(&tracer, "transpose", &bd.transpose, host_t2, host_dur);
    }

    // Mixed-spin part.
    if space.beta.n_elec() >= 1 {
        bd.alpha_beta = match method {
            SigmaMethod::Dgemm => mixed::mixed_spin_dgemm(ctx, c, &sigma),
            SigmaMethod::Moc => moc::mixed_spin_moc(ctx, c, &sigma),
        };
    }

    (sigma, bd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::random_hamiltonian;
    use crate::slater::sigma_dense;
    use fci_ddi::Backend;

    fn random_ci(space: &DetSpace, nproc: usize, seed: u64) -> DistMatrix {
        let c = space.zeros_ci(nproc);
        let mut state = seed;
        c.map_inplace(|ib, ia, _| {
            state = state
                .wrapping_add((ib * 131 + ia * 7 + 13) as u64)
                .wrapping_mul(6364136223846793005);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        c
    }

    fn check_method(n: usize, na: usize, nb: usize, nproc: usize, method: SigmaMethod, seed: u64) {
        let ham = random_hamiltonian(n, seed);
        let space = DetSpace::c1(n, na, nb);
        let ddi = Ddi::new(nproc, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = random_ci(&space, nproc, seed * 3 + 1);
        let (sig, _bd) = apply_sigma(&ctx, &c, method);
        let reference = sigma_dense(&space, &ham, &c.to_dense());
        let got = sig.to_dense();
        let mut maxdiff = 0.0f64;
        for (a, b) in got.iter().zip(&reference) {
            maxdiff = maxdiff.max((a - b).abs());
        }
        assert!(
            maxdiff < 1e-10,
            "σ mismatch {maxdiff} for n={n} na={na} nb={nb} p={nproc} {method:?}"
        );
    }

    #[test]
    fn dgemm_matches_slater_condon_small() {
        check_method(4, 2, 2, 1, SigmaMethod::Dgemm, 11);
        check_method(5, 2, 1, 2, SigmaMethod::Dgemm, 12);
        check_method(5, 3, 2, 3, SigmaMethod::Dgemm, 13);
    }

    #[test]
    fn moc_matches_slater_condon_small() {
        check_method(4, 2, 2, 1, SigmaMethod::Moc, 21);
        check_method(5, 2, 1, 2, SigmaMethod::Moc, 22);
        check_method(5, 3, 2, 3, SigmaMethod::Moc, 23);
    }

    #[test]
    fn methods_match_open_shell_and_many_procs() {
        check_method(6, 4, 2, 7, SigmaMethod::Dgemm, 31);
        check_method(6, 4, 2, 7, SigmaMethod::Moc, 32);
        // Single β electron (no ββ doubles at all).
        check_method(5, 2, 1, 4, SigmaMethod::Dgemm, 33);
        // Single α electron.
        check_method(5, 1, 1, 2, SigmaMethod::Dgemm, 34);
        check_method(5, 1, 1, 2, SigmaMethod::Moc, 35);
    }

    #[test]
    fn dgemm_equals_moc_bitwise_structure() {
        // Both algorithms on the same vector: results agree to tight tol.
        let ham = random_hamiltonian(6, 55);
        let space = DetSpace::c1(6, 3, 3);
        let ddi = Ddi::new(4, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = random_ci(&space, 4, 99);
        let (s1, _) = apply_sigma(&ctx, &c, SigmaMethod::Dgemm);
        let (s2, _) = apply_sigma(&ctx, &c, SigmaMethod::Moc);
        let d1 = s1.to_dense();
        let d2 = s2.to_dense();
        for (a, b) in d1.iter().zip(&d2) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn result_independent_of_processor_count() {
        let ham = random_hamiltonian(5, 71);
        let space = DetSpace::c1(5, 2, 2);
        let model = MachineModel::cray_x1();
        let mut results = Vec::new();
        for p in [1usize, 2, 5, 13] {
            let ddi = Ddi::new(p, Backend::Serial);
            let ctx = SigmaCtx {
                space: &space,
                ham: &ham,
                ddi: &ddi,
                model: &model,
                pool: PoolParams::default(),
            };
            let c = random_ci(&space, p, 5);
            let (s, _) = apply_sigma(&ctx, &c, SigmaMethod::Dgemm);
            results.push(s.to_dense());
        }
        for r in &results[1..] {
            for (a, b) in r.iter().zip(&results[0]) {
                assert!((a - b).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn threaded_backend_matches_serial() {
        let ham = random_hamiltonian(5, 81);
        let space = DetSpace::c1(5, 2, 2);
        let model = MachineModel::cray_x1();
        let mut out = Vec::new();
        for backend in [Backend::Serial, Backend::Threads] {
            let ddi = Ddi::new(3, backend);
            let ctx = SigmaCtx {
                space: &space,
                ham: &ham,
                ddi: &ddi,
                model: &model,
                pool: PoolParams::default(),
            };
            let c = random_ci(&space, 3, 7);
            let (s, _) = apply_sigma(&ctx, &c, SigmaMethod::Dgemm);
            out.push(s.to_dense());
        }
        for (a, b) in out[0].iter().zip(&out[1]) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    /// The same-spin halves on the serial backend, where one kernel pass
    /// serves every rank, and on the threaded one, where each rank serves
    /// itself: σ bits and every rank's clocks are the same, on a 4-irrep
    /// sector at 2 and 3 ranks.
    #[test]
    fn same_spin_threads_equal_serial_bit_for_bit() {
        let sym = [2u8, 0, 3, 1, 0, 2, 0, 3];
        let ham = crate::hamiltonian::random_symmetric_hamiltonian(8, 23, &sym, 4);
        let space = DetSpace::for_hamiltonian(&ham, 4, 3, 1);
        let model = MachineModel::cray_x1();
        let bits =
            |m: &DistMatrix| -> Vec<u64> { m.to_dense().iter().map(|v| v.to_bits()).collect() };
        for nproc in [2, 3] {
            let halves = |backend| {
                let ddi = Ddi::new(nproc, backend);
                let ctx = SigmaCtx {
                    space: &space,
                    ham: &ham,
                    ddi: &ddi,
                    model: &model,
                    pool: PoolParams::default(),
                };
                let c = random_ci(&space, nproc, 13);
                let ct = c.transpose(&mut vec![fci_ddi::CommStats::default(); nproc]);
                let sb = space.zeros_ci(nproc);
                let sa = DistMatrix::with_layout(Arc::clone(ct.layout()), nproc);
                let (bb, aa) = (
                    same_spin::half_sigma_dgemm(
                        &ctx,
                        "beta_beta",
                        &c,
                        &sb,
                        &space.beta_singles,
                        space.beta_nm2.as_ref(),
                    ),
                    same_spin::half_sigma_dgemm(
                        &ctx,
                        "alpha_alpha",
                        &ct,
                        &sa,
                        &space.alpha_singles,
                        space.alpha_nm2.as_ref(),
                    ),
                );
                (bits(&sb), bits(&sa), bb.clocks, aa.clocks)
            };
            assert!(
                halves(Backend::Serial) == halves(Backend::Threads),
                "serial and threaded same-spin halves differ at {nproc} ranks"
            );
        }
    }

    /// FNV-1a fold of a word stream.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// For a seeded vector on the serial backend: the fold of every σ
    /// element's `to_bits()`, the fold of the bytes of the `{:?}` of the
    /// mixed phase's per-rank clocks, and the same fold over the two
    /// same-spin phases' and the transpose phase's clocks.
    fn sigma_digests(space: &DetSpace, ham: &Hamiltonian, nproc: usize) -> (u64, u64, u64) {
        let ddi = Ddi::new(nproc, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space,
            ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = random_ci(space, nproc, 17);
        let (sig, bd) = apply_sigma(&ctx, &c, SigmaMethod::Dgemm);
        let clocks = format!("{:?}", bd.alpha_beta.clocks);
        let same = format!(
            "{:?}{:?}{:?}",
            bd.beta_beta.clocks, bd.alpha_alpha.clocks, bd.transpose.clocks
        );
        (
            fnv(sig.to_dense().iter().map(|v| v.to_bits())),
            fnv(clocks.bytes().map(u64::from)),
            fnv(same.bytes().map(u64::from)),
        )
    }

    /// The simulated machine charges the shapes of the blocks, never their
    /// values: a Hubbard chain, whose Ĝ and most of V the kernels screen
    /// out, is charged exactly what a dense random Hamiltonian over the
    /// same orbitals and electrons is, on every rank of every phase.
    #[test]
    fn charges_depend_on_shapes_not_values() {
        let hubbard = Hamiltonian::new(&fci_scf::MoIntegrals::hubbard_chain(8, 1.0, 4.0, true));
        let dense = random_hamiltonian(8, 3);
        assert_eq!(hubbard.orb_sym, dense.orb_sym);
        // `{:?}` prints every f64 so that it reads back to the same bits.
        let charges = |ham: &Hamiltonian, na: usize, nb: usize, nproc: usize| {
            let space = DetSpace::for_hamiltonian(ham, na, nb, 0);
            let ddi = Ddi::new(nproc, Backend::Serial);
            let model = MachineModel::cray_x1();
            let ctx = SigmaCtx {
                space: &space,
                ham,
                ddi: &ddi,
                model: &model,
                pool: PoolParams::default(),
            };
            let (_, bd) = apply_sigma(&ctx, &random_ci(&space, nproc, 41), SigmaMethod::Dgemm);
            let phases = [bd.beta_beta, bd.alpha_alpha, bd.alpha_beta, bd.transpose];
            phases.map(|r| format!("{:?}", r.clocks))
        };
        for (na, nb, nproc) in [(4, 4, 1), (4, 3, 3), (3, 2, 7)] {
            assert_eq!(
                charges(&hubbard, na, nb, nproc),
                charges(&dense, na, nb, nproc),
                "({na},{nb}) on {nproc} ranks"
            );
        }
    }

    /// σ is, bit for bit, what this test printed at commit 5e3a752 (the
    /// last one whose same-spin routine worked on untransposed blocks),
    /// and the same at every rank count: the counts reach `nloc` = 0, 1,
    /// 2–3 and ≥ 4 in both same-spin halves and move every GEMM across
    /// tile widths and row masks, neither of which `fci-linalg`'s one
    /// arithmetic lets into the bits. Only whether the
    /// build fuses multiply-add does — one constant per build. The
    /// Hubbard integrals are exact in binary, so fusing changes nothing.
    #[test]
    fn sigma_bits_are_the_untransposed_routines() {
        let want: u64 = if cfg!(target_feature = "fma") {
            0x4594_a3da_7a56_a37d
        } else {
            0x3856_bd5e_a0bd_ab8f
        };
        let ham = random_hamiltonian(9, 7);
        let space = DetSpace::c1(9, 4, 3);
        let digests =
            [1usize, 2, 5, 50, 126, 130].map(|nproc| sigma_digests(&space, &ham, nproc).0);
        assert_eq!(digests, [digests[0]; 6], "σ bits differ across rank counts");
        assert_eq!(digests[0], want, "random n=9: {:#018x}", digests[0]);
        // Most of this h is zero: the one-electron list is mostly skips.
        let ham = Hamiltonian::new(&fci_scf::MoIntegrals::hubbard_chain(8, 1.0, 4.0, false));
        let space = DetSpace::for_hamiltonian(&ham, 4, 4, 0);
        for nproc in [1usize, 3, 70] {
            let got = sigma_digests(&space, &ham, nproc).0;
            assert_eq!(
                got, 0x807e_cfe0_7e06_d024,
                "hubbard 8, nproc={nproc}: {got:#018x}"
            );
        }
    }

    /// σ and the clocks where the mixed kernel has several Kβ blocks per
    /// task (4 and 8 irreps, two targets each), where exact-zero screening
    /// leaves gaps among an orbital's rows of `D_h`, splitting them into
    /// runs (planted zero pairs), and with one irrep, where at 130 ranks
    /// every rank owns 0–1 columns in both same-spin halves; at 1, 5 and
    /// 130 ranks: each case's σ bits are one constant per build (fused or
    /// not), and its mixed clocks and its same-spin + transpose clocks one
    /// constant each, folded over the rank counts. The σ and mixed
    /// constants are what the slot-minor mixed-spin build and scatter
    /// printed; the same-spin ones what the per-rank same-spin kernel
    /// printed, before the charges moved into a walk of their own. The
    /// 10-orbital case (mixed 70×45×70, same-spin 45×210×45 and
    /// 45×120×45) was recorded while the kernels still replayed kept
    /// packed operands for products that large, so it holds the σ bits
    /// and clocks of that path.
    #[test]
    fn sigma_bits_pinned_on_blocks_and_split_runs() {
        let sym4 = [2u8, 0, 3, 1, 0, 2, 0, 3];
        let sym8 = [5u8, 0, 3, 6, 0, 5, 7, 1];
        let ham4 = crate::hamiltonian::random_symmetric_hamiltonian(8, 23, &sym4, 4);
        let ham8 = crate::hamiltonian::random_symmetric_hamiltonian(8, 29, &sym8, 8);
        let dense = crate::hamiltonian::random_symmetric_hamiltonian(8, 31, &sym4, 4);
        let mut mo = fci_scf::MoIntegrals {
            n_orb: 8,
            h: dense.h.clone(),
            eri: dense.eri.clone(),
            e_core: dense.e_core,
            orb_sym: sym4.to_vec(),
            n_irrep: 4,
        };
        for (p, r) in [(4, 1), (5, 0), (1, 0), (3, 3), (6, 2)] {
            for q in 0..8 {
                for s in 0..8 {
                    mo.eri.set(p, q, r, s, 0.0);
                }
            }
        }
        let planted = Hamiltonian::new(&mo);
        let c1 = random_hamiltonian(8, 37);
        let c1_10 = random_hamiltonian(10, 41);
        // (name, Hamiltonian, target, σ fused, σ unfused, mixed clocks,
        // same-spin + transpose clocks)
        let cases: [(&str, &Hamiltonian, u8, u64, u64, u64, u64); 7] = [
            (
                "4 irreps, target 0",
                &ham4,
                0,
                0x51c5_08d5_2405_d6a2,
                0x0603_4872_a0ee_fc53,
                0x2c8c_3807_2a67_76d3,
                0x8303_5f87_ca5f_0671,
            ),
            (
                "4 irreps, target 3",
                &ham4,
                3,
                0xb50b_7989_da51_d9dd,
                0x176d_a002_11d6_cd92,
                0x66df_205b_83ef_70ff,
                0x7585_8feb_0637_4d04,
            ),
            (
                "8 irreps, target 0",
                &ham8,
                0,
                0xfe8c_a5bf_fa77_6b8a,
                0x38c5_1f94_814e_8234,
                0xaf05_8c64_8b17_9b3a,
                0x42e4_0a74_edcc_0b36,
            ),
            (
                "8 irreps, target 6",
                &ham8,
                6,
                0xa13f_df47_297d_9aeb,
                0xabec_8ed5_6a53_12a7,
                0x8fd4_3349_c141_9ef0,
                0x3c9c_2a95_24a1_1c23,
            ),
            (
                "planted, 4 irreps, target 2",
                &planted,
                2,
                0x2ac2_a0c6_bb4a_440b,
                0xb66b_c3ac_e65f_8d36,
                0xd25b_1307_9ee6_cda7,
                0x308a_07d7_970c_9816,
            ),
            (
                "1 irrep",
                &c1,
                0,
                0x490f_c51d_6499_9cc0,
                0x0420_94ab_88a2_4964,
                0x3d3d_5f7a_042a_162b,
                0x2679_22db_cbc8_c2ef,
            ),
            (
                "1 irrep, 10 orbitals",
                &c1_10,
                0,
                0xcab9_497f_ae00_b33b,
                0x9293_9abc_2537_51e8,
                0xf145_6fb3_0daf_fc4d,
                0x6461_1c13_bc94_7b81,
            ),
        ];
        let mut got = Vec::new();
        for (what, ham, target, fused, unfused, mixed, same) in cases {
            let space = DetSpace::for_hamiltonian(ham, 4, 3, target);
            let runs = [1usize, 5, 130].map(|nproc| sigma_digests(&space, ham, nproc));
            assert!(
                runs.iter().all(|r| r.0 == runs[0].0),
                "{what}: σ bits differ across rank counts"
            );
            let want = if cfg!(target_feature = "fma") {
                fused
            } else {
                unfused
            };
            got.push((
                what,
                [runs[0].0, fnv(runs.map(|r| r.1)), fnv(runs.map(|r| r.2))],
                [want, mixed, same],
            ));
        }
        assert!(
            got.iter().all(|(_, digests, want)| digests == want),
            "(case, [σ, mixed, same-spin], want): {got:#018x?}"
        );
    }
}
