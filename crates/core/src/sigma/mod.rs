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
//! same kernel on the distributed transpose Cᵀ (communication counted),
//! built before either half so that the serial DGEMM pass of each half
//! reads its input from the other layout; the mixed part gathers,
//! multiplies and remote-accumulates.

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

/// A test context over `space` and `ham` on `ddi`: the X1 model and the
/// default task pool.
#[cfg(test)]
pub(crate) fn test_ctx<'a>(
    space: &'a DetSpace,
    ham: &'a Hamiltonian,
    ddi: &'a Ddi,
) -> SigmaCtx<'a> {
    static X1: std::sync::LazyLock<MachineModel> = std::sync::LazyLock::new(MachineModel::cray_x1);
    SigmaCtx {
        space,
        ham,
        ddi,
        model: &X1,
        pool: PoolParams::default(),
    }
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

    // The same-spin halves. Each works on a matrix whose rows are its
    // spin's strings — C for β, Cᵀ for α — and each needs the other
    // layout too: its kernel reads C with its rows contiguous. So Cᵀ, and
    // σᵀ beside it, are built first (the paper's one distributed
    // transpose each way, counted as the `transpose` phase). On the serial
    // backend a half's pass serves every column and takes its input from
    // the other matrix, where it is or by copy: the β half reads Cᵀ and
    // sums into σᵀ, the α half reads C and sums into σ (both still zero
    // when their half runs). A rank of the threaded backend transposes
    // its own share in and out instead (same_spin.rs, "Layout"). Every σ
    // element receives each half once, so σ + transpose(σᵀ) is the sum of
    // the two halves on either backend — the same bits as adding them in
    // the other order. Cᵀ and σᵀ go before the mixed part starts.
    {
        let nproc = ctx.ddi.nproc();
        let tracer = ctx.ddi.tracer();
        let host_t0 = tracer.now_us();
        let mut tstats = vec![fci_ddi::CommStats::default(); nproc];
        let ct = c.transpose(&mut tstats);
        let sigma_t = DistMatrix::with_layout(Arc::clone(ct.layout()), nproc);
        ctx.ddi.adopt(&ct);
        ctx.ddi.adopt(&sigma_t);
        let host_t1 = tracer.now_us();

        // β-spin same-spin part (one-electron + ββ doubles): local.
        if space.beta.n_elec() >= 1 {
            bd.beta_beta = match method {
                SigmaMethod::Dgemm => same_spin::half_sigma_dgemm_both(
                    ctx,
                    "beta_beta",
                    [c, &ct],
                    [&sigma, &sigma_t],
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

        // α-spin same-spin part, on the transpose.
        bd.alpha_alpha = match method {
            SigmaMethod::Dgemm => same_spin::half_sigma_dgemm_both(
                ctx,
                "alpha_alpha",
                [&ct, c],
                [&sigma_t, &sigma],
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
        sigma_t.transpose_add_to(&sigma, &mut tstats);
        // Charge the transpose traffic as its own phase. The clocks are
        // built directly from the recorded transpose statistics (no ranks
        // run here — both transposes above already moved the data).
        let mut tclocks = vec![fci_xsim::Clock::default(); nproc];
        for (ck, st) in tclocks.iter_mut().zip(&tstats) {
            crate::phase::charge_comm(ck, st, ctx.model);
            // Local reshuffle cost of the transpose itself.
            let elems = c.layout().stored() as f64 / nproc as f64;
            ck.charge_gather(ctx.model, 2.0 * elems);
        }
        bd.transpose = RunReport::new(tclocks);
        // Host time of the transpose phase = both transpose windows.
        let host_dur = (host_t1 - host_t0) + (tracer.now_us() - host_t2);
        bd.transpose
            .record_to(&tracer, "transpose", host_t2, host_dur);
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
    use fci_obs::fnv1a;

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
        let ctx = test_ctx(&space, &ham, &ddi);
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
        let ctx = test_ctx(&space, &ham, &ddi);
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
    /// serves every rank and takes its sub-blocks from the other layout
    /// (in place or by copy), and on the threaded one, where each rank
    /// serves itself and transposes: each half's σ bits (its two accumulators folded into
    /// one layout) and every rank's clocks are the same, on two 4-irrep
    /// sectors and on an 8-site Hubbard chain (Ĝ screened out: the singles
    /// alone) at 1, 2, 3 and 7 ranks. At 7 ranks sub-blocks split between
    /// owners, and the 5-orbital sector's 5 α strings leave two ranks of
    /// the β half without columns. The serial pass of the one-layout
    /// entry point, which transposes, gives the same bits too.
    #[test]
    fn same_spin_threads_equal_serial_bit_for_bit() {
        let sym = [2u8, 0, 3, 1, 0, 2, 0, 3];
        let ham4 = crate::hamiltonian::random_symmetric_hamiltonian(8, 23, &sym, 4);
        let small = crate::hamiltonian::random_symmetric_hamiltonian(5, 19, &sym[..5], 4);
        let hubbard = Hamiltonian::new(&fci_scf::MoIntegrals::hubbard_chain(8, 1.0, 4.0, false));
        let spaces = [
            (DetSpace::for_hamiltonian(&ham4, 4, 3, 1), &ham4),
            (DetSpace::for_hamiltonian(&small, 1, 3, 2), &small),
            (DetSpace::for_hamiltonian(&hubbard, 4, 4, 0), &hubbard),
        ];
        let model = MachineModel::cray_x1();
        let bits =
            |m: &DistMatrix| -> Vec<u64> { m.to_dense().iter().map(|v| v.to_bits()).collect() };
        for (space, ham) in &spaces {
            for nproc in [1, 2, 3, 7] {
                let halves = |backend, both: bool| {
                    let ddi = Ddi::new(nproc, backend);
                    let ctx = SigmaCtx {
                        space,
                        ham,
                        ddi: &ddi,
                        model: &model,
                        pool: PoolParams::default(),
                    };
                    let mut stats = vec![fci_ddi::CommStats::default(); nproc];
                    let c = random_ci(space, nproc, 13);
                    let ct = c.transpose(&mut stats);
                    // One half into fresh accumulators in both layouts,
                    // folded into the layout of `rows`.
                    let half = |name, rows: &DistMatrix, cols: &DistMatrix, singles, nm2| {
                        let s = DistMatrix::with_layout(Arc::clone(rows.layout()), nproc);
                        let st = DistMatrix::with_layout(Arc::clone(cols.layout()), nproc);
                        let rep = if both {
                            same_spin::half_sigma_dgemm_both(
                                &ctx,
                                name,
                                [rows, cols],
                                [&s, &st],
                                singles,
                                nm2,
                            )
                        } else {
                            same_spin::half_sigma_dgemm(&ctx, name, rows, &s, singles, nm2)
                        };
                        let mut stats = vec![fci_ddi::CommStats::default(); nproc];
                        s.axpy(1.0, &st.transpose(&mut stats));
                        (bits(&s), rep.clocks)
                    };
                    let (beta, alpha) = (&space.beta_singles, &space.alpha_singles);
                    let bb = half("beta_beta", &c, &ct, beta, space.beta_nm2.as_ref());
                    let aa = half("alpha_alpha", &ct, &c, alpha, space.alpha_nm2.as_ref());
                    (bb.0, aa.0, bb.1, aa.1)
                };
                let serial = halves(Backend::Serial, true);
                let strings = (space.alpha.len(), space.beta.len());
                assert!(
                    serial == halves(Backend::Threads, true),
                    "serial and threaded same-spin halves differ at {nproc} ranks, {strings:?} strings"
                );
                assert!(
                    serial == halves(Backend::Serial, false),
                    "copying and transposing serial passes differ at {nproc} ranks, {strings:?} strings"
                );
            }
        }
    }

    /// For a seeded vector on the serial backend: [`fnv1a`] of every σ
    /// element's little-endian bytes, of the `{:?}` of the mixed phase's
    /// per-rank clocks, and of the two same-spin phases' and the
    /// transpose phase's clocks.
    fn sigma_digests(space: &DetSpace, ham: &Hamiltonian, nproc: usize) -> (u64, u64, u64) {
        let ddi = Ddi::new(nproc, Backend::Serial);
        let ctx = test_ctx(space, ham, &ddi);
        let c = random_ci(space, nproc, 17);
        let (sig, bd) = apply_sigma(&ctx, &c, SigmaMethod::Dgemm);
        let clocks = format!("{:?}", bd.alpha_beta.clocks);
        let same = format!(
            "{:?}{:?}{:?}",
            bd.beta_beta.clocks, bd.alpha_alpha.clocks, bd.transpose.clocks
        );
        (
            fnv1a(
                &sig.to_dense()
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect::<Vec<_>>(),
            ),
            fnv1a(clocks.as_bytes()),
            fnv1a(same.as_bytes()),
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
            let ctx = test_ctx(&space, ham, &ddi);
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
    /// last one whose same-spin routine worked on untransposed blocks;
    /// the constants are those bits' digests under [`fnv1a`]),
    /// and the same at every rank count: the counts reach `nloc` = 0, 1,
    /// 2–3 and ≥ 4 in both same-spin halves and move every GEMM across
    /// tile widths and row masks, neither of which `fci-linalg`'s one
    /// arithmetic lets into the bits. Only whether the
    /// build fuses multiply-add does — one constant per build. The
    /// Hubbard integrals are exact in binary, so fusing changes nothing.
    #[test]
    fn sigma_bits_are_the_untransposed_routines() {
        let want: u64 = if cfg!(target_feature = "fma") {
            0x6762_128f_9016_19d2
        } else {
            0xfeb8_025e_f817_2fbc
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
                got, 0x0bba_b478_29c3_8867,
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
                0x850d_aa8d_f415_de1a,
                0x8d26_b67f_037e_37a4,
                0xa485_ab9e_0d72_4a08,
                0xfc1a_d9ad_b350_5271,
            ),
            (
                "4 irreps, target 3",
                &ham4,
                3,
                0xac62_ac4b_5435_357f,
                0x5625_a39f_29c5_30a2,
                0x96f8_c195_53e4_2647,
                0x54eb_7f85_011b_d0a2,
            ),
            (
                "8 irreps, target 0",
                &ham8,
                0,
                0x0d70_7a35_ea5f_1db1,
                0xdc44_805d_7a34_f427,
                0xc2f3_c12c_1030_8174,
                0x31cd_73f4_5247_a1bb,
            ),
            (
                "8 irreps, target 6",
                &ham8,
                6,
                0xb1c0_2e4b_a184_171e,
                0x5cdb_9609_2c2a_9907,
                0x7a8f_f10c_65c7_6143,
                0x8688_5f44_c455_8715,
            ),
            (
                "planted, 4 irreps, target 2",
                &planted,
                2,
                0x247b_c915_d503_f5a8,
                0x05e4_9a0c_e423_0bd7,
                0xc52e_2ae2_6cbc_131c,
                0xab09_2538_09ac_28e8,
            ),
            (
                "1 irrep",
                &c1,
                0,
                0xd719_4427_246a_8dda,
                0x0547_d230_f2b7_937a,
                0x747e_3953_7f1d_5cb3,
                0x4ff8_950c_8670_19fb,
            ),
            (
                "1 irrep, 10 orbitals",
                &c1_10,
                0,
                0xc82f_fbc9_dd6b_5fdf,
                0x655f_4b41_97f3_da2c,
                0x39b9_f0d5_2f57_cdc3,
                0x2d81_f33f_325c_62ce,
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
                [
                    runs[0].0,
                    fnv1a(&runs.map(|r| r.1.to_le_bytes()).concat()),
                    fnv1a(&runs.map(|r| r.2.to_le_bytes()).concat()),
                ],
                [want, mixed, same],
            ));
        }
        assert!(
            got.iter().all(|(_, digests, want)| digests == want),
            "(case, [σ, mixed, same-spin], want): {got:#018x?}"
        );
    }
}
