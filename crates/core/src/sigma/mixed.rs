//! The DGEMM-based mixed-spin (α-β) routine (paper eqs. 4–6, Fig. 2b).
//!
//! Work units are Nα−1 electron α occupations Kα, claimed from the
//! dynamic task pool. For each Kα with family {(q, sgn_q, Jα)}:
//!
//! 1. **gather** the remote C columns of the family (`DDI_GET` — the
//!    only read communication of the whole σ),
//! 2. build `D((q̃, s), Kβ) = sgn_s · sgn_q̃ · C(Jα(q̃), Jβ(s, Kβ))` by a
//!    vector gather over the β N−1 families,
//! 3. one dense multiply `E = V_K · D`, where `V_K[(p̃,r),(q̃,s)] =
//!    (p_{p̃} q_{q̃} | r s)` is the integral block restricted to the
//!    family's orbitals (the "INT" box of Fig. 2b),
//! 4. scatter `E` through the β families into the update buffer and
//!    remote-accumulate each α column of it, signed (`DDI_ACC`, 2×
//!    bytes).
//!
//! Communication per Kα is O(family × Nβ-strings) — in total `3·Nci·Nα`
//! words versus the MOC routine's `Nci·Nα·(n−Nα)` (Table 1).
//!
//! ### Symmetry blocks
//!
//! C stores the target irrep's sector only: `C(Jα, Jβ)` is stored when
//! `g_Jα ⊕ g_Jβ = target`, i.e. row `(q̃, s)` of D is non-zero in column
//! Kβ only when `g_q ⊕ g_s = g_Kα ⊕ g_Kβ ⊕ target =: h`, and `(pq|rs)`
//! vanishes unless `g_p ⊕ g_r = g_q ⊕ g_s`. Kβ strings are sorted by
//! (irrep, mask), so steps 2–4 run once per irrep block of Kβ:
//!
//! ```text
//! D_h (rows (q̃,s) with g_q ⊕ g_s = h  ×  the Kβ of irrep g_Kα ⊕ h ⊕ target)
//! E_h = V_hh · D_h
//! ```
//!
//! A family's slots are sorted by (irrep, orbital) and the rows of `D_h`
//! keep the slot-major order `(q̃, s)`: slot `q̃` owns one row per orbital
//! `s` of irrep `g_q ⊕ h` whose pair `(q, s)` is not screened (see
//! below), ascending, so row = `base[q̃]` + the rank of `s` among those.
//! `V_hh` is filled over the same rows. With one irrep and nothing
//! screened there is one block and `base[q̃] = q̃·n`: the same loops
//! build the same `nd × n_Kβ` product as an unblocked routine.
//!
//! ### Exact-zero screening
//!
//! A pair `(p, r)` with `(pq|rs) = 0.0` for every `(q, s)` has an all-zero
//! row of V, and — as `(pq|rs) = (qp|sr)` — an all-zero column. Its rows
//! of `D_h`, `E_h` and `V_hh` are dropped: on a Hubbard chain only
//! `(p, p)` survives, and the 60×60 `V_K` of the 10-site chain becomes
//! 6×6. Each E element is the same `fma` chain less terms that were
//! `0·b`, so σ keeps its bits; a dropped E row was zero, and scattering
//! it added nothing. The simulated clock still charges the unscreened
//! shapes, so every charge depends on the symmetry blocks only.
//!
//! ### Layout
//!
//! The loops run **by β orbital**. Which Kβ of a block create `s`, and
//! the `(Jβ, sgn_s)` they reach, depend on the β strings alone, so the
//! space keeps them as one list per (Kβ irrep, `s`), Kβ ascending
//! ([`fci_strings::CreationLists`], `DetSpace::beta_creators`). For each
//! `s` and each unscreened row `(q̃, s)`, build and scatter are one
//! branch-free indexed loop over the list of `s`:
//!
//! ```text
//! build     D_hᵀ[row·n_Kβ + Kβ]   = sgn_s · (sgn_q̃ · cg[q̃·nβ + Jβ])
//! scatter   ut[q̃·nβ + Jβ]        += sgn_s · E_h[row + Kβ·nd]
//! ```
//!
//! The gathered columns `cg` and the update `ut` are **slot-major**, as
//! `DDI_GET` delivers them and as `DDI_ACC` takes them: a slot's column of
//! `ut`, signed by `sgn_q̃`, is the α column handed to the sink, and is
//! cleared behind it. Only in-sector rows of either are written or read.
//! `D` is held transposed (`D_hᵀ`, `n_Kβ × nd`), so that the build writes
//! one contiguous column of it per row; it enters the GEMM with
//! [`Trans::Yes`], which hands the kernels the same operands in the same
//! order as an untransposed `D_h`, hence the same bits. The scatter visits
//! the orbitals **descending**: the terms that reach one `ut` element
//! within a block come from distinct `s` of one irrep, whose Kβ = Jβ∖{s}
//! ascend as `s` descends (strings are sorted by mask within an irrep),
//! so each element adds its terms in the Kβ-ascending order a loop over
//! the families would, and the sums keep their bits. `D_hᵀ`, `E_h` and
//! `V_hh` are three matrices sized for an unblocked task and reshaped per
//! block.
//!
//! ### Scheduling simulation
//!
//! Under the threads backend every worker claims tasks from the shared
//! counter for real. Under the (default, deterministic) serial backend the
//! ranks execute one after another, so a naive claim loop would let rank 0
//! drain the whole pool; instead the routine simulates the self-scheduling
//! exactly: the rank whose simulated clock is lowest claims the next task
//! — greedy list scheduling, which is what `SHMEM_SWAP` self-scheduling
//! produces on the real machine.

use super::{SigmaCtx, MAX_IRREP};
use crate::hamiltonian::Hamiltonian;
use crate::phase::{charge_comm, finish_phase, HostSplit};
use crate::taskpool::TaskPool;
use fci_ddi::{Backend, CommStats, Corruption, DistMatrix, FaultPlan};
use fci_linalg::{dgemm, Matrix, Trans};
use fci_obs::{Category, FaultKind};
use fci_strings::Bits;
use fci_xsim::{Clock, MachineModel, RunReport};
use std::sync::Mutex;

/// Receives one α-column contribution of a task: `(column, values, stats)`.
/// The production sink remote-accumulates into σ (`DDI_ACC`); under a
/// fault plan a staging sink buffers the task for the column guard.
/// [`MixedWorker::run_task`] takes any sink.
pub type ColumnSink<'s> = dyn FnMut(usize, &[f64], &mut CommStats) + 's;

/// Per-rank working storage for the mixed-spin routine (the paper's
/// "working area to store the gathered C vector coefficients and the
/// computed update coefficients", §3.1). Scratch only: its size depends
/// on the dimensions of the space, and no content outlives a task, so
/// one set serves any Hamiltonian.
struct WorkBufs {
    /// The family's C columns as `DDI_GET` delivers them, slot-major:
    /// `cg[slot·nbstr + jβ]`.
    cg: Vec<f64>,
    /// The update, slot-major like `cg`: the column of a slot is the α
    /// column handed to the sink. All zero between tasks.
    ut: Vec<f64>,
    /// Column indices of the current family (input to the aggregated
    /// [`DistMatrix::get_cols`]); capacity reserved once, reused forever.
    cols: Vec<usize>,
    /// First row of each slot in the current `D_h` (and one past the
    /// last slot's rows).
    base: Vec<usize>,
    /// Per row of the current `V_hh`, where its integrals sit in **V**
    /// (see [`fill_vk`]).
    vpos: Vec<(usize, usize)>,
    /// `D_hᵀ`, `n_Kβ × nd`: row `(q̃, s)` of `D_h` is a contiguous column.
    dt: Matrix,
    e_mat: Matrix,
    /// `V_hh`, built per (Kα, h) by [`fill_vk`].
    vk: Matrix,
}

impl WorkBufs {
    fn new(nbstr: usize, nq: usize, n: usize, nkb: usize) -> Self {
        let nd = nq * n;
        WorkBufs {
            cg: vec![0.0; nbstr * nq],
            ut: vec![0.0; nbstr * nq],
            cols: Vec::with_capacity(nq),
            base: vec![0; nq + 1],
            vpos: vec![(0, 0); nd],
            dt: Matrix::zeros(nkb, nd),
            e_mat: Matrix::zeros(nd, nkb),
            vk: Matrix::zeros(nd, nd),
        }
    }
}

/// Cache key for [`SERIAL_BUFS`]: `(nbstr, nq, n, nkb)`.
type BufKey = (usize, usize, usize, usize);

thread_local! {
    /// The serial backend's scratch [`WorkBufs`], keyed by their
    /// dimensions alone.
    ///
    /// `mixed_spin_dgemm` runs once per σ application; hoisting the
    /// buffers across calls means steady-state Davidson iterations
    /// allocate nothing in the mixed-spin hot path (asserted by the
    /// counting-allocator test in `tests/alloc_hotpath.rs`). Thread
    /// workers under the threads backend keep per-thread buffers for the
    /// lifetime of their phase instead (one allocation per phase, not
    /// per task).
    static SERIAL_BUFS: std::cell::RefCell<Option<(BufKey, WorkBufs)>> =
        const { std::cell::RefCell::new(None) };
}

/// Run `f` with the cached serial working area for the given dimensions,
/// (re)allocating only when the dimensions change.
fn with_serial_bufs<R>(
    nbstr: usize,
    nq: usize,
    n: usize,
    nkb: usize,
    f: impl FnOnce(&mut WorkBufs) -> R,
) -> R {
    SERIAL_BUFS.with(|cell| {
        let mut slot = cell.borrow_mut();
        let key = (nbstr, nq, n, nkb);
        match slot.as_mut() {
            Some((k, bufs)) if *k == key => f(bufs),
            _ => {
                let (_, bufs) = slot.insert((key, WorkBufs::new(nbstr, nq, n, nkb)));
                f(bufs)
            }
        }
    })
}

/// Parts of a rank's host time, as indexed in [`HostSplit`] and named in
/// the `mixed_host_us` trace counter.
const HOST_PARTS: [&str; 5] = ["get", "build", "gemm", "scatter", "acc"];
const GET: usize = 0;
const BUILD: usize = 1;
const GEMM: usize = 2;
const SCATTER: usize = 3;
const ACC: usize = 4;

/// Execute the work of one Kα family on `rank`, handing each α-column
/// update to `sink` (which normally performs the `DDI_ACC`).
#[allow(clippy::too_many_arguments)]
fn process_task_into(
    ctx: &SigmaCtx,
    c: &DistMatrix,
    ka: usize,
    rank: usize,
    bufs: &mut WorkBufs,
    stats: &mut CommStats,
    clock: &mut Clock,
    host: &mut HostSplit,
    sink: &mut ColumnSink,
) {
    let space = ctx.space;
    let ham = ctx.ham;
    let model = ctx.model;
    let nbstr = space.beta.len();
    let nkb = space.beta_nm1.len();
    let kbeta = space.beta_nm1.space_k();
    let n_irrep = kbeta.n_irrep();
    let target = space.target_irrep;
    let fam = space.alpha_nm1.of(ka);
    let nq = fam.len();
    let gka = space.alpha_nm1.space_k().irrep_of_index(ka);
    let (n, orb_sym) = (ham.n, &ham.orb_sym[..]);
    host.start();

    // The family's slots are sorted by (irrep, orbital): those of irrep
    // g are `slots[g]..slots[g + 1]`. The α column of a slot has irrep
    // g_Kα ⊕ g_q and is non-zero in `sector_rows` only.
    let mut slots = [0usize; MAX_IRREP + 1];
    for e in fam {
        slots[orb_sym[e.p as usize] as usize + 1] += 1;
    }
    for g in 0..n_irrep {
        slots[g + 1] += slots[g];
    }
    let sector_rows =
        |e: &fci_strings::CreateEntry| space.beta.block_range(gka ^ orb_sym[e.p as usize] ^ target);

    // (1) gather the C columns of the family in ONE aggregated DDI op —
    // one latency charge (and one trace event) per remote owner-run
    // instead of one per column, the paper's size-ordered aggregated
    // gather.
    bufs.cols.clear();
    // lint: allow(alloc) — capacity reserved once in WorkBufs::new; clear+extend never reallocates
    bufs.cols.extend(fam.iter().map(|e| e.to as usize));
    c.get_cols(rank, &bufs.cols, &mut bufs.cg[..nq * nbstr], stats);
    let stored: usize = fam.iter().map(|e| sector_rows(e).len()).sum();
    clock.charge_gather(model, stored as f64);
    host.lap(GET);

    for gkb in 0..n_irrep as u8 {
        // (2) build D_h through the creation lists of this irrep block.
        let nkb_h = kbeta.block_len(gkb);
        let h = gka ^ gkb ^ target;
        // Rows per slot: the unscreened partners `s` of its orbital among
        // the orbitals of irrep g_q ⊕ h. The machine model moves all
        // `nd_all` of them.
        let mut nd_all = 0;
        for (slot, e) in fam.iter().enumerate() {
            let q = e.p as usize;
            let partners = ham.irrep_mask(orb_sym[q] ^ h);
            nd_all += partners.count_ones() as usize;
            bufs.base[slot + 1] =
                bufs.base[slot] + (partners & ham.v_pairs(q)).count_ones() as usize;
        }
        let nd = bufs.base[nq];
        if nd_all == 0 || nkb_h == 0 {
            continue;
        }
        // The slots pairing with β orbital s, and the rows `(q̃, s)` of
        // those whose pair `(q, s)` is not screened, as `(q̃, row)`.
        let pairing = |s: usize| {
            let g = (orb_sym[s] ^ h) as usize;
            slots[g]..slots[g + 1]
        };
        let base = &bufs.base;
        let rows_of = |s: usize| {
            let below = ham.irrep_mask(orb_sym[s]) & ((1u64 << s) - 1);
            pairing(s).filter_map(move |slot| {
                let pairs = ham.v_pairs(fam[slot].p as usize);
                let row = base[slot] + (pairs & below).count_ones() as usize;
                (pairs >> s & 1 == 1).then_some((slot, row))
            })
        };
        bufs.dt.reshape(nkb_h, nd);
        bufs.dt.fill_zero();
        clock.charge_memcpy(model, (nd_all * nkb_h * 8) as f64);
        let mut moved = 0;
        let dt = bufs.dt.as_mut_slice();
        for s in 0..n {
            let list = space.beta_creators.of(gkb, s);
            moved += list.len() * pairing(s).len();
            for (slot, row) in rows_of(s) {
                let (col, sgn) = (&bufs.cg[slot * nbstr..][..nbstr], fam[slot].sign as f64);
                let drow = &mut dt[row * nkb_h..][..nkb_h];
                for b in list {
                    drow[b.k as usize] = b.sign * (sgn * col[b.to as usize]);
                }
            }
        }
        clock.charge_gather(model, moved as f64);

        // (3) the integral block and the DGEMM. `V_hh` is built on every
        // call: none is kept across σ applications (DESIGN §16). The
        // simulated clock charges the unscreened shapes.
        if nd > 0 {
            bufs.vk.reshape(nd, nd);
            fill_vk(&mut bufs.vk, &mut bufs.vpos, ham, fam, h);
        }
        clock.charge_memcpy(model, (nd_all * nd_all * 8) as f64);
        host.lap(BUILD);
        // `D_hᵀ` enters as `Trans::Yes`: the same operands in the same
        // order as an untransposed `D_h`, so the same bits.
        bufs.e_mat.reshape(nd, nkb_h);
        if nd > 0 {
            dgemm(
                Trans::No,
                Trans::Yes,
                1.0,
                &bufs.vk,
                &bufs.dt,
                0.0,
                &mut bufs.e_mat,
            );
        }
        host.gemm(nd, nkb_h, nd);
        clock.charge_dgemm(model, nd_all, nkb_h, nd_all);
        host.lap(GEMM);

        // (4) scatter E_h through the same lists, which move as many
        // elements as the build did. Orbitals descend so that each update
        // element takes its terms Kβ ascending, the order the families
        // give them.
        let e = bufs.e_mat.as_slice();
        for s in (0..n).rev() {
            let list = space.beta_creators.of(gkb, s);
            for (slot, row) in rows_of(s) {
                let u = &mut bufs.ut[slot * nbstr..][..nbstr];
                for b in list {
                    u[b.to as usize] += b.sign * e[row + b.k as usize * nd];
                }
            }
        }
        clock.charge_gather(model, moved as f64);
        host.lap(SCATTER);
    }

    // Accumulate: a slot's column of the update is its α column of σ,
    // zero outside the in-sector rows that `DDI_ACC` adds. Sign it, hand
    // it over, and clear it behind, which leaves `ut` all zero for the
    // next task.
    for (slot, e) in fam.iter().enumerate() {
        let (rows, sgn) = (sector_rows(e), e.sign as f64);
        let col = &mut bufs.ut[slot * nbstr..][..nbstr];
        col[rows.clone()].iter_mut().for_each(|u| *u *= sgn);
        host.lap(SCATTER);
        sink(e.to as usize, col, stats);
        host.lap(ACC);
        col[rows].fill(0.0);
    }
    host.lap(SCATTER);
    clock.charge_gather(model, stored as f64);
    clock.charge_scalar(model, (2 * nq + 2 * nkb) as f64);
}

/// Fill `vk` with the family's integral block of pair irrep `h` (the
/// "INT" box of Fig. 2b): row `base[p̃] + i` is `(p̃, r)` with `r` the
/// `i`-th orbital of irrep `g_p ⊕ h` whose pair `(p, r)` is not screened,
/// columns likewise, and the entry is
/// `(p_{p̃} q_{q̃} | r s)` — read as `(s r | p q)`, the same number in
/// **V**, whose position splits into a row part `r + p·n³` and a column
/// part `s·n + q·n²` (`vpos`: the part of every row, which is also the
/// other part of the same index as a column).
fn fill_vk(
    vk: &mut Matrix,
    vpos: &mut [(usize, usize)],
    ham: &Hamiltonian,
    fam: &[fci_strings::CreateEntry],
    h: u8,
) {
    let n = ham.n;
    let mut rows = vpos.iter_mut();
    for e in fam {
        let p = e.p as usize;
        let partners = ham.irrep_mask(ham.orb_sym[p] ^ h) & ham.v_pairs(p);
        for (r, at) in Bits(partners).zip(&mut rows) {
            let r = r as usize;
            *at = (r + p * n * n * n, r * n + p * n * n);
        }
    }
    let nd = vk.nrows();
    let (v, vpos) = (ham.v().as_slice(), &vpos[..nd]);
    for (col, &(_, as_col)) in vk.as_mut_slice().chunks_exact_mut(nd).zip(vpos) {
        for (x, &(as_row, _)) in col.iter_mut().zip(vpos) {
            *x = v[as_row + as_col];
        }
    }
}

/// Execute the work of one Kα family on `rank`, accumulating into σ.
///
/// With a fault plan present the task runs *guarded*: updates are
/// buffered, validated finite as a whole, and only then committed — a
/// poisoned working area triggers a full task recompute instead of
/// polluting σ. Without a plan the sink accumulates directly (fast path).
#[allow(clippy::too_many_arguments)]
fn process_task(
    ctx: &SigmaCtx,
    c: &DistMatrix,
    sigma: &DistMatrix,
    ka: usize,
    rank: usize,
    bufs: &mut WorkBufs,
    stats: &mut CommStats,
    clock: &mut Clock,
    host: &mut HostSplit,
    plan: Option<&FaultPlan>,
) {
    let Some(plan) = plan else {
        process_task_into(
            ctx,
            c,
            ka,
            rank,
            bufs,
            stats,
            clock,
            host,
            &mut |col, vals, st| sigma.acc_col(rank, col, vals, st),
        );
        return;
    };
    process_task_guarded(ctx, c, sigma, ka, rank, bufs, stats, clock, host, plan);
}

/// The guarded task path: compute into a staging buffer, inject any
/// scheduled poison, run the column guard (every value finite), and
/// either commit all accumulates or recompute the whole task. The
/// all-or-nothing commit means a detected fault never leaves a partial
/// task in σ, and the recompute's recomputed gathers/DGEMM re-charge the
/// clock naturally.
#[allow(clippy::too_many_arguments)]
fn process_task_guarded(
    ctx: &SigmaCtx,
    c: &DistMatrix,
    sigma: &DistMatrix,
    ka: usize,
    rank: usize,
    bufs: &mut WorkBufs,
    stats: &mut CommStats,
    clock: &mut Clock,
    host: &mut HostSplit,
    plan: &FaultPlan,
) {
    let tracer = ctx.ddi.tracer();
    let mut attempt: u32 = 0;
    loop {
        let mut pending: Vec<(usize, Vec<f64>)> = Vec::new();
        process_task_into(
            ctx,
            c,
            ka,
            rank,
            bufs,
            stats,
            clock,
            host,
            &mut |col, vals, _st| pending.push((col, vals.to_vec())),
        );
        // An injected single-event upset strikes the working area after
        // the compute, before the commit (the plan caps attempts, so the
        // recompute loop terminates by construction).
        if plan.poison_task(attempt) {
            if let Some((_, vals)) = pending.first_mut() {
                plan.corrupt(Corruption::Nan, vals);
            }
            tracer.instant(
                Some(rank),
                "fault_injected",
                Category::Other,
                &[
                    ("kind", FaultKind::PoisonedTask.code()),
                    ("ka", ka as f64),
                    ("attempt", attempt as f64),
                ],
            );
        }
        let clean = pending
            .iter()
            .all(|(_, vals)| vals.iter().all(|v| v.is_finite()));
        if clean {
            for (col, vals) in &pending {
                sigma.acc_col(rank, *col, vals, stats);
            }
            host.lap(ACC);
            return;
        }
        // Column guard tripped: discard the whole task and redo it.
        plan.count_recompute();
        stats.backoff_ns += plan.backoff_ns(attempt);
        tracer.instant(
            Some(rank),
            "task_recompute",
            Category::Other,
            &[("ka", ka as f64), ("attempt", attempt as f64)],
        );
        attempt += 1;
    }
}

/// A persistent mixed-spin worker: owns one rank's working buffers,
/// statistics, and simulated clock across tasks, exactly like a real
/// worker holds its scratch area for the whole phase. The
/// `alloc_hotpath` test drives the task loop through it: after one
/// warm-up pass sizes the buffers, no task may touch the heap.
pub struct MixedWorker {
    bufs: WorkBufs,
    /// Communication charged to this worker so far.
    pub stats: CommStats,
    /// Simulated time charged to this worker so far.
    pub clock: Clock,
}

impl MixedWorker {
    /// Fresh worker with buffers sized for `ctx.space`.
    pub fn new(ctx: &SigmaCtx) -> MixedWorker {
        let space = ctx.space;
        let n = space.n_orb();
        let nq = n - (space.alpha.n_elec() - 1);
        MixedWorker {
            bufs: WorkBufs::new(space.beta.len(), nq, n, space.beta_nm1.len()),
            stats: CommStats::default(),
            clock: Clock::default(),
        }
    }

    /// Run one Kα family as `rank`, handing each α-column update to
    /// `sink` instead of accumulating into a σ matrix.
    // lint: allow(dead) — the hook the `alloc_hotpath` zero-allocation gate drives
    pub fn run_task(
        &mut self,
        ctx: &SigmaCtx,
        c: &DistMatrix,
        ka: usize,
        rank: usize,
        sink: &mut ColumnSink,
    ) {
        process_task_into(
            ctx,
            c,
            ka,
            rank,
            &mut self.bufs,
            &mut self.stats,
            &mut self.clock,
            &mut HostSplit::off(),
            sink,
        );
    }
}

/// Add the mixed-spin contribution `H_αβ · c` into `sigma`, both CI
/// vectors of `ctx.space`: the family's columns are gathered and
/// accumulated on their stored (in-sector) rows only.
pub fn mixed_spin_dgemm(ctx: &SigmaCtx, c: &DistMatrix, sigma: &DistMatrix) -> RunReport {
    let space = ctx.space;
    let model = ctx.model;
    super::assert_same_point_group(space, ctx.ham);
    let n = space.n_orb();
    let nbstr = space.beta.len();
    let nka = space.alpha_nm1.len();
    let nkb = space.beta_nm1.len();
    let nq = n - (space.alpha.n_elec() - 1);
    let nproc = ctx.ddi.nproc();
    let plan = ctx.ddi.faults();
    let pool = TaskPool::aggregated(nka, nproc, ctx.pool);
    ctx.ddi.reset_counter();
    let tracer = ctx.ddi.tracer();
    let host_start = tracer.now_us();
    if tracer.enabled() {
        let sizes = pool.sizes();
        tracer.counter(
            None,
            "pool_shape",
            &[
                ("tasks", sizes.len() as f64),
                ("largest", sizes.iter().copied().max().unwrap_or(0) as f64),
                ("smallest", sizes.iter().copied().min().unwrap_or(0) as f64),
            ],
        );
    }

    let report = match ctx.ddi.backend() {
        Backend::Serial => with_serial_bufs(nbstr, nq, n, nkb, |bufs| {
            // Deterministic simulation of self-scheduling: the rank whose
            // clock is lowest claims the next task (greedy list schedule).
            let mut clocks = vec![Clock::default(); nproc];
            let mut stats = vec![CommStats::default(); nproc];
            let mut hosts = vec![HostSplit::new(&tracer); nproc];
            for t in 0..pool.len() {
                let rank = argmin_clock(&clocks, model, &stats);
                // Claim through the real counter so traces and protocol
                // records see the same ddi_nxtval stream as the threaded
                // backend (the greedy argmin IS the claim order here, so
                // the counter hands back exactly `t`).
                let claimed = ctx.ddi.nxtval_rank(rank, &mut stats[rank]);
                debug_assert_eq!(claimed, t);
                tracer.instant(
                    Some(rank),
                    "task_grab",
                    Category::Other,
                    &[("task", t as f64), ("size", pool.task(t).len() as f64)],
                );
                for ka in pool.task(t) {
                    process_task(
                        ctx,
                        c,
                        sigma,
                        ka,
                        rank,
                        bufs,
                        &mut stats[rank],
                        &mut clocks[rank],
                        &mut hosts[rank],
                        plan.as_deref(),
                    );
                }
            }
            for (rank, host) in hosts.iter().enumerate() {
                host.emit(rank, "mixed_host_us", HOST_PARTS);
            }
            // Every rank's terminating counter probe.
            for (rank, st) in stats.iter_mut().enumerate() {
                let t = ctx.ddi.nxtval_rank(rank, st);
                debug_assert!(t >= pool.len());
            }
            for (ck, st) in clocks.iter_mut().zip(&stats) {
                charge_comm(ck, st, model);
            }
            RunReport::new(clocks)
        }),
        Backend::Threads => {
            let clocks = Mutex::new(vec![Clock::default(); nproc]);
            let stats_out = ctx.ddi.run(|rank, stats| {
                let mut clock = Clock::default();
                let mut bufs = WorkBufs::new(nbstr, nq, n, nkb);
                let mut host = HostSplit::new(&tracer);
                loop {
                    let t = ctx.ddi.nxtval_rank(rank, stats);
                    if t >= pool.len() {
                        break;
                    }
                    tracer.instant(
                        Some(rank),
                        "task_grab",
                        Category::Other,
                        &[("task", t as f64), ("size", pool.task(t).len() as f64)],
                    );
                    for ka in pool.task(t) {
                        process_task(
                            ctx,
                            c,
                            sigma,
                            ka,
                            rank,
                            &mut bufs,
                            stats,
                            &mut clock,
                            &mut host,
                            plan.as_deref(),
                        );
                    }
                }
                host.emit(rank, "mixed_host_us", HOST_PARTS);
                clocks.lock().unwrap()[rank] = clock;
            });
            let mut clocks = clocks.into_inner().unwrap_or_else(|e| e.into_inner());
            for (ck, st) in clocks.iter_mut().zip(&stats_out) {
                charge_comm(ck, st, model);
            }
            RunReport::new(clocks)
        }
    };
    finish_phase(
        &tracer,
        "alpha_beta",
        &report,
        host_start,
        tracer.now_us() - host_start,
    );
    report
}

/// Rank with the smallest simulated time so far (clock + comm implied by
/// its statistics, which have not been folded into the clock yet).
fn argmin_clock(clocks: &[Clock], model: &MachineModel, stats: &[CommStats]) -> usize {
    let mut best = 0;
    let mut bt = f64::INFINITY;
    for (r, ck) in clocks.iter().enumerate() {
        let mut trial = *ck;
        charge_comm(&mut trial, &stats[r], model);
        let t = trial.total();
        if t < bt {
            bt = t;
            best = r;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detspace::DetSpace;
    use crate::hamiltonian::random_hamiltonian;
    use crate::slater;
    use crate::taskpool::PoolParams;
    use fci_ddi::Ddi;
    use fci_xsim::MachineModel;

    /// Mixed-spin reference: Slater–Condon elements where both spins are
    /// singly excited, plus the αβ Coulomb pieces of diagonal and
    /// single-excitation elements.
    fn reference_mixed(
        space: &DetSpace,
        ham: &crate::hamiltonian::Hamiltonian,
        c: &[f64],
    ) -> Vec<f64> {
        let na = space.alpha.len();
        let nb = space.beta.len();
        let mut out = vec![0.0; na * nb];
        for ia in 0..na {
            let am = space.alpha.mask(ia);
            for ib in 0..nb {
                let bm = space.beta.mask(ib);
                for ja in 0..na {
                    let jam = space.alpha.mask(ja);
                    let da = (am ^ jam).count_ones() / 2;
                    if da > 1 {
                        continue;
                    }
                    for jb in 0..nb {
                        let jbm = space.beta.mask(jb);
                        let db = (bm ^ jbm).count_ones() / 2;
                        let v = match (da, db) {
                            (1, 1) => slater::element(ham, am, bm, jam, jbm),
                            (0, 0) if ia == ja && ib == jb => {
                                let mut acc = 0.0;
                                for &p in &fci_strings::occ_list(am) {
                                    for &q in &fci_strings::occ_list(bm) {
                                        acc += ham.eri.get(p, p, q, q);
                                    }
                                }
                                acc
                            }
                            (1, 0) if ib == jb => {
                                let p = fci_strings::occ_list(am & !jam)[0];
                                let q = fci_strings::occ_list(jam & !am)[0];
                                let (s1, m1) = fci_strings::annihilate(jam, q).unwrap();
                                let (s2, _) = fci_strings::create(m1, p).unwrap();
                                let mut acc = 0.0;
                                for &r in &fci_strings::occ_list(bm) {
                                    acc += ham.eri.get(p, q, r, r);
                                }
                                acc * (s1 * s2) as f64
                            }
                            (0, 1) if ia == ja => {
                                let p = fci_strings::occ_list(bm & !jbm)[0];
                                let q = fci_strings::occ_list(jbm & !bm)[0];
                                let (s1, m1) = fci_strings::annihilate(jbm, q).unwrap();
                                let (s2, _) = fci_strings::create(m1, p).unwrap();
                                let mut acc = 0.0;
                                for &r in &fci_strings::occ_list(am) {
                                    acc += ham.eri.get(p, q, r, r);
                                }
                                acc * (s1 * s2) as f64
                            }
                            _ => 0.0,
                        };
                        if v != 0.0 {
                            out[ib + ia * nb] += v * c[jb + ja * nb];
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn mixed_matches_slater_condon() {
        let ham = random_hamiltonian(5, 41);
        let space = DetSpace::c1(5, 2, 2);
        for nproc in [1usize, 4] {
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
            let mut seed = 5u64;
            c.map_inplace(|_, _, _| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
                ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            });
            let sigma = space.zeros_ci(nproc);
            mixed_spin_dgemm(&ctx, &c, &sigma);
            let reference = reference_mixed(&space, &ham, &c.to_dense());
            let got = sigma.to_dense();
            for (a, b) in got.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-11, "{a} vs {b} nproc={nproc}");
            }
        }
    }

    #[test]
    fn gather_acc_volume_matches_table1_model() {
        // Table 1: DGEMM α-β communication ≈ 3·Nci·Nα words (1× gather +
        // 2× accumulate), approached when nearly all columns are remote.
        let ham = random_hamiltonian(6, 3);
        let space = DetSpace::c1(6, 3, 2);
        let nproc = space.alpha.len();
        let ddi = Ddi::new(nproc, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = space.guess(&ham, nproc);
        let sigma = space.zeros_ci(nproc);
        let rep = mixed_spin_dgemm(&ctx, &c, &sigma);
        let nci = space.dim() as f64;
        let na = space.alpha.n_elec() as f64;
        let expect_words = 3.0 * nci * na;
        let got_words = rep.total_net_bytes() / 8.0;
        assert!(
            (got_words - expect_words).abs() < 0.2 * expect_words,
            "words {got_words} vs model {expect_words}"
        );
    }

    #[test]
    fn dynamic_schedule_balances_work() {
        // The simulated self-scheduling must spread the α-β work: no rank
        // may be idle while another holds more than two tasks' worth of
        // surplus (uniform task costs here).
        let ham = random_hamiltonian(8, 5);
        let space = DetSpace::c1(8, 3, 3);
        let p = 8;
        let ddi = Ddi::new(p, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = space.guess(&ham, p);
        let sigma = space.zeros_ci(p);
        let rep = mixed_spin_dgemm(&ctx, &c, &sigma);
        let times: Vec<f64> = rep.clocks.iter().map(|k| k.total()).collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min > 0.0, "an MSP sat completely idle: {times:?}");
        assert!(max < 3.0 * min, "imbalance too large: {times:?}");
    }

    #[test]
    fn mixed_phase_scales_with_processors() {
        let ham = random_hamiltonian(8, 9);
        let space = DetSpace::c1(8, 3, 3);
        let model = MachineModel::cray_x1();
        let mut t = Vec::new();
        for p in [2usize, 8] {
            let ddi = Ddi::new(p, Backend::Serial);
            let ctx = SigmaCtx {
                space: &space,
                ham: &ham,
                ddi: &ddi,
                model: &model,
                pool: PoolParams::default(),
            };
            let c = space.guess(&ham, p);
            let sigma = space.zeros_ci(p);
            t.push(mixed_spin_dgemm(&ctx, &c, &sigma).elapsed());
        }
        assert!(t[1] < 0.5 * t[0], "mixed-spin speedup 2→8 too small: {t:?}");
    }
}
