//! `fcix-perf update-refs`: compute the references of every parameter
//! point and write `refs.json` — but only when, at every point, two
//! independent routes agree to [`AGREEMENT`] and every route reports
//! `converged`:
//!
//! * C2: AutoAdjust against Davidson, and one rank against 432;
//! * 10-site Hubbard: block-Davidson root 0 against a single-root solve;
//! * 8-site Hubbard: dense Davidson against CDFCI (selected CI, which
//!   truncates by design, must land inside its own gate).
//!
//! Exact counts (σ evaluations, simulated times, DDI traffic, sparse
//! supports) are stored beside the energies so that a run can say when
//! one moved.

use fci_core::{solve_prepared, DiagMethod, DiagOptions, FciOptions};

use crate::dense;
use crate::inputs::{jitter_of_point, N_POINTS};
use crate::refs::PointRefs;
use crate::span::Spans;
use crate::sparse;

/// Two routes to one energy must agree to this, hartree.
pub const AGREEMENT: f64 = 1e-7;

fn agree(what: &str, a: f64, b: f64, tol: f64) -> Result<(), String> {
    if (a - b).abs() <= tol {
        Ok(())
    } else {
        Err(format!(
            "{what}: routes disagree, {a:.12} vs {b:.12} ({:.3e} Ha > {tol:e})",
            (a - b).abs()
        ))
    }
}

fn need(what: &str, converged: bool) -> Result<(), String> {
    if converged {
        Ok(())
    } else {
        Err(format!("{what}: did not converge"))
    }
}

/// Single-root Davidson at a residual that pins the energy to ~1e-12.
fn davidson(prep: &dense::Prepared) -> (f64, bool) {
    let opts = FciOptions {
        method: DiagMethod::Davidson,
        diag: DiagOptions {
            max_iter: 300,
            tol: 1e-6,
            ..DiagOptions::default()
        },
        ..FciOptions::default()
    };
    let r = solve_prepared(&prep.space, &prep.ham, &opts);
    (r.energy, r.converged)
}

/// References of one parameter point; `say` reports progress.
pub fn point_refs(point: usize, say: &mut dyn FnMut(String)) -> Result<PointRefs, String> {
    let u = jitter_of_point(point);
    let mut refs = PointRefs::default();
    refs.set("point", point as f64);
    refs.set("u", u);
    let off = &mut Spans::off();

    // C2: AutoAdjust on one rank, Davidson, AutoAdjust on 432 ranks.
    let n1 = dense::case("dense_c2").expect("declared workload");
    let n432 = dense::case("x1_sim432").expect("declared workload");
    let prep = dense::set_up(&n1, u, off);
    refs.set("c2.dim", prep.space.dim() as f64);
    refs.set("c2.sector_dim", prep.space.sector_dim() as f64);
    let a = dense::solve_once(&n1, &prep, &dense::options(&n1));
    need("c2 AutoAdjust", a.converged)?;
    let (e_dav, conv) = davidson(&prep);
    need("c2 Davidson", conv)?;
    agree("c2 AutoAdjust vs Davidson", a.energies[0], e_dav, AGREEMENT)?;
    let x = dense::solve_once(&n432, &prep, &dense::options(&n432));
    need("c2 on 432 ranks", x.converged)?;
    agree(
        "c2 one rank vs 432",
        a.energies[0],
        x.energies[0],
        dense::RANK_AGREEMENT_GATE,
    )?;
    refs.set("c2.energy", a.energies[0]);
    refs.set("c2.energy_davidson", e_dav);
    for (case, solved) in [(&n1, &a), (&n432, &x)] {
        for (name, v) in dense::exact_counts(solved) {
            refs.set(&format!("{}.{name}", case.key), v);
        }
    }
    say(format!(
        "point {point}: c2 E = {:.10}, sector {}, {} sigma",
        a.energies[0],
        prep.space.sector_dim(),
        a.iterations
    ));

    // 10-site Hubbard: two roots in a block, root 0 alone.
    let roots = dense::case("dense_roots").expect("declared workload");
    let prep = dense::set_up(&roots, u, off);
    refs.set("h10.dim", prep.space.dim() as f64);
    let b = dense::solve_once(&roots, &prep, &dense::options(&roots));
    need("h10 block Davidson", b.converged)?;
    let (e_single, conv) = davidson(&prep);
    need("h10 single-root Davidson", conv)?;
    agree(
        "h10 block root 0 vs single root",
        b.energies[0],
        e_single,
        AGREEMENT,
    )?;
    for (k, e) in b.energies.iter().enumerate() {
        refs.set(&format!("h10.energy{k}"), *e);
    }
    refs.set("h10.energy0_single", e_single);
    for (name, v) in dense::exact_counts(&b) {
        refs.set(&format!("{}.{name}", roots.key), v);
    }
    say(format!(
        "point {point}: h10 E = {:?}, {} sigma",
        b.energies, b.iterations
    ));

    // 8-site Hubbard: dense Davidson, CDFCI, selected CI.
    let prep = sparse::set_up(u, off);
    let (e_dense, conv) = davidson(&prep);
    need("h8 dense Davidson", conv)?;
    refs.set("h8.energy", e_dense);
    for name in ["sparse_cdfci", "sparse_selected"] {
        let case = sparse::case(name).expect("declared workload");
        let r = sparse::solve_once(&case, &prep);
        need(name, r.converged)?;
        let tol = match case.engine {
            sparse::Engine::Cdfci => AGREEMENT,
            sparse::Engine::Selected => case.gate,
        };
        agree(&format!("h8 dense vs {name}"), e_dense, r.energy(), tol)?;
        refs.set(&format!("{}.energy", case.key), r.energy());
        for (count, v) in sparse::exact_counts(&r) {
            refs.set(&format!("{}.{count}", case.key), v);
        }
        say(format!(
            "point {point}: {name} E = {:.10} (dense {e_dense:.10}), {} iterations",
            r.energy(),
            r.iterations
        ));
    }
    Ok(refs)
}

/// References of every point, in order.
pub fn all_points(say: &mut dyn FnMut(String)) -> Result<Vec<PointRefs>, String> {
    (0..N_POINTS).map(|p| point_refs(p, say)).collect()
}
