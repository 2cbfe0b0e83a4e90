//! The two sparse workloads on the 8-site Hubbard space (4,900
//! determinants): `sparse_cdfci` and `sparse_selected`. Same inputs,
//! same store and connection generator, two different consumers.

use fci_core::{DetSpace, Hamiltonian};
use fci_sparse::kernel;
use fci_sparse::{
    exc_element, solve_cdfci, solve_selected, CoefMap, ConnGen, Det, DetSet, Exc, SparseOptions,
    SparseResult,
};

use crate::clock::timed;
use crate::dense::{space_layers, Prepared};
use crate::inputs::{self, SplitMix};
use crate::machine;
use crate::metrics::{Outcome, Values};
use crate::refs::{self, PointRefs};
use crate::runner::{self, overhead, probe, probe_batch};
use crate::span::Spans;

/// Which sparse solver a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `solve_cdfci`, tol 1e-9.
    Cdfci,
    /// `solve_selected`, eps 1e-4, tol 1e-8.
    Selected,
}

/// One sparse workload.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    /// Workload name.
    pub name: &'static str,
    /// Solver.
    pub engine: Engine,
    /// Energy gate against the converged dense reference, hartree.
    pub gate: f64,
    /// Prefix of this workload's keys in `refs.json`.
    pub key: &'static str,
}

/// The sparse workload called `name`.
pub fn case(name: &str) -> Option<Case> {
    match name {
        "sparse_cdfci" => Some(Case {
            name: "sparse_cdfci",
            engine: Engine::Cdfci,
            gate: 1e-6,
            key: "h8.cdfci",
        }),
        "sparse_selected" => Some(Case {
            name: "sparse_selected",
            engine: Engine::Selected,
            gate: 1e-5,
            key: "h8.selected",
        }),
        _ => None,
    }
}

/// Sites of the Hubbard chain both workloads solve.
pub const SITES: usize = 8;

/// Inputs → prepared problem: the whole of `setup_s`.
pub fn set_up(u: f64, spans: &mut Spans) -> Prepared {
    let problem = spans.scope("serve.spec_build", |_| inputs::hubbard_problem(SITES, u));
    Prepared::of(problem, spans)
}

/// The workload's unit of work: one solve, single-threaded.
pub fn solve_once(case: &Case, prep: &Prepared) -> SparseResult {
    let opts = match case.engine {
        Engine::Cdfci => SparseOptions {
            tol: 1e-9,
            threads: 1,
            ..SparseOptions::default()
        },
        Engine::Selected => SparseOptions {
            eps: 1e-4,
            tol: 1e-8,
            threads: 1,
            ..SparseOptions::default()
        },
    };
    match case.engine {
        Engine::Cdfci => solve_cdfci(&prep.space, &prep.ham, &opts),
        Engine::Selected => solve_selected(&prep.space, &prep.ham, &opts),
    }
}

/// The exact counts of a solve, under per-layer metric names.
pub fn exact_counts(r: &SparseResult) -> Vec<(&'static str, f64)> {
    vec![
        ("sparse.iterations", r.iterations as f64),
        ("sparse.support", r.support as f64),
        ("sparse.rounds", r.history.len() as f64),
        ("sparse.peak_bytes", r.peak_bytes as f64),
    ]
}

/// Reasons `r` counts as a failed operation (empty = it passed).
pub fn failures(case: &Case, r: &SparseResult, refs: &PointRefs) -> Vec<String> {
    let mut why = Vec::new();
    if !r.converged {
        why.push(format!("{}: did not converge", case.name));
    }
    match refs.get("h8.energy") {
        Some(e) if (r.energy() - e).abs() <= case.gate => {}
        Some(e) => why.push(format!(
            "{}: energy {:.10} is {:.3e} Ha from the dense reference {e:.10} (gate {:e})",
            case.name,
            r.energy(),
            (r.energy() - e).abs(),
            case.gate
        )),
        None => why.push(format!("{}: refs.json has no `h8.energy`", case.name)),
    }
    why
}

fn check_all(case: &Case, results: &[&SparseResult], refs: &PointRefs, out: &mut Outcome) {
    let why = results.iter().map(|r| failures(case, r, refs)).collect();
    let counts: Vec<_> = results.iter().map(|r| exact_counts(r)).collect();
    runner::judge_repetitions(out, case.name, case.key, why, &counts, refs);
}

/// The untraced run: set-up, timed repetitions, checks, end-to-end
/// metrics.
pub fn run(case: &Case, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (u, refs) = refs::for_seed(seed)?;
    let (reps, setups) = runner::measure(
        seconds,
        || set_up(u, &mut Spans::off()),
        |prep| solve_once(case, prep),
    );
    let mut out = Outcome::default();
    let results: Vec<&SparseResult> = reps.iter().map(|(r, _)| r).collect();
    check_all(case, &results, &refs, &mut out);
    let times: Vec<f64> = reps.iter().map(|(_, t)| *t).collect();
    runner::book_end_to_end(&mut out, &setups, &times)?;
    Ok(out)
}

/// The traced run: set-up and solve under spans, then store, connection
/// generator and kernels called on the workload's own space.
pub fn trace(case: &Case, seed: u64, spans: &mut Spans) -> Result<Outcome, String> {
    let (u, refs) = refs::for_seed(seed)?;
    let mut out = Outcome::default();

    let prep = spans.scope("setup", |sp| set_up(u, sp));
    let (solved, traced_s) = spans.scope(&format!("solve.{}", case.name), |_| {
        timed(|| solve_once(case, &prep))
    });
    let (_, plain_s) = timed(|| solve_once(case, &prep));
    check_all(case, &[&solved], &refs, &mut out);
    let v = &mut out.values;
    v.set("perf.span_overhead_frac", overhead(traced_s, plain_s));
    for (name, x) in exact_counts(&solved) {
        v.set(name, x);
    }
    v.set(
        "sparse.us_per_update",
        1e6 * plain_s / solved.iterations.max(1) as f64,
    );
    if let Some(e) = refs.get("h8.energy") {
        v.set("sparse.energy_err_uha", 1e6 * (solved.energy() - e).abs());
    }
    space_layers(&prep, v, spans);
    store_layers(&prep.space, v, spans);
    connection_layers(&prep.space, &prep.ham, v, spans);
    machine::ceilings(v, spans);
    if case.engine == Engine::Selected {
        // The inner Davidson collapses at 3·nroots + 9 vectors.
        v.set("linalg.eigh_s", machine::eigh_seconds(12, spans));
    }
    Ok(out)
}

/// Every determinant of the sector, in canonical order.
pub fn sector_dets(space: &DetSpace) -> Vec<Det> {
    let mut dets = Vec::with_capacity(space.sector_dim());
    for ia in 0..space.alpha.len() {
        for ib in 0..space.beta.len() {
            if space.in_sector(ib, ia) {
                dets.push(Det::new(space.alpha.mask(ia), space.beta.mask(ib)));
            }
        }
    }
    dets.sort_unstable();
    dets
}

/// Entries of the out-of-cache probe table: 2²⁰ × 33 B ≈ 50 MiB of
/// slots, an order of magnitude past the 4 MiB L2.
pub const BIG_STORE: usize = 1 << 20;

/// `sparse.store.*`: insert, hit and miss on a table the size of the
/// workload's sector, and hits on a table far larger than L2.
fn store_layers(space: &DetSpace, v: &mut Values, spans: &mut Spans) {
    let mut dets = sector_dets(space);
    // Probe in an order unrelated to slot order.
    let mut rng = SplitMix::new(7);
    for i in (1..dets.len()).rev() {
        dets.swap(i, rng.below(i + 1));
    }
    let n = dets.len() as f64;
    let insert_s = probe(spans, "sparse.store.insert", || {
        let mut map = CoefMap::with_capacity(dets.len());
        for &d in &dets {
            map.slot_or_insert(d);
        }
        map
    });
    v.set("sparse.store.insert_ns", 1e9 * insert_s / n);
    let mut map = CoefMap::with_capacity(dets.len());
    for &d in &dets {
        map.slot_or_insert(d);
    }
    let hit_s = probe_batch(spans, "sparse.store.probe_hit", 20, || {
        dets.iter().filter(|&&d| map.find(d).is_some()).count()
    });
    v.set("sparse.store.probe_hit_ns", 1e9 * hit_s / n);
    // Bit 40 is beyond any orbital: these keys are never present.
    let absent: Vec<Det> = dets.iter().map(|d| Det::new(d.a | 1 << 40, d.b)).collect();
    let miss_s = probe_batch(spans, "sparse.store.probe_miss", 20, || {
        absent.iter().filter(|&&d| map.find(d).is_some()).count()
    });
    v.set("sparse.store.probe_miss_ns", 1e9 * miss_s / n);

    let mut big = CoefMap::with_capacity(BIG_STORE);
    let key = |k: u64| Det::new(k, k.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 24);
    for k in 0..BIG_STORE as u64 {
        big.slot_or_insert(key(k));
    }
    let wanted: Vec<Det> = (0..1 << 16)
        .map(|_| key(rng.below(BIG_STORE) as u64))
        .collect();
    let big_s = probe(spans, "sparse.store.probe_big", || {
        wanted.iter().filter(|&&d| big.find(d).is_some()).count()
    });
    v.set(
        "sparse.store.probe_big_ns",
        1e9 * big_s / wanted.len() as f64,
    );

    // Gradient scan over the sector-sized table's slots.
    for (i, pair) in map.vals_mut().iter_mut().enumerate() {
        *pair = [1.0 / (1 + i) as f64, -0.5 / (2 + i) as f64];
    }
    let (flags, _, vals) = map.slots();
    let scan_s = probe_batch(spans, "sparse.kernel.scan", 50, || {
        kernel::scan_gradient(flags, vals, -4.2, 0, flags.len())
    });
    v.set(
        "sparse.kernel.scan_ns_per_slot",
        1e9 * scan_s / flags.len() as f64,
    );
}

/// `sparse.conn.*` and the CSR mat-vec: connections of every
/// determinant of the sector, their Slater–Condon elements, and
/// `spmv_rows` over the sector's Hamiltonian.
fn connection_layers(space: &DetSpace, ham: &Hamiltonian, v: &mut Values, spans: &mut Spans) {
    let dets = sector_dets(space);
    let cut = SparseOptions::default().h_cut;
    let mut gen = ConnGen::for_space(space);
    let mut emitted = 0usize;
    let gen_s = probe(spans, "sparse.conn.gen", || {
        emitted = 0;
        for &d in &dets {
            gen.for_each_connection(ham, d, cut, |_, _| emitted += 1);
        }
    });
    v.set("sparse.conn.count", emitted as f64);
    v.set("sparse.conn.gen_ns", 1e9 * gen_s / emitted.max(1) as f64);

    // Elements alone: enumerate first, then time `exc_element`.
    let mut all: Vec<(Det, Exc)> = Vec::new();
    let mut excs = Vec::new();
    for &d in &dets {
        gen.excitations_into(d, &mut excs);
        all.extend(excs.iter().map(|&e| (d, e)));
    }
    let element_s = probe(spans, "sparse.conn.element", || {
        all.iter()
            .map(|&(d, e)| exc_element(ham, d, e))
            .sum::<f64>()
    });
    v.set(
        "sparse.conn.element_ns",
        1e9 * element_s / all.len().max(1) as f64,
    );

    // CSR of the sector's off-diagonal Hamiltonian, rows in set order.
    let set = DetSet::from_vec(dets.clone());
    let mut rowptr = vec![0usize];
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for &d in set.as_slice() {
        gen.for_each_connection(ham, d, cut, |to, h| {
            if let Some(j) = set.rank(to) {
                cols.push(j as u32);
                vals.push(h);
            }
        });
        rowptr.push(cols.len());
    }
    let diag: Vec<f64> = set
        .as_slice()
        .iter()
        .map(|d| ham.diagonal_element(d.a, d.b))
        .collect();
    let x: Vec<f64> = (0..set.len()).map(|i| 1.0 / (1 + i) as f64).collect();
    let mut y = vec![0.0; set.len()];
    let spmv_s = probe_batch(spans, "sparse.kernel.spmv", 50, || {
        kernel::spmv_rows(&rowptr, &cols, &vals, &diag, &x, 0, &mut y)
    });
    v.set(
        "sparse.kernel.spmv_ns_per_nnz",
        1e9 * spmv_s / (cols.len() + diag.len()) as f64,
    );
}
