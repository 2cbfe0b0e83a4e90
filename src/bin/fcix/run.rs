//! `fcix run` — one FCI calculation from an input file.
//!
//! ```text
//! fcix run INPUT_FILE
//! fcix run --demo      # built-in water demo input (also with no argument)
//! ```
//!
//! Input format (one directive per line, `#` comments):
//!
//! ```text
//! # water, frozen-core FCI
//! charge 0
//! basis sto-3g            # sto-3g | svp
//! unit bohr               # bohr | angstrom
//! atom O 0.0  0.0    0.0
//! atom H 0.0  1.4305 1.1092
//! atom H 0.0 -1.4305 1.1092
//! frozen 1                # doubly occupied orbitals folded into the core
//! active 6                # active orbitals (omit for all)
//! alpha 4                 # active-space alpha electrons
//! beta 4
//! method auto             # auto | davidson | two_vector | olsen | olsen_damped
//! sigma dgemm             # dgemm | moc
//! symmetry on             # on | off
//! msps 16                 # virtual Cray-X1 MSP count
//! tol 1e-9                # residual convergence threshold
//! maxiter 60
//! ci full                 # full | cis | cisd | cisdt | cisdtq
//! roots 1                 # lowest states to compute (block Davidson if > 1)
//! checkpoint water.ckp    # optional: save the converged CI vector
//! ```
//!
//! The orbitals follow `fci_scf::Orbitals::Rhf`: closed-shell RHF when the
//! molecule's electron count is even (open-shell states included), core-
//! Hamiltonian orbitals when it is odd or the SCF does not converge.
//! A `checkpoint` path is relative to the working directory.
//!
//! The energy line is labelled with the CI level (`E(FCI)`, `E(CISD)`,
//! …); with `roots` > 1 the listed states are those of the same
//! truncated space. Exit status 1 when the input is bad or the solve
//! does not converge.

use fcix::core::{
    build_space, lowest_det_irrep, s_squared, save_ci, solve_prepared, solve_roots_prepared,
    DiagMethod, DiagOptions, FciOptions, Hamiltonian, SigmaMethod,
};
use fcix::ints::{BasisSet, Molecule};
use fcix::scf::{active_space, Orbitals};

use crate::Args;

/// The `ci` directive's levels and their excitation limits; the energy
/// line is labelled with the level's name.
const CI_LEVELS: [(&str, Option<u32>); 5] = [
    ("fci", None),
    ("cis", Some(1)),
    ("cisd", Some(2)),
    ("cisdt", Some(3)),
    ("cisdtq", Some(4)),
];

const DEMO: &str = "\
charge 0
basis sto-3g
unit bohr
atom O 0.0  0.0    0.0
atom H 0.0  1.4305 1.1092
atom H 0.0 -1.4305 1.1092
frozen 1
active 6
alpha 4
beta 4
method auto
symmetry on
msps 8
tol 1e-9
";

struct Input {
    charge: i32,
    basis: String,
    unit: String,
    atoms: Vec<(String, [f64; 3])>,
    frozen: usize,
    active: Option<usize>,
    alpha: Option<usize>,
    beta: Option<usize>,
    method: DiagMethod,
    sigma: SigmaMethod,
    symmetry: bool,
    msps: usize,
    tol: f64,
    maxiter: usize,
    excitation: Option<u32>,
    roots: usize,
    checkpoint: Option<String>,
}

fn parse(text: &str) -> Result<Input, String> {
    let mut inp = Input {
        charge: 0,
        basis: "sto-3g".into(),
        unit: "bohr".into(),
        atoms: Vec::new(),
        frozen: 0,
        active: None,
        alpha: None,
        beta: None,
        method: DiagMethod::AutoAdjust,
        sigma: SigmaMethod::Dgemm,
        symmetry: true,
        msps: 1,
        tol: 1e-9,
        maxiter: 60,
        excitation: None,
        roots: 1,
        checkpoint: None,
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap().trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let key = it.next().unwrap().to_ascii_lowercase();
        let rest: Vec<&str> = it.collect();
        let one = |r: &[&str]| -> Result<String, String> {
            if r.len() == 1 {
                Ok(r[0].to_string())
            } else {
                Err(format!("line {}: expected one value for {key}", lineno + 1))
            }
        };
        match key.as_str() {
            "charge" => inp.charge = one(&rest)?.parse().map_err(|e| format!("charge: {e}"))?,
            "basis" => inp.basis = one(&rest)?,
            "unit" => inp.unit = one(&rest)?.to_ascii_lowercase(),
            "atom" => {
                if rest.len() != 4 {
                    return Err(format!("line {}: atom SYMBOL X Y Z", lineno + 1));
                }
                let xyz: Result<Vec<f64>, _> = rest[1..].iter().map(|s| s.parse()).collect();
                let xyz = xyz.map_err(|e| format!("line {}: {e}", lineno + 1))?;
                inp.atoms
                    .push((rest[0].to_string(), [xyz[0], xyz[1], xyz[2]]));
            }
            "frozen" => inp.frozen = one(&rest)?.parse().map_err(|e| format!("frozen: {e}"))?,
            "active" => inp.active = Some(one(&rest)?.parse().map_err(|e| format!("active: {e}"))?),
            "alpha" => inp.alpha = Some(one(&rest)?.parse().map_err(|e| format!("alpha: {e}"))?),
            "beta" => inp.beta = Some(one(&rest)?.parse().map_err(|e| format!("beta: {e}"))?),
            "method" => {
                let name = one(&rest)?;
                inp.method =
                    DiagMethod::from_name(&name).ok_or(format!("unknown method {name}"))?;
            }
            "sigma" => {
                inp.sigma = match one(&rest)?.as_str() {
                    "dgemm" => SigmaMethod::Dgemm,
                    "moc" => SigmaMethod::Moc,
                    other => return Err(format!("unknown sigma algorithm {other}")),
                }
            }
            "symmetry" => inp.symmetry = matches!(one(&rest)?.as_str(), "on" | "true" | "yes"),
            "msps" => inp.msps = one(&rest)?.parse().map_err(|e| format!("msps: {e}"))?,
            "tol" => inp.tol = one(&rest)?.parse().map_err(|e| format!("tol: {e}"))?,
            "maxiter" => inp.maxiter = one(&rest)?.parse().map_err(|e| format!("maxiter: {e}"))?,
            "ci" => {
                let level = one(&rest)?;
                let name = if level == "full" {
                    "fci"
                } else {
                    level.as_str()
                };
                inp.excitation = CI_LEVELS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or_else(|| format!("unknown CI level {level}"))?
                    .1;
            }
            "roots" => inp.roots = one(&rest)?.parse().map_err(|e| format!("roots: {e}"))?,
            "checkpoint" => inp.checkpoint = Some(one(&rest)?),
            other => return Err(format!("line {}: unknown directive {other}", lineno + 1)),
        }
    }
    if inp.atoms.is_empty() {
        return Err("no atoms given".into());
    }
    Ok(inp)
}

fn calculate(inp: &Input) -> Result<(), String> {
    let atoms: Vec<(&str, [f64; 3])> = inp.atoms.iter().map(|(s, p)| (s.as_str(), *p)).collect();
    let mol = match inp.unit.as_str() {
        "bohr" => Molecule::from_symbols_bohr(&atoms, inp.charge),
        "angstrom" => Molecule::from_symbols_angstrom(&atoms, inp.charge),
        other => return Err(format!("unknown unit {other}")),
    };
    let basis = BasisSet::build(&mol, &inp.basis);
    let nelec = mol.n_electrons();
    println!(
        "molecule          : {} atoms, charge {}, {nelec} electrons",
        mol.atoms.len(),
        inp.charge
    );
    println!(
        "basis             : {} ({} Cartesian AOs)",
        inp.basis,
        basis.n_basis()
    );
    let a = active_space(
        &mol,
        &basis,
        Orbitals::Rhf,
        inp.frozen,
        inp.active,
        inp.symmetry,
    );
    match a.scf {
        Some((e, iterations)) => {
            println!("RHF energy        : {e:+.8} Eh ({iterations} iterations)")
        }
        None if nelec % 2 == 0 => println!(
            "RHF did not converge; falling back to core orbitals (FCI is orbital-invariant)"
        ),
        None => println!("odd electron count: using core-Hamiltonian orbitals"),
    }
    if inp.symmetry {
        println!("point group       : {} ({} irreps)", a.group, a.mo.n_irrep);
    }
    let n_act_elec = nelec - 2 * inp.frozen;
    let na = inp.alpha.unwrap_or(n_act_elec.div_ceil(2));
    let nb = inp.beta.unwrap_or(n_act_elec - na);
    println!(
        "active space      : {n_act_elec} electrons ({na}α, {nb}β) in {} orbitals",
        a.mo.n_orb
    );

    let opts = FciOptions {
        nproc: inp.msps,
        sigma: inp.sigma,
        method: inp.method,
        diag: DiagOptions {
            tol: inp.tol,
            max_iter: inp.maxiter,
            ..Default::default()
        },
        ..Default::default()
    };
    // One Hamiltonian and one (possibly truncated) space serve the
    // irrep choice, the single-root solve and the roots.
    let ham = Hamiltonian::new(&a.mo);
    let irrep = lowest_det_irrep(&ham, na, nb);
    let space = build_space(&ham, na, nb, irrep, inp.excitation);
    let r = solve_prepared(&space, &ham, &opts);
    println!("CI dimension      : {} (sector {})", r.dim, r.sector_dim);
    println!(
        "iterations        : {} (converged = {})",
        r.iterations, r.converged
    );
    let level = CI_LEVELS
        .iter()
        .find(|(_, l)| *l == inp.excitation)
        .map_or("fci", |(n, _)| n)
        .to_ascii_uppercase();
    println!("{:<18}: {:+.10} Eh", format!("E({level})"), r.energy);
    if let Some((e, _)) = a.scf {
        println!("correlation energy: {:+.8} Eh", r.energy - e);
    }
    let total = r.sigma_cost.total();
    println!(
        "simulated X1 cost : {:.3} s over {} MSPs ({:.2} GF/MSP, {:.3} TF aggregate)",
        total.elapsed(),
        inp.msps,
        total.gflops_per_msp(),
        total.tflops()
    );
    if inp.roots > 1 {
        let roots = solve_roots_prepared(
            &space,
            &ham,
            &FciOptions {
                diag: DiagOptions {
                    tol: inp.tol.max(1e-7),
                    ..opts.diag
                },
                ..opts
            },
            inp.roots,
        );
        println!("\nlowest {} states (block Davidson):", inp.roots);
        for k in 0..inp.roots {
            let s2 = s_squared(&space, &roots.states[k]);
            println!(
                "  root {k}: E = {:+.10} Eh  (ΔE = {:+.6}, <S^2> = {:.3}, {})",
                roots.energies[k],
                roots.e_elec[k] - roots.e_elec[0],
                s2,
                if roots.converged[k] {
                    "converged"
                } else {
                    "NOT converged"
                }
            );
        }
    }
    if let Some(path) = &inp.checkpoint {
        save_ci(std::path::Path::new(path), &r.diag.c).map_err(|e| format!("checkpoint: {e}"))?;
        println!("checkpoint        : wrote {path}");
    }
    if !r.converged {
        return Err("FCI did not converge".into());
    }
    Ok(())
}

pub(crate) fn main(mut args: Args) -> Result<bool, String> {
    let text = match args.next() {
        Some(path) if path != "--demo" => {
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        _ => {
            println!("(no input file given — running the built-in water demo)\n");
            DEMO.to_string()
        }
    };
    calculate(&parse(&text)?)?;
    Ok(true)
}
