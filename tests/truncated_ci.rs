//! Truncated CI (CISD/CISDT) through the excitation-filtered sector:
//! correctness against dense diagonalization of the truncated block, the
//! variational hierarchy, and the classic size-consistency failure.

use fcix::core::{slater, solve, DetSpace, DiagMethod, FciOptions, Hamiltonian};
use fcix::ints::{BasisSet, Molecule};
use fcix::linalg::{eigh, Matrix};
use fcix::scf::{active_space, MoIntegrals, Orbitals};

/// All-electron, all-orbital integrals of `mol` / STO-3G in converged
/// RHF orbitals, with the RHF energy.
fn rhf_mo(mol: &Molecule) -> (MoIntegrals, f64) {
    let a = active_space(
        mol,
        &BasisSet::build(mol, "sto-3g"),
        Orbitals::Rhf,
        0,
        None,
        false,
    );
    let (e_rhf, _) = a.scf.expect("RHF converges");
    (a.mo, e_rhf)
}

fn h2_mo(r: f64) -> (MoIntegrals, f64) {
    rhf_mo(&Molecule::from_symbols_bohr(
        &[("H", [0.0, 0.0, 0.0]), ("H", [0.0, 0.0, r])],
        0,
    ))
}

/// Two H2 molecules separated by `d` along x, bond length 1.4.
fn h2_dimer_mo(d: f64) -> MoIntegrals {
    rhf_mo(&Molecule::from_symbols_bohr(
        &[
            ("H", [0.0, 0.0, 0.0]),
            ("H", [0.0, 0.0, 1.4]),
            ("H", [d, 0.0, 0.0]),
            ("H", [d, 0.0, 1.4]),
        ],
        0,
    ))
    .0
}

#[test]
fn cisd_equals_fci_for_two_electrons() {
    // With 2 electrons, doubles already span the full space.
    let (mo, _) = h2_mo(1.4);
    let fci = solve(&mo, 1, 1, 0, &FciOptions::default());
    let cisd = solve(
        &mo,
        1,
        1,
        0,
        &FciOptions {
            excitation_level: Some(2),
            ..Default::default()
        },
    );
    assert!(fci.converged && cisd.converged);
    assert!((fci.energy - cisd.energy).abs() < 1e-9);
    assert_eq!(cisd.sector_dim, fci.sector_dim);
}

#[test]
fn variational_hierarchy_hf_cisd_fci() {
    let mo = h2_dimer_mo(6.0);
    let opts = |lvl: Option<u32>| FciOptions {
        excitation_level: lvl,
        method: DiagMethod::Davidson,
        ..Default::default()
    };
    let cis = solve(&mo, 2, 2, 0, &opts(Some(1)));
    let cisd = solve(&mo, 2, 2, 0, &opts(Some(2)));
    let cisdt = solve(&mo, 2, 2, 0, &opts(Some(3)));
    let fci = solve(&mo, 2, 2, 0, &opts(None));
    assert!(cis.converged && cisd.converged && cisdt.converged && fci.converged);
    // Larger variational space ⇒ lower (or equal) energy, strictly lower
    // from CIS (no correlation by Brillouin) to CISD.
    assert!(cisd.energy < cis.energy - 1e-6);
    assert!(cisdt.energy <= cisd.energy + 1e-10);
    assert!(fci.energy <= cisdt.energy + 1e-10);
    // Dimensions shrink with truncation.
    assert!(cis.sector_dim < cisd.sector_dim);
    assert!(cisd.sector_dim < fci.sector_dim);
}

#[test]
fn cisd_matches_dense_truncated_block() {
    // Reference: diagonalize H restricted to the CISD determinants.
    let mo = h2_dimer_mo(3.0);
    let ham = Hamiltonian::new(&mo);
    let cisd = solve(
        &mo,
        2,
        2,
        0,
        &FciOptions {
            excitation_level: Some(2),
            method: DiagMethod::Davidson,
            ..Default::default()
        },
    );
    assert!(cisd.converged);

    // Build the same filtered space and the dense block.
    let space0 = DetSpace::for_hamiltonian(&ham, 2, 2, 0);
    let mut best = (f64::INFINITY, 0u64, 0u64);
    for ia in 0..space0.alpha.len() {
        for ib in 0..space0.beta.len() {
            let d = ham.diagonal_element(space0.alpha.mask(ia), space0.beta.mask(ib));
            if d < best.0 {
                best = (d, space0.alpha.mask(ia), space0.beta.mask(ib));
            }
        }
    }
    let space = space0.with_excitation_limit(best.1, best.2, 2);
    let h = slater::dense_h(&space, &ham);
    let nb = space.beta.len();
    let idx: Vec<usize> = (0..space.dim())
        .filter(|&i| space.in_sector(i % nb, i / nb))
        .collect();
    assert_eq!(idx.len(), cisd.sector_dim);
    let hs = Matrix::from_fn(idx.len(), idx.len(), |i, j| h[(idx[i], idx[j])]);
    let exact = eigh(&hs).eigenvalues[0] + ham.e_core;
    assert!(
        (cisd.energy - exact).abs() < 1e-8,
        "{} vs {exact}",
        cisd.energy
    );
}

#[test]
fn cisd_size_consistency_failure() {
    // The textbook defect: E_CISD(A…B) > E_CISD(A) + E_CISD(B) for two
    // noninteracting fragments, while FCI is exactly additive.
    let (mo_single, _) = h2_mo(1.4);
    let far = 60.0;
    let mo_dimer = h2_dimer_mo(far);

    let e1_fci = solve(&mo_single, 1, 1, 0, &FciOptions::default()).energy;
    let e2_fci = solve(
        &mo_dimer,
        2,
        2,
        0,
        &FciOptions {
            method: DiagMethod::Davidson,
            ..Default::default()
        },
    )
    .energy;
    assert!(
        (e2_fci - 2.0 * e1_fci).abs() < 1e-5,
        "FCI must be size-consistent: {} vs {}",
        e2_fci,
        2.0 * e1_fci
    );

    let e1_cisd = solve(
        &mo_single,
        1,
        1,
        0,
        &FciOptions {
            excitation_level: Some(2),
            ..Default::default()
        },
    )
    .energy;
    let e2_cisd = solve(
        &mo_dimer,
        2,
        2,
        0,
        &FciOptions {
            excitation_level: Some(2),
            method: DiagMethod::Davidson,
            ..Default::default()
        },
    )
    .energy;
    let defect = e2_cisd - 2.0 * e1_cisd;
    assert!(
        defect > 1e-4,
        "CISD should NOT be size-consistent; defect = {defect}"
    );
}

/// `fcix run` on `input` (the built-in demo when `None`) in a fresh
/// temporary directory, where an input's `checkpoint` file lands.
/// Returns the run's stdout; panics unless the run succeeds.
fn fcix_run(name: &str, input: Option<&str>) -> String {
    let dir = std::env::temp_dir().join(format!("fcix-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_fcix"));
    cmd.arg("run").current_dir(&dir);
    match input {
        Some(text) => {
            std::fs::write(dir.join("input.inp"), text).expect("write input");
            cmd.arg("input.inp");
        }
        None => {
            cmd.arg("--demo");
        }
    }
    let out = cmd.output().expect("spawn fcix");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "fcix run {name} failed:\n{stdout}");
    stdout
}

/// The text of `examples/inputs/NAME`.
fn shipped_input(name: &str) -> String {
    let path = format!("{}/examples/inputs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `fcix run` with `ci cisd` and `roots 2` lists the states of the CISD
/// space: root 0 is the single-root CISD energy, not the full-FCI one.
#[test]
fn cli_roots_stay_in_the_truncated_space() {
    let input = format!("{}roots 2\n", shipped_input("water_cisd.inp"));
    let stdout = fcix_run("cisd-roots", Some(&input));
    // The first number on the line that starts with `prefix`.
    let energy = |prefix: &str| -> f64 {
        let line = stdout
            .lines()
            .map(str::trim_start)
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"));
        line.split_whitespace()
            .find_map(|w| w.parse().ok())
            .expect("energy")
    };
    let (single, root0) = (energy("E(CISD)"), energy("root 0:"));
    assert!(
        (root0 - single).abs() <= 1e-10,
        "root 0 {root0} vs single-root CISD {single}"
    );
}

/// `fcix run` succeeds on the built-in demo and on every input under
/// `examples/inputs/`, and prints each one's energy line digit for digit.
#[test]
fn cli_runs_every_shipped_input() {
    const PINS: [(&str, &str); 4] = [
        ("--demo", "E(FCI)            : -75.0125592780 Eh"),
        ("water_fci.inp", "E(FCI)            : -75.0125592780 Eh"),
        ("water_cisd.inp", "E(CISD)           : -75.0118537254 Eh"),
        (
            "o_atom_triplet.inp",
            "E(FCI)            : -73.9344636276 Eh",
        ),
    ];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/inputs");
    for entry in std::fs::read_dir(dir).expect("list inputs") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            PINS.iter().any(|(pinned, _)| *pinned == name),
            "examples/inputs/{name} has no pinned energy line"
        );
    }
    for (name, line) in PINS {
        let input = (name != "--demo").then(|| shipped_input(name));
        let stdout = fcix_run(name.trim_start_matches('-'), input.as_deref());
        assert!(
            stdout.lines().any(|l| l == line),
            "{name}: no `{line}` in:\n{stdout}"
        );
    }
}
