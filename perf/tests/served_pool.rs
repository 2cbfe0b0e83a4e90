//! Every random-integral recipe the served pool may draw is one the
//! bare solver gets right: `solve_prepared` with the served jobs' own
//! options lands on the explicit-Hamiltonian oracle's ground state. If
//! the solver's guess or convergence logic changes which recipes it
//! gets right, this is where it shows.

use fci_core::{build_space, solve_prepared, Hamiltonian};
use fci_serve::ProblemSpec;
use fcix_perf::inputs::{served_jobs, VETTED_RANDOM_4, VETTED_RANDOM_6};
use fcix_perf::served::oracle;

#[test]
fn the_bare_solver_matches_the_oracle_on_every_vetted_recipe() {
    let options = served_jobs(1, "t")[0].fci_options();
    let recipes = VETTED_RANDOM_4
        .iter()
        .map(|&seed| (4, seed))
        .chain(VETTED_RANDOM_6.iter().map(|&seed| (6, seed)));
    for (n_orb, seed) in recipes {
        let spec = ProblemSpec::Random { n_orb, seed };
        let n_elec = n_orb / 2;
        let expected = oracle(&[(spec.clone(), n_elec)])[0];
        let ham = Hamiltonian::new(&spec.build());
        let space = build_space(&ham, n_elec, n_elec, 0, None);
        let r = solve_prepared(&space, &ham, &options);
        assert!(r.converged, "{spec:?} did not converge");
        assert!(
            (r.energy - expected).abs() <= 1e-9,
            "{spec:?}: solver {} vs oracle {expected}",
            r.energy
        );
    }
}
