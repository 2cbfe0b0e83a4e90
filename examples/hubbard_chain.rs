//! FCI as a lattice-model solver: the 1-D Hubbard chain.
//!
//! ```text
//! cargo run --release --example hubbard_chain -- [sites] [U]
//! ```
//!
//! The FCI machinery is basis-agnostic — any `MoIntegrals` works. Here we
//! build nearest-neighbour hopping + on-site repulsion integrals directly
//! and sweep the interaction strength, watching the crossover from the
//! tight-binding band limit (U = 0, exactly summable) toward the
//! Heisenberg limit.

use fcix::core::{solve, DiagMethod, DiagOptions, FciOptions};
use fcix::linalg::eigh;
use fcix::scf::MoIntegrals;

fn main() {
    let sites: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let umax: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8.0);
    let ne = sites / 2; // quarter-ish filling per spin -> half filling total
    println!("1-D Hubbard chain, {sites} sites, {ne}α + {ne}β electrons (open boundary)\n");
    println!("{:>8} {:>16} {:>14}", "U/t", "E0 [t]", "E0/site [t]");

    // U = 0 reference: fill the lowest single-particle levels twice.
    let mo0 = MoIntegrals::hubbard_chain(sites, 1.0, 0.0, false);
    let band = eigh(&mo0.h).eigenvalues;
    let e_band: f64 = 2.0 * band[..ne].iter().sum::<f64>();

    let mut unconverged = false;
    for u in (0..)
        .map(|k| 2.0 * k as f64)
        .take_while(|&u| u <= umax + 1e-9)
    {
        let mo = MoIntegrals::hubbard_chain(sites, 1.0, u, false);
        // Lattice diagonals are highly degenerate: use the Davidson
        // subspace method (the single-vector schemes presume a dominant
        // reference determinant — fine for molecules, not for lattices).
        // The residual stalls near 1e-9 on 10- and 12-site chains, so the
        // tolerance sits above that floor.
        let opts = FciOptions {
            method: DiagMethod::Davidson,
            diag: DiagOptions {
                max_iter: 200,
                tol: 1e-8,
                model_space: 50,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = solve(&mo, ne, ne, 0, &opts);
        if !r.converged {
            let res = r.residual_history.last().copied().unwrap_or(f64::NAN);
            let its = r.iterations;
            println!("{u:>8.1}  not converged: {its} iterations, residual {res:.2e}");
            unconverged = true;
            continue;
        }
        println!(
            "{u:>8.1} {:>16.8} {:>14.6}",
            r.energy,
            r.energy / sites as f64
        );
        if u == 0.0 {
            assert!(
                (r.energy - e_band).abs() < 1e-6,
                "U=0 must reproduce the band sum"
            );
        }
    }
    if unconverged {
        std::process::exit(1);
    }
    println!("\nU = 0 band-theory check: Σ 2ε_i = {e_band:.8} t ✓");
    println!("CI dimension: {}", {
        let nc = fcix::strings::binomial(sites, ne);
        nc * nc
    });
}
