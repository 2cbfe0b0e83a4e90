//! Driving the simulated Cray-X1 directly: one σ evaluation of each
//! algorithm on a chosen virtual MSP count, with the full per-routine
//! simulated-time and communication breakdown.
//!
//! ```text
//! cargo run --release --example cray_x1_simulation -- [msps] [--trace out.jsonl]
//! ```
//!
//! With `--trace`, every σ phase is recorded as per-MSP spans in JSONL;
//! inspect the file with `fcix trace summarize` / `to-chrome`.

use fcix::core::{apply_sigma, random_hamiltonian, DetSpace, PoolParams, SigmaCtx, SigmaMethod};
use fcix::ddi::{Backend, Ddi};
use fcix::obs::ObsConfig;
use fcix::xsim::MachineModel;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let msps: usize = args.iter().find_map(|a| a.parse().ok()).unwrap_or(64);
    // A synthetic 12-orbital, 4α+4β problem (245 025 determinants).
    let ham = random_hamiltonian(12, 2024);
    let space = DetSpace::c1(12, 4, 4);
    let ddi = Ddi::new(msps, Backend::Serial);
    let model = MachineModel::cray_x1();
    let obs = match &trace_path {
        Some(p) => ObsConfig::to_file(p),
        None => ObsConfig::off(),
    };
    let tracer = obs.tracer().expect("cannot open trace output");
    ddi.attach_tracer(tracer.clone());
    let ctx = SigmaCtx {
        space: &space,
        ham: &ham,
        ddi: &ddi,
        model: &model,
        pool: PoolParams::default(),
    };
    let c = space.guess(&ham, msps);

    println!(
        "σ = H·C on {} determinants over {msps} virtual Cray-X1 MSPs\n",
        space.dim()
    );
    for (name, method) in [
        ("DGEMM (paper)", SigmaMethod::Dgemm),
        ("MOC (baseline)", SigmaMethod::Moc),
    ] {
        // lint: allow(wallclock) — example compares host time to simulated time
        let t0 = std::time::Instant::now();
        let (_sigma, bd) = apply_sigma(&ctx, &c, method);
        let host = t0.elapsed().as_secs_f64();
        let total = bd.total();
        println!("{name}");
        println!(
            "  beta-beta   : {:>9.4} s  ({:.2} GF/MSP)",
            bd.beta_beta.elapsed(),
            bd.beta_beta.gflops_per_msp()
        );
        println!(
            "  alpha-alpha : {:>9.4} s  ({:.2} GF/MSP)",
            bd.alpha_alpha.elapsed(),
            bd.alpha_alpha.gflops_per_msp()
        );
        println!(
            "  alpha-beta  : {:>9.4} s  ({:.2} GF/MSP)",
            bd.alpha_beta.elapsed(),
            bd.alpha_beta.gflops_per_msp()
        );
        println!("  transpose   : {:>9.4} s", bd.transpose.elapsed());
        println!(
            "  TOTAL       : {:>9.4} s simulated, {:.2} GF/MSP, {:.3} TF aggregate",
            total.elapsed(),
            total.gflops_per_msp(),
            total.tflops()
        );
        println!(
            "  network     : {:.2} MB moved, load imbalance {:.4} s",
            total.total_net_bytes() / 1e6,
            bd.alpha_beta.load_imbalance()
        );
        println!("  (host wall-clock for the real computation: {host:.2} s)\n");
    }
    println!("note: both algorithms produce bitwise-equivalent σ vectors; only the");
    println!("kernel shapes — and therefore the simulated X1 cost — differ.");
    tracer.flush();
    if let Some(p) = trace_path {
        println!("\ntrace written to {p} — try: fcix trace summarize {p}");
    }
}
