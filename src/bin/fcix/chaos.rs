//! `fcix chaos` — run the solver under seeded fault schedules and check
//! that it heals.
//!
//! ```text
//! fcix chaos [--schedules N] [--seed S] [--nproc P] [--json out.json]
//!
//!   --schedules N   fault schedules to run (default 10)
//!   --seed S        base seed the schedules derive from (default 1)
//!   --nproc P       virtual MSPs (default 4)
//!   --json FILE     also write a JSON report
//! ```
//!
//! Each schedule derives a deterministic [`FaultConfig`] from the base
//! seed (cycling through transient comm faults, data corruption,
//! poisoned σ tasks, rank death, and a mixed storm), runs a full
//! small-molecule solve through `solve_resilient` with the race detector
//! online, and checks the recovery invariants: converged, energy within
//! 1e-9 of the fault-free reference, zero races. Exit status is nonzero
//! if any schedule breaks one. `--json` writes a machine-readable report
//! (one object per schedule) for CI artifacts.

use std::sync::Arc;
use std::time::Instant;

use fcix::check::RaceDetector;
use fcix::core::{solve, solve_resilient, FciOptions, RecoveryOptions};
use fcix::ddi::{Backend, CheckConfig, FaultConfig, RankDeath};
use fcix::fault::Xorshift64;
use fcix::scf::MoIntegrals;

use crate::{write_out, Args, Error};

/// The schedule categories, cycled over by index.
const CATEGORIES: [&str; 5] = ["drops", "dups+stalls", "corrupt", "poison", "rank-death"];

/// Derive schedule `i`'s fault config from the base seed.
fn schedule(i: usize, base_seed: u64, nproc: usize) -> (String, FaultConfig) {
    let mut rng = Xorshift64::new(base_seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9));
    let seed = rng.next_u64();
    let jitter = |rng: &mut Xorshift64| 0.02 + 0.08 * rng.next_f64();
    let quiet = FaultConfig::quiet(seed);
    let category = CATEGORIES[i % CATEGORIES.len()];
    let cfg = match category {
        "drops" => FaultConfig {
            p_drop: jitter(&mut rng),
            ..quiet
        },
        "dups+stalls" => FaultConfig {
            p_duplicate: jitter(&mut rng),
            p_stall: 0.03,
            p_fence_delay: 0.03,
            ..quiet
        },
        "corrupt" => FaultConfig {
            p_corrupt: jitter(&mut rng),
            ..quiet
        },
        "poison" => FaultConfig {
            p_poison: 0.02 + 0.03 * rng.next_f64(),
            ..quiet
        },
        _ => FaultConfig {
            // Death in a storm: every transient class plus a killed rank.
            p_drop: 0.03,
            p_duplicate: 0.03,
            p_corrupt: 0.03,
            rank_death: Some(RankDeath {
                rank: (rng.next_u64() as usize) % nproc,
                after_ops: 300 + (rng.next_u64() % 900),
            }),
            ..quiet
        },
    };
    (category.to_string(), cfg)
}

struct Row {
    name: String,
    seed: u64,
    injected: u64,
    retries: u64,
    recomputes: u64,
    restarts: usize,
    err: f64,
    races: usize,
    ms: f64,
    ok: bool,
}

fn run(n_schedules: usize, base_seed: u64, nproc: usize) -> Vec<Row> {
    let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
    let opts = |p: usize| FciOptions {
        nproc: p,
        method: fcix::core::DiagMethod::Davidson,
        diag: fcix::core::DiagOptions {
            max_iter: 150,
            model_space: 24,
            ..Default::default()
        },
        ..Default::default()
    };
    let reference = solve(&mo, 2, 2, 0, &opts(nproc));
    assert!(reference.converged, "fault-free reference did not converge");
    let dir = std::env::temp_dir().join(format!("fcix-chaos-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);

    (0..n_schedules)
        .map(|i| {
            let (category, cfg) = schedule(i, base_seed, nproc);
            let seed = cfg.seed;
            let name = format!("{i:02}-{category}");
            let detector = Arc::new(RaceDetector::new());
            let mut o = opts(nproc);
            o.backend = Backend::Threads;
            o.fault = Some(cfg);
            o.check = CheckConfig::online(detector.clone());
            let ckp = dir.join(format!("{name}.ckp"));
            let _ = std::fs::remove_file(&ckp);
            // lint: allow(wallclock) — host-side harness timing, not simulated time
            let t0 = Instant::now();
            let result = solve_resilient(&mo, 2, 2, 0, &o, &RecoveryOptions::new(&ckp));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok(r) => {
                    let err = (r.fci.energy - reference.energy).abs();
                    let races = detector.races().len();
                    let ok = r.fci.converged && err <= 1e-9 && races == 0;
                    Row {
                        name,
                        seed,
                        injected: r.fault_stats.injected(),
                        retries: r.fault_stats.retries,
                        recomputes: r.fault_stats.recomputes,
                        restarts: r.restarts,
                        err,
                        races,
                        ms,
                        ok,
                    }
                }
                Err(e) => {
                    eprintln!("fcix chaos: schedule {name}: {e}");
                    Row {
                        name,
                        seed,
                        injected: 0,
                        retries: 0,
                        recomputes: 0,
                        restarts: 0,
                        err: f64::INFINITY,
                        races: 0,
                        ms,
                        ok: false,
                    }
                }
            }
        })
        .collect()
}

fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "schedule          seed                 inj  retry  recomp  restart  |dE|       races  ms      verdict\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16}  {:<20} {:>4}  {:>5}  {:>6}  {:>7}  {:<9.2e}  {:>5}  {:>6.1}  {}\n",
            r.name,
            r.seed,
            r.injected,
            r.retries,
            r.recomputes,
            r.restarts,
            r.err,
            r.races,
            r.ms,
            if r.ok { "healed" } else { "FAILED" },
        ));
    }
    out
}

fn to_json(rows: &[Row]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"schedule\":\"{}\",\"seed\":{},\"faults_injected\":{},\"retries\":{},\
                 \"recomputes\":{},\"restarts\":{},\"energy_err\":{:e},\"races\":{},\
                 \"ms\":{:.3},\"healed\":{}}}",
                r.name,
                r.seed,
                r.injected,
                r.retries,
                r.recomputes,
                r.restarts,
                r.err,
                r.races,
                r.ms,
                r.ok
            )
        })
        .collect();
    format!("[\n  {}\n]\n", items.join(",\n  "))
}

pub(crate) fn main(mut args: Args) -> Result<bool, Error> {
    let (mut n_schedules, mut seed, mut nproc) = (10usize, 1u64, 4usize);
    let mut json: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schedules" => n_schedules = args.num(&arg).map_err(Error::Usage)?,
            "--seed" => seed = args.num(&arg).map_err(Error::Usage)?,
            "--nproc" => nproc = args.num(&arg).map_err(Error::Usage)?,
            "--json" => json = Some(args.value(&arg).map_err(Error::Usage)?),
            other => return Err(Error::Usage(format!("unknown option {other}"))),
        }
    }
    if nproc == 0 {
        return Err(Error::Usage("--nproc must be at least 1".into()));
    }

    let rows = run(n_schedules, seed, nproc);
    print!("{}", render(&rows));
    let healed = rows.iter().filter(|r| r.ok).count();
    println!("{healed}/{} schedules healed", rows.len());
    if let Some(path) = json {
        write_out(&to_json(&rows), Some(&path)).map_err(Error::Failed)?;
        eprintln!("wrote {path}");
    }
    Ok(healed == rows.len())
}
