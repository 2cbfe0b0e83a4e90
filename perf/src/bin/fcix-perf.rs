//! `fcix-perf` — the repository's benchmark.
//!
//! ```text
//! fcix-perf --workload <w> --seed <n> --seconds <s> --trace <0|1>   (the driver's form)
//! fcix-perf run   --workload <w> [--seed N] [--seconds S]
//! fcix-perf trace --workload <w> [--seed N] [--pairs P]
//! fcix-perf list
//! fcix-perf noise [--workload <w>] [--runs R] [--seed N] [--seconds S]
//! fcix-perf update-refs
//! ```
//!
//! One process per workload, so `peak_rss_mb` and the GEMM arena and
//! thread-local pack caches start equal. The last line of standard
//! output of `run`, `trace` and the driver's form is the result object.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fcix_perf::metrics::{self, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use fcix_perf::{noise, refgen, refs, span};

/// Default measuring time of a run, seconds (`run_seconds` of
/// `BENCHMARK.json`).
const RUN_SECONDS: f64 = 22.0;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag} needs a number, got `{text}`")),
        }
    }

    fn workload(&self) -> Result<&str, String> {
        let w = self
            .value("--workload")
            .ok_or("--workload <name> is required")?;
        if metrics::is_workload(w) {
            Ok(w)
        } else {
            Err(format!("no workload `{w}` (try `fcix-perf list`)"))
        }
    }
}

/// `perf/out`, found from the working directory the driver promises
/// (the checkout's root), else beside this package's manifest.
fn out_dir() -> PathBuf {
    if Path::new("perf/Cargo.toml").is_file() {
        PathBuf::from("perf/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// A scratch directory under `perf/out`, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Print notes, the metrics as text and the result line; fail on a
/// value that is not a finite number or a metric nobody declared.
fn report(defs: &[MetricDef], out: &metrics::Outcome) -> Result<(), String> {
    for note in &out.notes {
        eprintln!("note: {note}");
    }
    let stray = out.values.undeclared(defs);
    if !stray.is_empty() {
        return Err(format!("undeclared metrics measured: {stray:?}"));
    }
    if let Some(d) = defs
        .iter()
        .find(|d| !out.values.get(d.name).unwrap_or(0.0).is_finite())
    {
        return Err(format!("metric {} is not a finite number", d.name));
    }
    print!("{}", metrics::text_lines(defs, out));
    println!("attempted {} failed {}", out.attempted, out.failed);
    println!("{}", metrics::result_line(defs, out));
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let workload = args.workload()?;
    let seed = args.number("--seed", 1u64)?;
    let seconds = args.number("--seconds", RUN_SECONDS)?;
    let scratch = Scratch::new()?;
    let out = fcix_perf::run(workload, seed, seconds, &scratch.0)?;
    report(&END_TO_END, &out)
}

fn cmd_trace(args: &Args, default_pairs: usize) -> Result<(), String> {
    let workload = args.workload()?;
    let seed = args.number("--seed", 1u64)?;
    let pairs = args.number("--pairs", default_pairs)?;
    let scratch = Scratch::new()?;
    let (out, spans) = fcix_perf::trace(workload, seed, pairs, &scratch.0)?;
    let path = out_dir().join(format!("trace-{workload}.jsonl"));
    std::fs::write(&path, spans.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} spans to {}", spans.spans().len(), path.display());
    println!("{}", span::breakdown_table(spans.spans()));
    report(&PER_LAYER, &out)
}

fn cmd_list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name}: {why}");
    }
    println!("end-to-end metrics (every workload, untraced run):");
    for d in END_TO_END {
        println!(
            "  {} [{}], {} is better, bound {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.unwrap_or(0.0)
        );
    }
    println!("per-layer metrics (traced run; 0 = the workload never enters that layer):");
    for d in PER_LAYER {
        println!(
            "  {} [{}], {}{}",
            d.name,
            d.unit,
            d.better.as_str(),
            if d.exact { ", exact" } else { "" }
        );
    }
}

/// Run this binary again and return the metrics of its result line.
fn child(args: &[String]) -> Result<(Vec<(String, f64)>, usize), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child {args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    noise::parse_result_line(text.lines().last().ok_or("child printed nothing")?)
}

fn cmd_noise(args: &Args) -> Result<bool, String> {
    let runs = args.number("--runs", 5usize)?.max(2);
    let seed = args.number("--seed", 1u64)?;
    let seconds = args.number("--seconds", RUN_SECONDS)?;
    let only = args.value("--workload");
    let mut all_ok = true;
    for (workload, _) in WORKLOADS
        .iter()
        .filter(|(w, _)| only.is_none_or(|o| o == *w))
    {
        // Two sets of `runs`, one after the other: A, then B.
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for _ in 0..runs {
                let (metrics, failed) = child(&[
                    "run".into(),
                    "--workload".into(),
                    workload.to_string(),
                    "--seed".into(),
                    seed.to_string(),
                    "--seconds".into(),
                    seconds.to_string(),
                ])?;
                if failed > 0 {
                    return Err(format!("{workload}: {failed} failed operations"));
                }
                set.push(metrics);
            }
        }
        println!("{workload}: {runs} + {runs} runs, seed {seed}");
        println!(
            "  {:<12} {:>12} {:>25} {:>12} {:>8} {:>8} {:>6}",
            "metric", "median A", "quartiles A", "median B", "spread", "A vs B", "bound"
        );
        for def in &END_TO_END {
            let column = |set: &Vec<Vec<(String, f64)>>| -> Vec<f64> {
                set.iter()
                    .filter_map(|m| m.iter().find(|(n, _)| n == def.name).map(|(_, v)| *v))
                    .collect()
            };
            let row = noise::compare(def, &column(&sets[0]), &column(&sets[1]));
            let ok = row.within_bound();
            all_ok &= ok;
            println!(
                "  {:<12} {:>12.6} {:>12.6}..{:<11.6} {:>12.6} {:>7.2}% {:>7.2}% {:>5.0}% {}",
                row.metric,
                row.medians[0],
                row.quartiles[0].0,
                row.quartiles[0].1,
                row.medians[1],
                100.0 * row.spread,
                100.0 * row.difference,
                100.0 * row.bound,
                if ok { "" } else { "EXCEEDS BOUND" }
            );
        }
        // Exact metrics must repeat bit for bit from one traced run to
        // the next.
        let trace_args = [
            "trace".to_string(),
            "--workload".into(),
            workload.to_string(),
            "--seed".into(),
            seed.to_string(),
            "--pairs".into(),
            "1".into(),
        ];
        let (a, _) = child(&trace_args)?;
        let (b, _) = child(&trace_args)?;
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let get = |m: &[(String, f64)]| m.iter().find(|(n, _)| n == def.name).map(|(_, v)| *v);
            if get(&a).map(f64::to_bits) != get(&b).map(f64::to_bits) {
                all_ok = false;
                println!(
                    "  exact metric {} differs between traced runs: {:?} vs {:?}",
                    def.name,
                    get(&a),
                    get(&b)
                );
            }
        }
        println!("  exact metrics: compared over two traced runs");
    }
    Ok(all_ok)
}

fn cmd_update_refs() -> Result<(), String> {
    let points = refgen::all_points(&mut |line| eprintln!("{line}"))?;
    std::fs::write(refs::PATH, refs::render(&points))
        .map_err(|e| format!("cannot write {}: {e}", refs::PATH))?;
    println!(
        "wrote {} points to {}; rebuild to compile them in",
        points.len(),
        refs::PATH
    );
    Ok(())
}

fn main() -> ExitCode {
    // Every solve is single-threaded: the GEMM worker count is read once
    // per process, before any thread exists, so this is the one place
    // to pin it. See README, "Noise".
    std::env::set_var("FCIX_GEMM_THREADS", "1");
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("run") => cmd_run(&args),
        Some("trace") => cmd_trace(&args, 5),
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("noise") => match cmd_noise(&args) {
            Ok(true) => Ok(()),
            Ok(false) => Err("noise: a difference exceeds its bound".into()),
            Err(e) => Err(e),
        },
        Some("update-refs") => cmd_update_refs(),
        // The driver's form: no subcommand, `--trace` chooses the run.
        Some(flag) if flag.starts_with("--") => match args.value("--trace") {
            Some("0") => cmd_run(&args),
            Some("1") => cmd_trace(&args, 1),
            _ => Err("--trace 0|1 is required".into()),
        },
        _ => Err("usage: fcix-perf run|trace|list|noise|update-refs (see perf/README.md)".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fcix-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
