//! `fcix` — the FCI program: one binary, one subcommand per task.
//!
//! ```text
//! fcix run <INPUT | --demo>                     one calculation from an input file
//! fcix batch [options] <jobs.jsonl | ->         a batch through the fci-serve scheduler
//! fcix server --listen ADDR --wal FILE [options]  the durable TCP/JSONL job server
//! fcix client --client ADDR --jobs FILE [options] submit to a server, collect results
//! fcix trace <summarize|to-chrome|flame|metrics|diff> ...  inspect a JSONL trace
//! fcix chaos [options]                          the solver under seeded fault schedules
//! ```
//!
//! Each subcommand's module documents its input and options: `run.rs`,
//! `serve.rs` (`batch`, `server`, `client`), `trace.rs`, `chaos.rs`.
//! Exit status: 0 success, 1 failure, 2 bad usage. `batch`, `server`
//! and `client` also exit 2 when an input file cannot be read or parsed.

mod chaos;
mod run;
mod serve;
mod trace;

use std::collections::HashMap;
use std::process::ExitCode;
use std::str::FromStr;

use fcix::obs::JsonValue;
use fcix::serve::JobSpec;

const USAGE: &str = "\
usage: fcix <command> [args]

commands:
  run <INPUT | --demo>                          one FCI calculation from an input file
  batch [options] <jobs.jsonl | ->              run a batch of jobs through the scheduler
  server --listen ADDR --wal FILE [options]     durable TCP/JSONL job server
  client --client ADDR --jobs FILE [options]    submit jobs to a server, collect results
  trace summarize <trace.jsonl>                 Table 3: span time, traffic, GF/s
  trace to-chrome <trace.jsonl> [out.json]      Chrome Trace Event Format
  trace flame [--host] <trace.jsonl> [out]      collapsed stacks (simulated time, or host)
  trace metrics <trace.jsonl>                   fault and serve tallies, metrics text
  trace diff <a.jsonl> <b.jsonl>                compare two runs' summaries
  chaos [--schedules N] [--seed S] [--nproc P] [--json FILE]
                                                solves under seeded fault schedules
";

/// Why a subcommand stopped before finishing its work.
pub(crate) enum Error {
    /// Bad arguments: the message, then the usage text; exit 2.
    Usage(String),
    /// The work failed: the message; exit 1.
    Failed(String),
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let rest: Vec<String> = argv.collect();
    let result = if rest.iter().any(|a| a == "-h" || a == "--help") {
        Err(Error::Usage(String::new()))
    } else {
        let args = Args(rest.into_iter());
        match cmd.as_str() {
            "run" => run::main(args).map_err(Error::Failed),
            "batch" => serve::batch(args).map_err(Error::Usage),
            "server" => serve::server(args).map_err(Error::Usage),
            "client" => serve::client(args).map_err(Error::Usage),
            "trace" => trace::main(args),
            "chaos" => chaos::main(args),
            _ => Err(Error::Usage(String::new())),
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(Error::Failed(e)) => {
            eprintln!("fcix {cmd}: {e}");
            ExitCode::FAILURE
        }
        Err(Error::Usage(e)) => {
            if !e.is_empty() {
                eprintln!("fcix {cmd}: {e}");
            }
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The arguments after the subcommand, read flag by flag.
pub(crate) struct Args(std::vec::IntoIter<String>);

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

impl Args {
    /// The value following `flag`.
    pub(crate) fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed.
    pub(crate) fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("bad number `{v}`"))
    }
}

/// The JSON objects of a JSONL file (`-` reads stdin), one per line that
/// is neither blank nor a `#` comment, each with its 1-based line number.
fn read_jsonl(path: &str) -> Result<Vec<(usize, JsonValue)>, String> {
    let text = if path == "-" {
        std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };
    let mut values = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        values.push((i + 1, v));
    }
    Ok(values)
}

/// Job specs, one JSON object per line (see `examples/serve_jobs6.jsonl`
/// and DESIGN.md §12). A file with no jobs is an error.
pub(crate) fn read_jobs(path: &str) -> Result<Vec<JobSpec>, String> {
    let jobs = read_jsonl(path)?
        .iter()
        .map(|(n, v)| JobSpec::from_json(v).map_err(|e| format!("{path}:{n}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    if jobs.is_empty() {
        return Err(format!("{path}: no jobs"));
    }
    Ok(jobs)
}

/// Reference energies, one `{"id", "energy"}` object per line.
pub(crate) fn read_refs(path: &str) -> Result<HashMap<String, f64>, String> {
    read_jsonl(path)?
        .iter()
        .map(|(n, v)| {
            let id = v
                .get("id")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("{path}:{n}: ref needs `id`"))?;
            let energy = v
                .get_f64("energy")
                .ok_or_else(|| format!("{path}:{n}: ref needs `energy`"))?;
            Ok((id.to_string(), energy))
        })
        .collect()
}

/// Whether job `id`'s `energy` is within `tol` of its reference `want`;
/// a miss (or a NaN) prints one `verify:` line.
pub(crate) fn verify(id: &str, energy: f64, want: f64, tol: f64) -> bool {
    let err = (energy - want).abs();
    if err <= tol {
        return true;
    }
    eprintln!("verify: {id}: energy {energy:.12} differs from reference {want:.12} by {err:.3e}");
    false
}

/// Write `text` to `dest`, or print it to stdout when there is none.
pub(crate) fn write_out(text: &str, dest: Option<&str>) -> Result<(), String> {
    match dest {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Replace `path` atomically (tmp file + rename), so a concurrent reader
/// (a tailer, a scraper serving the file) never sees a torn file.
pub(crate) fn write_atomic(path: &str, text: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("cannot write {tmp}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot replace {path}: {e}"))
}
