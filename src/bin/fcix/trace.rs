//! `fcix trace` — inspect JSONL traces written by the `fci-obs` tracer.
//!
//! ```text
//! fcix trace summarize <trace.jsonl>            Table 3: span time, traffic, GF/s
//! fcix trace to-chrome <trace.jsonl> [out.json] Chrome Trace Event Format
//! fcix trace flame [--host] <trace.jsonl> [out] collapsed stacks (flamegraph)
//! fcix trace metrics <trace.jsonl>              fault and serve tallies, metrics text
//! fcix trace diff <a.jsonl> <b.jsonl>           side-by-side summary diff
//! ```
//!
//! Traces are produced by running the solver with
//! `FciOptions { obs: ObsConfig::to_file("trace.jsonl"), .. }` (or by
//! attaching a tracer to a `Ddi` directly; see DESIGN.md §Observability).
//! The Chrome output loads in `chrome://tracing` / Perfetto with one lane
//! per virtual MSP. `summarize` rolls up spans only (the paper's Table 3);
//! the instants — injected faults, recomputes, rank deaths, jobs, cache
//! hits — roll up in `metrics`. The `flame` output feeds any
//! collapsed-stack consumer (`flamegraph.pl`, speedscope, inferno). Flame
//! weights are simulated time by default, host wall-clock with `--host`.
//!
//! A truncated final line (crashed run) is tolerated with a warning;
//! corruption anywhere else, and traces with no parsable events at all,
//! are diagnosed without panicking.

use fcix::obs::{
    parse_jsonl_lenient, to_chrome, to_collapsed, Event, MetricsRegistry, RunSummary, TimeBase,
};

use crate::{write_out, Args, Error};

/// Read and parse a trace, tolerating a truncated final record. An
/// unreadable file, mid-file corruption, or a trace with zero parsable
/// events is a diagnosed error, never a panic.
fn load(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (events, warning) = parse_jsonl_lenient(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(w) = warning {
        eprintln!("fcix trace: warning: {path}: {w}");
    }
    if events.is_empty() {
        return Err(format!(
            "{path}: no trace events (empty or fully truncated trace)"
        ));
    }
    Ok(events)
}

/// Write to `dest` (announcing it on stderr), or print to stdout.
fn emit(out: &str, dest: Option<&String>) -> Result<(), String> {
    write_out(out, dest.map(String::as_str))?;
    if let Some(dest) = dest {
        eprintln!("wrote {dest}");
    }
    Ok(())
}

pub(crate) fn main(args: Args) -> Result<bool, Error> {
    let usage = || Error::Usage(String::new());
    let mut args: Vec<String> = args.collect();
    if args.is_empty() {
        return Err(usage());
    }
    let cmd = args.remove(0);
    let mut base = TimeBase::Sim;
    if cmd == "flame" {
        if args.iter().any(|a| a == "--host") {
            base = TimeBase::Host;
        }
        args.retain(|a| a != "--host" && a != "--sim");
    }
    let path = args.first().ok_or_else(usage)?;
    let result = match cmd.as_str() {
        "summarize" => load(path).map(|events| {
            print!("{}", RunSummary::from_events(&events).render(path));
        }),
        "to-chrome" => load(path).and_then(|events| {
            let out = to_chrome(&events);
            match args.get(1) {
                Some(dest) => emit(&out, Some(dest)),
                None => {
                    println!("{out}");
                    Ok(())
                }
            }
        }),
        "flame" => load(path).and_then(|events| {
            let folded = to_collapsed(&events, base);
            if folded.is_empty() {
                return Err(format!("{path}: no spans to fold (instants-only trace)"));
            }
            emit(&folded, args.get(1))
        }),
        "metrics" => load(path).map(|events| {
            print!("{}", MetricsRegistry::from_events(&events).render_text());
        }),
        "diff" => {
            let b = args.get(1).ok_or_else(usage)?;
            load(path).and_then(|ea| {
                load(b).map(|eb| {
                    let (sa, sb) = (RunSummary::from_events(&ea), RunSummary::from_events(&eb));
                    print!("{}", sa.render_diff(&sb));
                })
            })
        }
        _ => return Err(usage()),
    };
    result.map(|()| true).map_err(Error::Failed)
}
