//! `fcix batch`, `fcix server` and `fcix client`: the `fci-serve`
//! scheduler from the command line.
//!
//! ```text
//! batch [options] <jobs.jsonl | ->    run a batch of jobs through the scheduler
//!
//!   -o, --out FILE           per-job JSONL results (default stdout)
//!   --trace FILE             server lifecycle trace (JSONL, `fcix trace` readable)
//!   --metrics-out FILE       metrics-plane text exposition, refreshed every
//!                            250 ms while the queue drains and finalized at exit
//!   --job-trace-dir DIR      one solver trace file per job
//!   --verify FILE            JSONL of {"id","energy"} refs; fail if any
//!                            completed job deviates by > 1e-9
//!   --require-cache-hits     fail unless the artifact cache hit at least once
//!
//! server --listen ADDR --wal FILE [options]   the durable network front end
//!
//!   --listen ADDR        bind address (use 127.0.0.1:0 for a free port;
//!                        the bound address is printed as "LISTENING <addr>")
//!   --wal FILE           write-ahead job log (replayed + compacted on start)
//!   --wal-sync           fdatasync per append (power-loss durability)
//!   --rate N             per-tenant submissions/second (0 = unlimited)
//!   --burst N            token-bucket burst size (default 8)
//!   --max-inflight N     outstanding jobs per tenant (0 = unlimited)
//!   --max-conns N        concurrent connections (default 64)
//!   --read-timeout-ms N  per-connection read timeout (default 30000)
//!   --metrics-out FILE   write the metrics exposition at exit
//!
//! batch and server share the scheduler options:
//!
//!   -w, --workers N      worker threads (default 2)
//!   --no-batching        disable same-space multi-root coalescing (makes
//!                        every energy a pure function of its spec — the
//!                        bitwise-reproducibility mode the durability
//!                        tests pin; coalescing is load-dependent, so a
//!                        crash can legally re-partition a batch)
//!   --cache-bytes N      artifact-cache budget (default 256 MiB; 0 = off)
//!   --mem-bytes N        admission memory budget (default 1 GiB)
//!   --queue-cap N        queue capacity (default 1024)
//!   --ckpt-dir DIR       resilient-solve checkpoint directory
//!
//! client --client ADDR --jobs FILE [options]   drive a server
//!
//!   --jobs FILE          JSONL job specs to submit (idempotently: a
//!                        duplicate-id reject counts as accepted)
//!   -o, --out FILE       per-job JSONL results (default stdout)
//!   --verify FILE        JSONL {"id","energy"} refs, checked to --tol
//!   --tol X              verification tolerance (default 1e-9)
//!   --timeout-ms N       overall per-job result deadline (default 120000)
//!   --reconnect-ms N     keep reconnecting this long if the server goes
//!                        away mid-run (default 30000) — the crash-restart
//!                        window the smoke test exercises
//!   --drain              after all results arrive, drain + stop the server
//! ```
//!
//! `server` and `client` accept each other's options (and ignore them),
//! as the two modes of one program. The server exits cleanly when a
//! client sends `drain` (every accepted job completes first). A `kill -9`
//! at any point is recoverable: restart with the same `--wal` and
//! accepted jobs resume exactly once. Every metrics file is replaced
//! atomically (tmp + rename).
//!
//! Exit status: 0 all jobs done (and verified), 1 any failure, 2 bad
//! usage or an unreadable or unparsable input file.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fcix::obs::{Category, JsonValue, MetricsRegistry, ObsConfig, Tracer};
use fcix::serve::{serve, JobStatus, NetClient, NetConfig, NetServer, ServeConfig, Server};

use crate::{read_jobs, read_refs, verify, write_atomic, write_out, Args, Error};

/// A scheduler option `batch` and `server` share; `Ok(false)` when
/// `flag` is not one.
fn scheduler_flag(cfg: &mut ServeConfig, flag: &str, args: &mut Args) -> Result<bool, String> {
    match flag {
        "-w" | "--workers" => cfg.workers = args.num(flag)?,
        "--no-batching" => cfg.batching = false,
        "--cache-bytes" => cfg.cache_budget = args.num(flag)?,
        "--mem-bytes" => cfg.mem_budget = args.num(flag)?,
        "--queue-cap" => cfg.queue_cap = args.num(flag)?,
        "--ckpt-dir" => cfg.checkpoint_dir = args.value(flag)?.into(),
        _ => return Ok(false),
    }
    Ok(true)
}

pub(crate) fn batch(mut args: Args) -> Result<bool, Error> {
    let mut cfg = ServeConfig::default();
    let (mut out, mut verify_path, mut metrics_out) = (None, None, None);
    let mut require_cache_hits = false;
    let mut positional = Vec::new();
    let mut parse = || -> Result<(), String> {
        while let Some(arg) = args.next() {
            if scheduler_flag(&mut cfg, &arg, &mut args)? {
                continue;
            }
            match arg.as_str() {
                "-o" | "--out" => out = Some(args.value(&arg)?),
                "--trace" => cfg.obs = ObsConfig::to_file(args.value(&arg)?),
                "--metrics-out" => metrics_out = Some(args.value(&arg)?),
                "--job-trace-dir" => cfg.job_trace_dir = Some(args.value(&arg)?.into()),
                "--verify" => verify_path = Some(args.value(&arg)?),
                "--require-cache-hits" => require_cache_hits = true,
                flag if flag.starts_with('-') && flag != "-" => {
                    return Err(format!("unknown option {flag}"))
                }
                _ => positional.push(arg),
            }
        }
        match positional.len() {
            1 => Ok(()),
            _ => Err("expected exactly one jobs file (or `-`)".into()),
        }
    };
    parse().map_err(Error::Usage)?;
    let jobs = read_jobs(&positional[0]).map_err(Error::Usage)?;
    let n_jobs = jobs.len();
    let refs = verify_path.as_deref().map(read_refs).transpose();
    let refs = refs.map_err(Error::Usage)?;

    // Metrics plane: a caller-owned registry shared with the server. The
    // summary below reads its tallies, and with `--metrics-out` a snapshot
    // thread renders it live while workers record.
    let metrics = MetricsRegistry::new();
    cfg.obs = cfg.obs.with_metrics(metrics.clone());
    if metrics_out.is_some() {
        install_linalg_probes(&metrics);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let snapshotter = metrics_out.clone().map(|path| {
        let (stop, reg) = (stop.clone(), metrics.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Err(e) = write_atomic(&path, &reg.render_text()) {
                    eprintln!("fcix batch: metrics snapshot: {e}");
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(250));
            }
        })
    });
    let report = serve(cfg, jobs);
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = snapshotter {
        let _ = h.join();
    }
    if let Some(path) = &metrics_out {
        // Final snapshot after the queue drained: the complete exposition.
        write_atomic(path, &metrics.render_text())?;
        eprintln!("wrote {path}");
    }

    let mut lines = String::new();
    for r in &report.results {
        lines.push_str(&r.to_json().to_string());
        lines.push('\n');
    }
    for (id, why) in &report.rejected {
        // Structured reject: machine-readable reason code plus the
        // backoff hint a resubmitting client should honor.
        let mut pairs = vec![
            ("id", JsonValue::Str(id.clone())),
            ("status", JsonValue::Str("rejected".into())),
            ("reason", JsonValue::Str(why.code().into())),
            ("error", JsonValue::Str(why.to_string())),
        ];
        if let Some(ms) = why.retry_after_ms() {
            pairs.push(("retry_after_ms", JsonValue::Num(ms as f64)));
        }
        lines.push_str(&JsonValue::obj(pairs).to_string());
        lines.push('\n');
    }
    write_out(&lines, out.as_deref())?;
    let count =
        |is: fn(&JobStatus) -> bool| report.results.iter().filter(|r| is(&r.status)).count();
    let done = count(|s| *s == JobStatus::Done);
    let failed = count(|s| matches!(s, JobStatus::Failed(_)));
    let tally = |name| metrics.value(name, &[]).unwrap_or(0.0);
    eprintln!(
        "serve: {done} done, {failed} failed, {} cancelled, {} rejected | {} batches | \
         cache: {} hits, {} misses, {} evictions",
        report.results.len() - done - failed,
        report.rejected.len(),
        tally("serve.batches"),
        tally("serve.cache_hits"),
        tally("serve.cache_misses"),
        tally("serve.cache_evictions"),
    );

    let mut ok = done == n_jobs;
    if !ok {
        eprintln!("error: {} of {n_jobs} jobs did not complete", n_jobs - done);
    }
    // Admission refusals are an error exit, never a silent drop: each
    // one gets a structured stderr line and fails the run.
    for (id, why) in &report.rejected {
        eprintln!("reject: {id}: {}: {why}", why.code());
        ok = false;
    }
    for (id, want) in refs.iter().flatten() {
        match report.result(id) {
            Some(r) if r.status == JobStatus::Done => ok &= verify(id, r.energy, *want, 1e-9),
            _ => {
                eprintln!("verify: {id}: no completed result");
                ok = false;
            }
        }
    }
    if require_cache_hits && tally("serve.cache_hits") == 0.0 {
        eprintln!("error: artifact cache never hit (--require-cache-hits)");
        ok = false;
    }
    Ok(ok)
}

/// Feed the GEMM and `eigh` kernel probes into `reg`, so the metrics
/// exposition carries `linalg_gemm_gflops{shape=...}` lines. Each probe
/// is a `gemm_probe` / `eigh_probe` instant on a metrics-only tracer: the
/// one table maps it, and it never reaches a trace file (a probe fires on
/// every GEMM).
fn install_linalg_probes(reg: &MetricsRegistry) {
    let probe = Tracer::metrics_only(reg.clone());
    let gemm = probe.clone();
    fcix::linalg::probe::install(Arc::new(move |m, n, k, secs| {
        let gf = 2.0 * (m as f64) * (n as f64) * (k as f64) / secs.max(1e-12) / 1e9;
        let shape = format!("{m}x{n}x{k}");
        let args = [("gflops", gf), ("s", secs)];
        gemm.instant_labelled(
            None,
            "gemm_probe",
            Category::Other,
            &args,
            &[("shape", &shape)],
        );
    }));
    fcix::linalg::probe::set_enabled(true);
    fcix::linalg::probe::install_eigh(Arc::new(move |n, secs| {
        // Nominal 4n³ flops: tridiagonal reduction (4/3 n³) plus the
        // implicit-QL eigenvector accumulation (~3n³ rotations).
        let gf = 4.0 * (n as f64).powi(3) / secs.max(1e-12) / 1e9;
        let args = [("gflops", gf), ("s", secs)];
        let dim = n.to_string();
        probe.instant_labelled(None, "eigh_probe", Category::Other, &args, &[("n", &dim)]);
    }));
    fcix::linalg::probe::set_eigh_enabled(true);
}

/// Everything `server` and `client` parse: one option set for the two
/// modes of the durable front end.
struct Served {
    addr: String,
    cfg: ServeConfig,
    net: NetConfig,
    metrics_out: Option<String>,
    jobs_path: Option<String>,
    out: Option<String>,
    verify: Option<String>,
    tol: f64,
    timeout_ms: u64,
    reconnect_ms: u64,
    drain: bool,
}

/// Parse the served options; `mode_flag` (`--listen` or `--client`)
/// carries the address and is required.
fn parse_served(mut args: Args, mode_flag: &str) -> Result<Served, String> {
    let mut s = Served {
        addr: String::new(),
        cfg: ServeConfig::default(),
        net: NetConfig::default(),
        metrics_out: None,
        jobs_path: None,
        out: None,
        verify: None,
        tol: 1e-9,
        timeout_ms: 120_000,
        reconnect_ms: 30_000,
        drain: false,
    };
    let mut addr = None;
    while let Some(arg) = args.next() {
        if scheduler_flag(&mut s.cfg, &arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            flag if flag == mode_flag => addr = Some(args.value(flag)?),
            "--wal" => s.cfg.wal_path = Some(args.value(&arg)?.into()),
            "--wal-sync" => s.cfg.wal_sync = true,
            "--rate" => s.net.rate_per_s = args.num(&arg)?,
            "--burst" => s.net.burst = args.num(&arg)?,
            "--max-inflight" => s.net.max_inflight = args.num(&arg)?,
            "--max-conns" => s.net.max_conns = args.num(&arg)?,
            "--read-timeout-ms" => s.net.read_timeout_ms = args.num(&arg)?,
            "--metrics-out" => s.metrics_out = Some(args.value(&arg)?),
            "--jobs" => s.jobs_path = Some(args.value(&arg)?),
            "-o" | "--out" => s.out = Some(args.value(&arg)?),
            "--verify" => s.verify = Some(args.value(&arg)?),
            "--tol" => s.tol = args.num(&arg)?,
            "--timeout-ms" => s.timeout_ms = args.num(&arg)?,
            "--reconnect-ms" => s.reconnect_ms = args.num(&arg)?,
            "--drain" => s.drain = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    s.addr = addr.ok_or_else(|| format!("needs {mode_flag} ADDR"))?;
    Ok(s)
}

pub(crate) fn server(args: Args) -> Result<bool, Error> {
    let Served {
        addr,
        mut cfg,
        mut net,
        metrics_out,
        ..
    } = parse_served(args, "--listen").map_err(Error::Usage)?;
    if metrics_out.is_some() {
        cfg.obs = cfg.obs.with_metrics(MetricsRegistry::new());
    }
    let workers = cfg.workers;
    let (server, replay) = Server::recover(cfg).map_err(|e| format!("WAL recovery: {e}"))?;
    for w in &replay.warnings {
        eprintln!("fcix server: WAL recovery: {w}");
    }
    if replay.records > 0 {
        eprintln!(
            "fcix server: replayed {} WAL records: {} completed, {} re-enqueued",
            replay.records,
            replay.completed.len(),
            replay.pending.len()
        );
    }
    let server = Arc::new(server);
    net.addr = addr;
    let net = NetServer::bind(server.clone(), net).map_err(|e| format!("bind: {e}"))?;
    let addr = net.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    // The handshake line a supervisor (or the smoke test) waits for.
    println!("LISTENING {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    std::thread::scope(|s| {
        let srv = server.clone();
        s.spawn(move || srv.run(workers));
        net.run();
        // `drain` already closed the queue; make close unconditional so
        // the worker pool always winds down.
        server.close();
    });
    if let (Some(path), Some(reg)) = (&metrics_out, server.metrics()) {
        write_atomic(path, &reg.render_text())?;
        eprintln!("wrote {path}");
    }
    let st = server.stats();
    eprintln!(
        "fcix server: stopped: {} completed, {} rejected, WAL {} bytes",
        st.completed, st.rejected, st.wal_bytes
    );
    Ok(true)
}

/// Connect, retrying while the server may be restarting.
fn connect_patiently(addr: &str, budget_ms: u64) -> Result<NetClient, String> {
    let mut waited = 0u64;
    loop {
        match NetClient::connect(addr, 15_000) {
            Ok(c) => return Ok(c),
            Err(_) if waited < budget_ms => {
                std::thread::sleep(std::time::Duration::from_millis(100));
                waited += 100;
            }
            Err(e) => return Err(format!("cannot connect to {addr}: {e}")),
        }
    }
}

pub(crate) fn client(args: Args) -> Result<bool, Error> {
    let cli = parse_served(args, "--client").map_err(Error::Usage)?;
    let Some(jobs_path) = cli.jobs_path.as_deref() else {
        return Err(Error::Usage("needs --jobs FILE".into()));
    };
    let jobs = read_jobs(jobs_path).map_err(Error::Usage)?;
    let refs = cli.verify.as_deref().map(read_refs).transpose();
    let refs = refs.map_err(Error::Usage)?;
    let mut client = connect_patiently(&cli.addr, cli.reconnect_ms)?;

    // Submit at-least-once: a reconnect + duplicate_id reject proves the
    // first attempt's WAL record survived. Backpressure rejects honor
    // the server's retry_after_ms hint.
    for job in &jobs {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match client.submit_idempotent(job) {
                Ok(None) => break,
                Ok(Some(resp)) => match resp.get_f64("retry_after_ms") {
                    Some(ms) if attempts < 200 => {
                        std::thread::sleep(std::time::Duration::from_millis(ms.max(1.0) as u64))
                    }
                    _ => {
                        return Err(Error::Failed(format!(
                            "job {} rejected: {}: {}",
                            job.id,
                            resp.get("reason").and_then(JsonValue::as_str).unwrap_or(""),
                            resp.get("detail").and_then(JsonValue::as_str).unwrap_or("")
                        )))
                    }
                },
                // Server went away (crash window): reconnect and
                // resubmit; durability makes the retry idempotent.
                Err(_) => client = connect_patiently(&cli.addr, cli.reconnect_ms)?,
            }
        }
    }

    // Collect every result, riding out server restarts.
    let mut lines = String::new();
    let mut ok = true;
    let mut got = 0usize;
    let mut verified = 0usize;
    for job in &jobs {
        let mut waited = 0u64;
        let result = loop {
            match client.wait(&job.id, 5_000) {
                Ok(resp) if resp.get("ok") == Some(&JsonValue::Bool(true)) => {
                    break resp.get("result").cloned()
                }
                Ok(_) => {
                    waited += 5_000;
                    if waited >= cli.timeout_ms {
                        break None;
                    }
                }
                Err(_) => client = connect_patiently(&cli.addr, cli.reconnect_ms)?,
            }
        };
        let Some(r) = result else {
            eprintln!(
                "error: job {} produced no result in {} ms",
                job.id, cli.timeout_ms
            );
            ok = false;
            continue;
        };
        lines.push_str(&r.to_string());
        lines.push('\n');
        got += 1;
        let status = r.get("status").and_then(JsonValue::as_str).unwrap_or("");
        if status != "done" {
            eprintln!("error: job {} finished as `{status}`", job.id);
            ok = false;
        } else if let Some(want) = refs.as_ref().and_then(|refs| refs.get(&job.id)) {
            let energy = r.get_f64("energy").unwrap_or(f64::NAN);
            if verify(&job.id, energy, *want, cli.tol) {
                verified += 1;
            } else {
                ok = false;
            }
        }
    }
    write_out(&lines, cli.out.as_deref())?;
    if cli.drain {
        let resp = client.drain().map_err(|e| format!("drain: {e}"))?;
        if resp.get("ok") != Some(&JsonValue::Bool(true)) {
            eprintln!("error: drain refused: {resp}");
            ok = false;
        }
    }
    match refs {
        Some(_) => eprintln!(
            "fcix client: {got}/{} results, {verified} verified to {:.0e}",
            jobs.len(),
            cli.tol
        ),
        None => eprintln!("fcix client: {got}/{} results", jobs.len()),
    }
    Ok(ok)
}
