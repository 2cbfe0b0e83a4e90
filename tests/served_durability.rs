//! Crash-exactly-once property test for the durable serving plane.
//!
//! The harness runs `fcix server` in a child process with
//! `FCIX_WAL_KILL_AT=<offset>` — the WAL's crash-injection hook, which
//! `abort()`s the process the instant its log reaches that byte offset,
//! truncating the in-flight record when the offset lands inside one
//! (a deterministic `kill -9`). For each seeded offset:
//!
//! 1. start the server, push the 6-job example workload at it until the
//!    crash cuts the connection;
//! 2. restart against the same WAL (no kill hook) and drive the
//!    workload to completion with an idempotent client;
//! 3. assert **exactly-once**: every job has exactly one completion
//!    record in the final log, deterministic jobs reproduce the clean
//!    run's energies *bitwise*, the checkpoint-resumed resilient job
//!    matches to 1e-9, and a final replay is warning-free.
//!
//! The offsets are spread across the log's life: inside the header
//! region (crash before any record is durable), mid-submit-append,
//! between records, and mid-completion-append ("mid-result-write").

use fcix::obs::JsonValue;
use fcix::serve::{JobSpec, NetClient, Replay, Wal};
use std::collections::HashMap;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_fcix");

/// Seeded kill offsets (WAL byte positions). The clean 6-job log is
/// ~3.4 KiB; submit records live in roughly the first 1.5 KiB and
/// completion records in the rest, so these 9 points cover: the header
/// region, mid-first-submit, submit/submit boundaries, the dispatch
/// phase, and several mid-completion appends. The final huge offset is
/// the control: it never fires, proving the harness also passes without
/// a crash.
const KILL_OFFSETS: &[u64] = &[5, 64, 180, 420, 800, 1200, 1700, 2200, 2700, u64::MAX / 2];

fn jobs() -> Vec<JobSpec> {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/serve_jobs6.jsonl"),
    )
    .expect("read example jobs");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| JobSpec::from_json(&JsonValue::parse(l).expect("parse")).expect("spec"))
        .collect()
}

struct Served {
    child: Child,
    addr: String,
}

fn start(dir: &Path, kill_at: Option<u64>) -> Served {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "server",
        "--listen",
        "127.0.0.1:0",
        "--wal",
        dir.join("jobs.wal").to_str().expect("utf8 path"),
        "--ckpt-dir",
        dir.join("ckpt").to_str().expect("utf8 path"),
        "-w",
        "2",
        // Coalescing is load-dependent: a crash that makes one batch
        // member durable but not its sibling legally re-partitions the
        // batch on restart, and a 2-root block solve's last bits differ
        // from a single-root solve's. Unbatched, every energy is a pure
        // function of its spec — the bitwise-exactness this test pins.
        "--no-batching",
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    match kill_at {
        Some(k) => cmd.env("FCIX_WAL_KILL_AT", k.to_string()),
        None => cmd.env_remove("FCIX_WAL_KILL_AT"),
    };
    let mut child = cmd.spawn().expect("spawn fcix server");
    let stdout = child.stdout.take().expect("stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server printed LISTENING")
            .expect("read server stdout");
        if let Some(addr) = line.strip_prefix("LISTENING ") {
            break addr.to_string();
        }
    };
    Served { child, addr }
}

fn connect(addr: &str) -> Option<NetClient> {
    NetClient::connect(addr, 20_000).ok()
}

/// Drive the workload as far as the server survives: idempotent submits,
/// then waits. Returns collected `id → energy` (partial if it crashed).
fn drive(addr: &str, jobs: &[JobSpec]) -> HashMap<String, f64> {
    let mut got = HashMap::new();
    let Some(mut client) = connect(addr) else {
        return got;
    };
    for job in jobs {
        if client.submit_idempotent(job).is_err() {
            return got; // server crashed mid-submit
        }
    }
    for job in jobs {
        loop {
            match client.wait(&job.id, 5_000) {
                Ok(resp) if resp.get("ok") == Some(&JsonValue::Bool(true)) => {
                    let energy = resp
                        .get("result")
                        .and_then(|r| r.get_f64("energy"))
                        .expect("energy");
                    got.insert(job.id.clone(), energy);
                    break;
                }
                Ok(_) => continue,    // still running; wait again
                Err(_) => return got, // server crashed mid-wait
            }
        }
    }
    got
}

fn wait_exit(mut child: Child, expect_crash: bool) {
    for _ in 0..600 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert_eq!(
                status.success(),
                !expect_crash,
                "server exit {status:?}, expected crash={expect_crash}"
            );
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = child.kill();
    panic!("server did not exit within 60 s (expected crash={expect_crash})");
}

/// Replay the final WAL and assert the exactly-once invariants.
fn assert_exactly_once(wal_path: &Path, jobs: &[JobSpec], kill: u64) -> Replay {
    let (_, replay) = Wal::open(wal_path).expect("replay final WAL");
    assert!(
        replay.is_clean(),
        "kill@{kill}: final WAL must replay clean: {:?}",
        replay.warnings
    );
    assert!(
        replay.pending.is_empty(),
        "kill@{kill}: drained server left pending jobs: {:?}",
        replay.pending.iter().map(|j| &j.id).collect::<Vec<_>>()
    );
    let mut seen = HashMap::new();
    for r in &replay.completed {
        *seen.entry(r.id.clone()).or_insert(0u32) += 1;
    }
    for job in jobs {
        assert_eq!(
            seen.get(&job.id),
            Some(&1),
            "kill@{kill}: job {} must have exactly one completion record, got {:?}",
            job.id,
            seen.get(&job.id)
        );
    }
    assert_eq!(
        replay.completed.len(),
        jobs.len(),
        "kill@{kill}: no duplicate side effects"
    );
    replay
}

#[test]
fn killed_at_seeded_wal_offsets_every_job_completes_exactly_once() {
    let jobs = jobs();
    let base = std::env::temp_dir().join(format!("fcix-durab-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Clean reference run: the bitwise ground truth.
    let refdir = base.join("ref");
    std::fs::create_dir_all(&refdir).expect("mkdir");
    let served = start(&refdir, None);
    let reference = drive(&served.addr, &jobs);
    let mut client = connect(&served.addr).expect("ref connect");
    client.drain().expect("ref drain");
    wait_exit(served.child, false);
    assert_eq!(reference.len(), jobs.len(), "reference run incomplete");
    assert_exactly_once(&refdir.join("jobs.wal"), &jobs, 0);

    let mut crashes = 0usize;
    for &kill in KILL_OFFSETS {
        let dir = base.join(format!("kill-{kill}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let wal_path: PathBuf = dir.join("jobs.wal");

        // Phase 1: run into the seeded crash.
        let served = start(&dir, Some(kill));
        let _partial = drive(&served.addr, &jobs);
        let crashed = kill < 1 << 20;
        if crashed {
            crashes += 1;
        } else {
            // Control offset: drain so the server can exit cleanly.
            let mut c = connect(&served.addr).expect("control connect");
            c.drain().expect("control drain");
        }
        wait_exit(served.child, crashed);

        // Phase 2: restart on the same WAL, finish the workload.
        let served = start(&dir, None);
        let got = drive(&served.addr, &jobs);
        let mut client = connect(&served.addr).expect("reconnect");
        client.drain().expect("drain");
        wait_exit(served.child, false);

        assert_eq!(
            got.len(),
            jobs.len(),
            "kill@{kill}: every accepted job must complete after restart"
        );
        for job in &jobs {
            let want = reference[&job.id];
            let have = got[&job.id];
            if job.resilient {
                // The checkpoint-resumed solve converges to the same
                // answer within the solver tolerance; iteration history
                // differs, so last-bit equality is not guaranteed.
                assert!(
                    (have - want).abs() <= 1e-9,
                    "kill@{kill}: resilient job {}: {have:.15} vs {want:.15}",
                    job.id
                );
            } else {
                // Deterministic solves are pure functions of the spec:
                // a re-run after any crash is bitwise identical.
                assert_eq!(
                    have.to_bits(),
                    want.to_bits(),
                    "kill@{kill}: job {}: {have:.17} vs reference {want:.17}",
                    job.id
                );
            }
        }
        assert_exactly_once(&wal_path, &jobs, kill);
    }
    assert!(
        crashes >= 8,
        "the offset set must include at least 8 real kill points, got {crashes}"
    );
    let _ = std::fs::remove_dir_all(&base);
}
