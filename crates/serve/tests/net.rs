//! TCP front-end integration: quotas, backpressure, and the fair-share
//! invariant under the network path.

use fci_obs::JsonValue;
use fci_serve::{JobSpec, NetClient, NetConfig, NetServer, ProblemSpec, ServeConfig, Server};
use std::sync::Arc;

fn job(id: &str, tenant: &str) -> JobSpec {
    let mut spec = JobSpec::new(
        id,
        ProblemSpec::Hubbard {
            sites: 4,
            t: 1.0,
            u: 4.0,
            periodic: false,
        },
        2,
        2,
    );
    spec.tenant = tenant.into();
    spec
}

/// A live server + front-end on a loopback port; dropped via `drain`.
struct Stack {
    addr: String,
    net: Arc<NetServer>,
    n_workers: usize,
    workers: Option<std::thread::JoinHandle<()>>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    server: Arc<Server>,
}

/// The front-end up and accepting, the worker pool not yet started:
/// whatever is submitted sits queued — in flight by construction —
/// until [`Stack::start_workers`].
fn idle_stack(tag: &str, cfg_net: NetConfig, workers: usize) -> Stack {
    let dir = std::env::temp_dir().join(format!("fcix-nettest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Arc::new(Server::new(ServeConfig {
        workers,
        checkpoint_dir: dir,
        ..Default::default()
    }));
    let net = Arc::new(NetServer::bind(server.clone(), cfg_net).expect("bind loopback"));
    let addr = net.local_addr().expect("local addr").to_string();
    let acc = net.clone();
    let acceptor = std::thread::spawn(move || acc.run());
    Stack {
        addr,
        net,
        n_workers: workers,
        workers: None,
        acceptor: Some(acceptor),
        server,
    }
}

fn stack(tag: &str, cfg_net: NetConfig, workers: usize) -> Stack {
    let mut st = idle_stack(tag, cfg_net, workers);
    st.start_workers();
    st
}

impl Stack {
    fn start_workers(&mut self) {
        let (srv, n) = (self.server.clone(), self.n_workers);
        self.workers = Some(std::thread::spawn(move || srv.run(n)));
    }
    fn client(&self) -> NetClient {
        NetClient::connect(&self.addr, 30_000).expect("connect")
    }
    fn teardown(mut self) {
        self.server.drain();
        self.net.stop();
        if let Some(h) = self.acceptor.take() {
            h.join().expect("acceptor join");
        }
        if let Some(h) = self.workers.take() {
            h.join().expect("workers join");
        }
    }
}

fn is_ok(resp: &JsonValue) -> bool {
    resp.get("ok") == Some(&JsonValue::Bool(true))
}

fn reason(resp: &JsonValue) -> &str {
    resp.get("reason").and_then(JsonValue::as_str).unwrap_or("")
}

#[test]
fn greedy_tenant_at_its_rate_limit_cannot_starve_another() {
    // Tight bucket: 2-deep burst, slow refill — the greedy flood runs
    // dry almost immediately.
    let st = stack(
        "fair",
        NetConfig {
            rate_per_s: 2.0,
            burst: 2.0,
            ..Default::default()
        },
        2,
    );
    let mut greedy = st.client();
    let mut accepted = 0usize;
    let mut rate_limited = 0usize;
    for i in 0..30 {
        let resp = greedy
            .submit(&job(&format!("g{i}"), "greedy"))
            .expect("submit");
        if is_ok(&resp) {
            accepted += 1;
        } else {
            assert_eq!(reason(&resp), "rate_limited", "resp: {resp}");
            let hint = resp.get_f64("retry_after_ms").expect("backoff hint");
            assert!(hint >= 1.0, "hint must be actionable: {hint}");
            rate_limited += 1;
        }
    }
    assert!(rate_limited >= 20, "flood mostly refused: {rate_limited}");
    assert!(accepted >= 2, "burst admitted: {accepted}");

    // The fair-share invariant under the network path: with the greedy
    // tenant pinned at its limit, a second tenant's submissions are
    // admitted instantly (its bucket is its own) and all complete.
    let mut polite = st.client();
    for i in 0..2 {
        let resp = polite
            .submit(&job(&format!("p{i}"), "polite"))
            .expect("submit");
        assert!(is_ok(&resp), "polite tenant refused: {resp}");
    }
    for i in 0..2 {
        let resp = polite.wait(&format!("p{i}"), 60_000).expect("wait");
        assert!(is_ok(&resp), "polite job starved: {resp}");
        let r = resp.get("result").expect("result");
        assert_eq!(
            r.get("status").and_then(JsonValue::as_str),
            Some("done"),
            "polite job must complete: {r}"
        );
    }
    st.teardown();
}

#[test]
fn inflight_cap_rejects_with_hint_and_releases_as_jobs_finish() {
    let mut st = idle_stack(
        "inflight",
        NetConfig {
            max_inflight: 2,
            ..Default::default()
        },
        2,
    );
    let mut c = st.client();
    for i in 0..2 {
        assert!(is_ok(
            &c.submit(&job(&format!("j{i}"), "t")).expect("submit")
        ));
    }
    // No worker runs yet, so both are still in flight however fast a
    // solve is: the third concurrent job trips the cap.
    let resp = c.submit(&job("j2", "t")).expect("submit");
    assert_eq!(reason(&resp), "inflight_limit", "resp: {resp}");
    assert!(resp.get_f64("retry_after_ms").is_some(), "hint: {resp}");
    // Once the first two finish, the ledger sweeps and j2 is admitted.
    st.start_workers();
    for i in 0..2 {
        assert!(is_ok(&c.wait(&format!("j{i}"), 60_000).expect("wait")));
    }
    let resp = c.submit(&job("j2", "t")).expect("resubmit");
    assert!(is_ok(&resp), "cap must release: {resp}");
    assert!(is_ok(&c.wait("j2", 60_000).expect("wait")));
    st.teardown();
}

#[test]
fn connection_cap_refuses_with_explicit_overload() {
    let st = stack(
        "conncap",
        NetConfig {
            max_conns: 1,
            ..Default::default()
        },
        1,
    );
    let mut first = st.client();
    assert!(first.ping().expect("ping"));
    // Second connection: one overload line, then the socket closes.
    let mut second = st.client();
    let resp = second.request(&JsonValue::obj(vec![("v", JsonValue::Str("ping".into()))]));
    match resp {
        Ok(v) => {
            assert_eq!(reason(&v), "overloaded", "resp: {v}");
            assert!(v.get_f64("retry_after_ms").is_some(), "hint: {v}");
        }
        // The server may close before our request line is read — the
        // overload notice was already written at accept time.
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
    }
    st.teardown();
}

#[test]
fn protocol_errors_and_verbs_round_trip() {
    let st = stack("verbs", NetConfig::default(), 2);
    let mut c = st.client();

    // Unknown verb and malformed JSON are per-line errors, not hangups.
    let resp = c
        .request(&JsonValue::obj(vec![(
            "v",
            JsonValue::Str("frobnicate".into()),
        )]))
        .expect("request");
    assert_eq!(reason(&resp), "unknown_verb");
    assert!(c.ping().expect("connection survives"));

    // Duplicate submission: reject, but idempotent-submit treats it as won.
    assert!(is_ok(&c.submit(&job("dup", "t")).expect("submit")));
    let resp = c.submit(&job("dup", "t")).expect("resubmit");
    assert_eq!(reason(&resp), "duplicate_id");
    assert_eq!(
        c.submit_idempotent(&job("dup", "t")).expect("idempotent"),
        None
    );

    // STATUS sees the queue; CANCEL on a finished job is refused.
    assert!(is_ok(&c.wait("dup", 60_000).expect("wait")));
    let status = c.status().expect("status");
    assert!(is_ok(&status));
    assert!(status.get_f64("completed").unwrap_or(0.0) >= 1.0);
    let resp = c.cancel("dup").expect("cancel");
    assert_eq!(reason(&resp), "not_cancellable");

    // RESULT returns the identical energy WAIT saw (bitwise).
    let e1 = c
        .wait("dup", 1_000)
        .expect("wait")
        .get("result")
        .and_then(|r| r.get_f64("energy"))
        .expect("energy");
    let e2 = c
        .result("dup")
        .expect("result")
        .get("result")
        .and_then(|r| r.get_f64("energy"))
        .expect("energy");
    assert_eq!(e1.to_bits(), e2.to_bits());
    st.teardown();
}

#[test]
fn hostile_sector_specs_get_invalid_and_the_server_keeps_answering() {
    let st = stack("hostile", NetConfig::default(), 1);
    let mut c = st.client();
    let mut irrep = job("irrep-1", "t");
    irrep.target_irrep = 1;
    let mut no_alpha = job("no-alpha", "t");
    no_alpha.n_alpha = 0;
    let mut no_electrons = job("no-electrons", "t");
    no_electrons.n_alpha = 0;
    no_electrons.n_beta = 0;
    for spec in [irrep, no_alpha, no_electrons] {
        let resp = c.submit(&spec).expect("submit");
        assert_eq!(reason(&resp), "invalid", "{}: {resp}", spec.id);
    }
    assert!(is_ok(&c.submit(&job("good", "t")).expect("submit")));
    let resp = c.wait("good", 60_000).expect("wait");
    let r = resp.get("result").expect("result");
    assert_eq!(
        r.get("status").and_then(JsonValue::as_str),
        Some("done"),
        "{r}"
    );
    st.teardown();
}

#[test]
fn oversized_request_line_is_refused_and_connection_dropped() {
    let st = stack(
        "linecap",
        NetConfig {
            max_line_bytes: 256,
            ..Default::default()
        },
        1,
    );
    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(&st.addr).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let huge = format!("{{\"v\":\"ping\",\"pad\":\"{}\"}}\n", "x".repeat(1024));
    raw.write_all(huge.as_bytes()).expect("write");
    let mut line = String::new();
    BufReader::new(raw.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("read");
    let resp = JsonValue::parse(line.trim()).expect("parse");
    assert_eq!(reason(&resp), "line_too_long", "resp: {resp}");
    // The connection is gone: the next read sees EOF.
    let mut rest = String::new();
    let n = BufReader::new(raw).read_line(&mut rest).expect("read eof");
    assert_eq!(n, 0, "server must drop an abusive connection");
    st.teardown();
}

#[test]
fn drain_completes_accepted_work_then_stops_the_listener() {
    let st = stack("drain", NetConfig::default(), 2);
    let mut c = st.client();
    for i in 0..3 {
        assert!(is_ok(
            &c.submit(&job(&format!("d{i}"), "t")).expect("submit")
        ));
    }
    let resp = c.drain().expect("drain");
    assert!(is_ok(&resp), "drain: {resp}");
    assert_eq!(
        resp.get_f64("completed"),
        Some(3.0),
        "drain returns only after every accepted job finished: {resp}"
    );
    assert!(st.net.stopped(), "drain stops the accept loop");
    // Post-drain submissions are refused server-side.
    assert!(
        st.server.submit(job("late", "t")).is_err(),
        "queue must be closed after drain"
    );
    st.teardown();
}
