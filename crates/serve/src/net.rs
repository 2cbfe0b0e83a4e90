//! std-only TCP front-end: a line-JSONL protocol over
//! [`std::net::TcpListener`] with per-tenant quotas and backpressure.
//!
//! # Protocol
//!
//! One JSON object per `\n`-terminated line in each direction; requests
//! carry a verb in `"v"`, responses always carry `"ok"`:
//!
//! ```text
//! request  := { "v": verb, ... }                one line
//! verb     := "submit" | "wait" | "result" | "status"
//!           | "cancel" | "metrics" | "drain" | "ping"
//! submit   := { "v":"submit", "job": <JobSpec JSON> }
//! wait     := { "v":"wait", "id": s, "timeout_ms": n }
//! result   := { "v":"result", "id": s }
//! cancel   := { "v":"cancel", "id": s }
//! response := { "ok": true, ... }
//!           | { "ok": false, "reason": code,
//!               "detail": s, ["retry_after_ms": n] }
//! ```
//!
//! A submit `ok` is sent only after the job's acceptance record is in
//! the write-ahead log — the client may crash immediately and the job
//! still completes. On reconnect, resubmitting an accepted id yields a
//! `duplicate_id` reject, which idempotent clients treat as "already
//! accepted" (see [`NetClient::submit_idempotent`]).
//!
//! # Backpressure, not buffering
//!
//! Every overload path answers with an explicit reject carrying a
//! `Retry-After`-style hint instead of queueing without bound:
//!
//! * per-tenant **token bucket** ([`NetConfig::rate_per_s`] /
//!   [`NetConfig::burst`]) → `rate_limited` + exact refill time;
//! * per-tenant **in-flight cap** ([`NetConfig::max_inflight`]) →
//!   `inflight_limit`;
//! * **connection cap** ([`NetConfig::max_conns`]) → `overloaded`,
//!   written once, then the socket closes;
//! * the queue's own capacity → `queue_full` (from admission control);
//! * request lines above [`NetConfig::max_line_bytes`] are refused and
//!   the connection dropped, so a hostile client cannot balloon memory;
//! * reads and writes carry timeouts, so a stalled peer frees its
//!   thread within [`NetConfig::read_timeout_ms`].
//!
//! Rate and in-flight gates sit *in front of* the fair-share queue, so
//! a greedy tenant saturating its bucket cannot starve another tenant's
//! submissions (property-tested in `tests/net.rs`).

use crate::result::RejectReason;
use crate::server::Server;
use crate::spec::JobSpec;
use fci_obs::{JsonValue, Tracer, TrackedMutex};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Front-end tuning. Defaults are safe for loopback tests; production
/// callers should size `max_conns` and the tenant quotas deliberately.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Per-connection read timeout; a silent peer is disconnected.
    pub read_timeout_ms: u64,
    /// Per-connection write timeout; a non-draining peer is disconnected.
    pub write_timeout_ms: u64,
    /// Concurrent connections; beyond this, accepts get `overloaded`.
    pub max_conns: usize,
    /// Token-bucket refill per tenant in submissions/second
    /// (`<= 0` disables rate limiting).
    pub rate_per_s: f64,
    /// Token-bucket capacity (burst size).
    pub burst: f64,
    /// Outstanding (accepted, unfinished) jobs per tenant
    /// (`0` disables the cap).
    pub max_inflight: usize,
    /// Longest request line accepted, in bytes.
    pub max_line_bytes: usize,
    /// Ceiling on a `wait` verb's `timeout_ms`.
    pub max_wait_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".into(),
            read_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            max_conns: 64,
            rate_per_s: 0.0,
            burst: 8.0,
            max_inflight: 0,
            max_line_bytes: 1 << 20,
            max_wait_ms: 120_000,
        }
    }
}

/// Per-tenant admission gate: token bucket + outstanding-job ledger.
struct TenantGate {
    tokens: f64,
    last_us: f64,
    outstanding: Vec<String>,
}

/// The TCP front-end. [`NetServer::bind`], then [`NetServer::run`] on a
/// thread of its own (worker threads drain the queue separately).
pub struct NetServer {
    server: Arc<Server>,
    cfg: NetConfig,
    listener: TcpListener,
    /// Host-time source for the token buckets (repo wall-clock rule).
    clock: Tracer,
    stop: AtomicBool,
    conns: AtomicUsize,
    tenants: TrackedMutex<HashMap<String, TenantGate>>,
}

impl NetServer {
    /// Bind the listener (non-blocking accept loop; `run` polls it).
    pub fn bind(server: Arc<Server>, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            server,
            cfg,
            listener,
            clock: Tracer::in_memory(),
            stop: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            tenants: TrackedMutex::new("NetServer.tenants", HashMap::new()),
        })
    }

    /// The bound address (the real port when `addr` ended in `:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Ask the accept loop to exit. Idempotent; also triggered by a
    /// client `drain`.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// `true` once [`NetServer::stop`] was called (or `drain` arrived).
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Accept and serve connections until [`NetServer::stop`]. Each
    /// connection gets a scoped thread; the call returns once every
    /// live connection has wound down (bounded by the read timeout).
    pub fn run(&self) {
        std::thread::scope(|s| {
            while !self.stopped() {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.conns.load(Ordering::SeqCst) >= self.cfg.max_conns {
                            self.refuse_overloaded(stream);
                            continue;
                        }
                        self.conns.fetch_add(1, Ordering::SeqCst);
                        s.spawn(move || {
                            self.handle(stream);
                            self.conns.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => {
                        eprintln!("warning: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(100));
                    }
                }
            }
        });
    }

    /// Connection-cap overload: one explicit reject, then close.
    fn refuse_overloaded(&self, mut stream: TcpStream) {
        let why = RejectReason::Overloaded {
            max_conns: self.cfg.max_conns,
        };
        let _ = stream.set_write_timeout(Some(Duration::from_millis(self.cfg.write_timeout_ms)));
        let _ = write_line(&mut stream, &reject_json(None, &why));
        self.note_reject(why.code());
    }

    fn note_verb(&self, verb: &str) {
        if let Some(m) = self.server.metrics() {
            m.counter_incr("net.requests", &[("verb", verb)]);
        }
    }

    fn note_reject(&self, code: &str) {
        if let Some(m) = self.server.metrics() {
            m.counter_incr("net.rejects", &[("reason", code)]);
        }
    }

    /// Serve one connection until EOF, error, timeout, or `drain`.
    fn handle(&self, stream: TcpStream) {
        // Reads poll in short chunks so a `stop`/`drain` tears idle
        // connections down promptly; the configured timeout is the
        // cumulative idle budget per request line.
        let chunk_ms = self.cfg.read_timeout_ms.clamp(10, 500);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(chunk_ms)));
        let _ = stream.set_write_timeout(Some(Duration::from_millis(self.cfg.write_timeout_ms)));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut out = stream;
        let cap = self.cfg.max_line_bytes;
        loop {
            let mut line = Vec::new();
            let mut idle_ms = 0u64;
            let mut eof = false;
            loop {
                if line.len() > cap {
                    let _ = write_line(
                        &mut out,
                        &error_json(
                            "line_too_long",
                            &format!("request exceeds {cap} bytes"),
                            None,
                        ),
                    );
                    return;
                }
                // `take` bounds what one line can buffer: a peer cannot
                // make this thread allocate more than `cap` bytes.
                let room = (cap + 1 - line.len()) as u64;
                match (&mut reader).take(room).read_until(b'\n', &mut line) {
                    Ok(0) if line.is_empty() => return, // EOF between requests
                    Ok(0) => {
                        eof = true; // EOF mid-line: serve it, then hang up
                        break;
                    }
                    Ok(_) if line.last() == Some(&b'\n') => break,
                    Ok(_) => {} // hit the cap boundary; loop re-checks it
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        idle_ms += chunk_ms;
                        if self.stopped() || idle_ms >= self.cfg.read_timeout_ms {
                            return;
                        }
                    }
                    Err(_) => return, // hard I/O error
                }
            }
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let req = match JsonValue::parse(text) {
                Ok(v) => v,
                Err(e) => {
                    if write_line(&mut out, &error_json("bad_json", &e, None)).is_err() {
                        return;
                    }
                    continue;
                }
            };
            let verb = req
                .get("v")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string();
            let resp = self.dispatch(&verb, &req);
            if write_line(&mut out, &resp).is_err() {
                return;
            }
            if verb == "drain" || eof {
                return;
            }
        }
    }

    fn dispatch(&self, verb: &str, req: &JsonValue) -> JsonValue {
        self.note_verb(if verb.is_empty() { "unknown" } else { verb });
        match verb {
            "ping" => JsonValue::obj(vec![("ok", JsonValue::Bool(true))]),
            "submit" => self.do_submit(req),
            "wait" => self.do_wait(req),
            "result" => self.do_result(req),
            "status" => self.do_status(),
            "cancel" => self.do_cancel(req),
            "metrics" => self.do_metrics(),
            "drain" => self.do_drain(),
            other => error_json("unknown_verb", &format!("no verb `{other}`"), None),
        }
    }

    /// The tenant gate: refill + charge the token bucket, enforce the
    /// in-flight cap. Runs before the queue ever sees the job.
    fn gate(&self, tenant: &str) -> Result<(), RejectReason> {
        let now = self.clock.now_us();
        let mut map = self.tenants.lock();
        let burst = self.cfg.burst.max(1.0);
        let g = map.entry(tenant.to_string()).or_insert_with(|| TenantGate {
            tokens: burst,
            last_us: now,
            outstanding: Vec::new(),
        });
        if self.cfg.rate_per_s > 0.0 {
            let dt = ((now - g.last_us) / 1e6).max(0.0);
            g.tokens = (g.tokens + dt * self.cfg.rate_per_s).min(burst);
            g.last_us = now;
            if g.tokens < 1.0 {
                let retry_after_ms =
                    (((1.0 - g.tokens) / self.cfg.rate_per_s) * 1000.0).ceil() as u64;
                return Err(RejectReason::RateLimited {
                    retry_after_ms: retry_after_ms.max(1),
                });
            }
        }
        if self.cfg.max_inflight > 0 {
            // Lazy sweep: an id leaves the ledger once it has a result.
            let server = &self.server;
            g.outstanding.retain(|id| server.peek_result(id).is_none());
            if g.outstanding.len() >= self.cfg.max_inflight {
                return Err(RejectReason::InFlight {
                    limit: self.cfg.max_inflight,
                });
            }
        }
        if self.cfg.rate_per_s > 0.0 {
            g.tokens -= 1.0;
        }
        Ok(())
    }

    fn do_submit(&self, req: &JsonValue) -> JsonValue {
        let spec = match req.get("job").ok_or("submit needs `job`".to_string()) {
            Ok(j) => match JobSpec::from_json(j) {
                Ok(s) => s,
                Err(e) => return error_json("invalid", &e, None),
            },
            Err(e) => return error_json("invalid", &e, None),
        };
        let id = spec.id.clone();
        if let Err(why) = self.gate(&spec.tenant) {
            self.note_reject(why.code());
            return reject_json(Some(&id), &why);
        }
        let tenant = spec.tenant.clone();
        match self.server.submit(spec) {
            Ok(()) => {
                if self.cfg.max_inflight > 0 {
                    self.tenants
                        .lock()
                        .entry(tenant)
                        .and_modify(|g| g.outstanding.push(id.clone()));
                }
                JsonValue::obj(vec![
                    ("ok", JsonValue::Bool(true)),
                    ("id", JsonValue::Str(id)),
                ])
            }
            Err(why) => {
                self.note_reject(why.code());
                reject_json(Some(&id), &why)
            }
        }
    }

    fn do_wait(&self, req: &JsonValue) -> JsonValue {
        let Some(id) = req.get("id").and_then(JsonValue::as_str) else {
            return error_json("invalid", "wait needs `id`", None);
        };
        let timeout_ms = req
            .get_f64("timeout_ms")
            .map(|x| x.max(0.0) as u64)
            .unwrap_or(self.cfg.max_wait_ms)
            .min(self.cfg.max_wait_ms);
        match self
            .server
            .wait_result(id, Duration::from_millis(timeout_ms))
        {
            Some(r) => JsonValue::obj(vec![("ok", JsonValue::Bool(true)), ("result", r.to_json())]),
            None => error_json(
                "timeout",
                &format!("job `{id}` has no result after {timeout_ms} ms"),
                Some(timeout_ms.max(1)),
            ),
        }
    }

    fn do_result(&self, req: &JsonValue) -> JsonValue {
        let Some(id) = req.get("id").and_then(JsonValue::as_str) else {
            return error_json("invalid", "result needs `id`", None);
        };
        match self.server.peek_result(id) {
            Some(r) => JsonValue::obj(vec![("ok", JsonValue::Bool(true)), ("result", r.to_json())]),
            None => error_json("pending", &format!("job `{id}` has no result yet"), None),
        }
    }

    fn do_status(&self) -> JsonValue {
        let st = self.server.stats();
        JsonValue::obj(vec![
            ("ok", JsonValue::Bool(true)),
            ("pending", JsonValue::Num(st.pending as f64)),
            ("running", JsonValue::Num(st.running as f64)),
            ("completed", JsonValue::Num(st.completed as f64)),
            ("rejected", JsonValue::Num(st.rejected as f64)),
            ("closed", JsonValue::Bool(st.closed)),
            ("wal_bytes", JsonValue::Num(st.wal_bytes as f64)),
            (
                "connections",
                JsonValue::Num(self.conns.load(Ordering::SeqCst) as f64),
            ),
        ])
    }

    fn do_cancel(&self, req: &JsonValue) -> JsonValue {
        let Some(id) = req.get("id").and_then(JsonValue::as_str) else {
            return error_json("invalid", "cancel needs `id`", None);
        };
        if self.server.cancel(id) {
            JsonValue::obj(vec![("ok", JsonValue::Bool(true))])
        } else {
            error_json(
                "not_cancellable",
                &format!("job `{id}` is not queued (running, finished, or unknown)"),
                None,
            )
        }
    }

    fn do_metrics(&self) -> JsonValue {
        match self.server.metrics() {
            Some(m) => JsonValue::obj(vec![
                ("ok", JsonValue::Bool(true)),
                ("text", JsonValue::Str(m.render_text())),
            ]),
            None => error_json(
                "no_metrics",
                "server has no metrics registry attached",
                None,
            ),
        }
    }

    fn do_drain(&self) -> JsonValue {
        // Close the queue, run it dry, then stop the accept loop: the
        // response is written only after every accepted job finished.
        self.server.drain();
        self.stop();
        let st = self.server.stats();
        JsonValue::obj(vec![
            ("ok", JsonValue::Bool(true)),
            ("completed", JsonValue::Num(st.completed as f64)),
            ("rejected", JsonValue::Num(st.rejected as f64)),
        ])
    }
}

/// Serialize one response line (`\n`-terminated, flushed).
fn write_line(out: &mut TcpStream, v: &JsonValue) -> io::Result<()> {
    let mut text = v.to_string();
    text.push('\n');
    out.write_all(text.as_bytes())?;
    out.flush()
}

/// A generic failure response.
fn error_json(code: &str, detail: &str, retry_after_ms: Option<u64>) -> JsonValue {
    let mut pairs = vec![
        ("ok", JsonValue::Bool(false)),
        ("reason", JsonValue::Str(code.into())),
        ("detail", JsonValue::Str(detail.into())),
    ];
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms", JsonValue::Num(ms as f64)));
    }
    JsonValue::obj(pairs)
}

/// A failure response from a [`RejectReason`], with its backoff hint.
fn reject_json(id: Option<&str>, why: &RejectReason) -> JsonValue {
    let mut pairs = vec![
        ("ok", JsonValue::Bool(false)),
        ("reason", JsonValue::Str(why.code().into())),
        ("detail", JsonValue::Str(why.to_string())),
    ];
    if let Some(id) = id {
        pairs.insert(1, ("id", JsonValue::Str(id.into())));
    }
    if let Some(ms) = why.retry_after_ms() {
        pairs.push(("retry_after_ms", JsonValue::Num(ms as f64)));
    }
    JsonValue::obj(pairs)
}

/// A small blocking client for the line-JSONL protocol — what the
/// `fcix client` subcommand and the CI smoke test drive.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    out: TcpStream,
}

impl NetClient {
    /// Connect with symmetric read/write timeouts.
    pub fn connect(addr: &str, timeout_ms: u64) -> io::Result<NetClient> {
        let out = TcpStream::connect(addr)?;
        out.set_read_timeout(Some(Duration::from_millis(timeout_ms)))?;
        out.set_write_timeout(Some(Duration::from_millis(timeout_ms)))?;
        let reader = BufReader::new(out.try_clone()?);
        Ok(NetClient { reader, out })
    }

    /// One request/response round trip.
    pub fn request(&mut self, req: &JsonValue) -> io::Result<JsonValue> {
        let mut text = req.to_string();
        text.push('\n');
        self.out.write_all(text.as_bytes())?;
        self.out.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        JsonValue::parse(line.trim())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Submit a job; the response carries `ok` or a reject.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<JsonValue> {
        self.request(&JsonValue::obj(vec![
            ("v", JsonValue::Str("submit".into())),
            ("job", spec.to_json()),
        ]))
    }

    /// Submit treating a `duplicate_id` reject as success — the
    /// at-least-once client loop: after a reconnect, a duplicate means
    /// the previous attempt's acceptance record survived the crash.
    /// `None` means accepted; any other reject comes back as the
    /// response, `retry_after_ms` hint included.
    pub fn submit_idempotent(&mut self, spec: &JobSpec) -> io::Result<Option<JsonValue>> {
        let resp = self.submit(spec)?;
        let ok = resp.get("ok") == Some(&JsonValue::Bool(true));
        let dup = resp.get("reason").and_then(JsonValue::as_str) == Some("duplicate_id");
        Ok((!ok && !dup).then_some(resp))
    }

    /// Block server-side until `id` has a result or `timeout_ms` passes.
    pub fn wait(&mut self, id: &str, timeout_ms: u64) -> io::Result<JsonValue> {
        self.request(&JsonValue::obj(vec![
            ("v", JsonValue::Str("wait".into())),
            ("id", JsonValue::Str(id.into())),
            ("timeout_ms", JsonValue::Num(timeout_ms as f64)),
        ]))
    }

    /// Non-blocking result fetch.
    pub fn result(&mut self, id: &str) -> io::Result<JsonValue> {
        self.request(&JsonValue::obj(vec![
            ("v", JsonValue::Str("result".into())),
            ("id", JsonValue::Str(id.into())),
        ]))
    }

    /// Queue counters.
    // lint: allow(dead) — the client half of the `status` verb; `fcix client` never asks, the wire tests do
    pub fn status(&mut self) -> io::Result<JsonValue> {
        self.request(&JsonValue::obj(vec![(
            "v",
            JsonValue::Str("status".into()),
        )]))
    }

    /// Cancel a queued job.
    pub fn cancel(&mut self, id: &str) -> io::Result<JsonValue> {
        self.request(&JsonValue::obj(vec![
            ("v", JsonValue::Str("cancel".into())),
            ("id", JsonValue::Str(id.into())),
        ]))
    }

    /// Drain the server: every accepted job completes, then it stops.
    pub fn drain(&mut self) -> io::Result<JsonValue> {
        self.request(&JsonValue::obj(vec![("v", JsonValue::Str("drain".into()))]))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<bool> {
        let resp = self.request(&JsonValue::obj(vec![("v", JsonValue::Str("ping".into()))]))?;
        Ok(resp.get("ok") == Some(&JsonValue::Bool(true)))
    }
}
