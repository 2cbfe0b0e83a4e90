//! The job server: priority queue with tenant fairness, admission
//! control, batching coalescer, and a scoped worker pool.
//!
//! # Determinism
//!
//! The same job set with the same seeds produces bitwise-identical
//! per-job energies at any worker count. Two design rules make that
//! hold without any cross-worker coordination:
//!
//! 1. **Scheduling is a pure function of queue content.** The next unit
//!    of work is `argmin` over pending jobs of `(−priority,
//!    tenant_credit, submit_seq)`, computed under the queue lock, and a
//!    batch takes *every* coalescible pending job at once. For a
//!    preloaded queue the k-th dequeue therefore always sees the same
//!    pending set — `all − first k−1 batches` — no matter which thread
//!    performs it or how long solves take, so the sequence of batches
//!    (and each batch's root count) is identical at T=1 and T=16.
//! 2. **Solves never share mutable state.** Workers read determinant
//!    spaces and Hamiltonians through immutable `Arc`s from the
//!    [`ArtifactCache`], and each solve runs its own virtual DDI world
//!    and seeded fault plan, so a cache hit (or eviction) can change
//!    wall time but never a floating-point result.
//!
//! Host time is read from an [`fci_obs::Tracer`] (the repo's wall-clock
//! rule) and is reported, never consulted for scheduling.

use crate::cache::{Artifact, ArtifactCache, CacheKey};
use crate::result::{JobResult, JobStatus, RejectReason, ServeReport};
use crate::spec::JobSpec;
use crate::wal::{Replay, Wal, WalRecord};
use fci_core::recovery::filename_safe;
use fci_core::{
    build_space, solve_prepared, solve_resilient_prepared, solve_roots_prepared, DetSpace,
    Hamiltonian, RecoveryOptions, SolverKind,
};
use fci_obs::{Category, ObsConfig, Tracer, TrackedCondvar, TrackedMutex};
use fci_sparse::{solve_cdfci, solve_selected, SparseOptions, SparseResult};
use fci_strings::binomial;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The most processors a job may ask for: the 432 MSPs of the paper's
/// largest run, which no committed run exceeds.
const MAX_NPROC: usize = 432;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Artifact-cache byte budget (0 disables caching).
    pub cache_budget: usize,
    /// Admission ceiling: jobs whose estimated working set exceeds this
    /// are rejected at submit.
    pub mem_budget: usize,
    /// Queue capacity; submissions beyond it are rejected (backpressure).
    pub queue_cap: usize,
    /// Coalesce same-space Davidson jobs into multi-root solves.
    pub batching: bool,
    /// Directory for per-job resilient-solve checkpoints.
    pub checkpoint_dir: PathBuf,
    /// Server-level telemetry (job lifecycle + cache instants).
    pub obs: ObsConfig,
    /// When set, each job's solve writes its own trace file here
    /// (`job-<id>.trace.jsonl`).
    pub job_trace_dir: Option<PathBuf>,
    /// When set, accepted jobs and their state transitions are appended
    /// to this write-ahead log before they are acknowledged, and
    /// [`Server::recover`] replays it on startup (crash-exactly-once).
    pub wal_path: Option<PathBuf>,
    /// `fdatasync` the WAL per append (power-loss durability; process
    /// crashes are covered without it).
    pub wal_sync: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            cache_budget: 256 << 20,
            mem_budget: 1 << 30,
            queue_cap: 1024,
            batching: true,
            checkpoint_dir: std::env::temp_dir(),
            obs: ObsConfig::off(),
            job_trace_dir: None,
            wal_path: None,
            wal_sync: false,
        }
    }
}

/// A point-in-time view of the queue for the `STATUS` verb and tests.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueueStats {
    /// Jobs accepted but not yet dispatched.
    pub pending: usize,
    /// Jobs currently in a solve.
    pub running: usize,
    /// Jobs with a terminal result.
    pub completed: usize,
    /// Submissions refused by admission control.
    pub rejected: usize,
    /// No further submissions are accepted.
    pub closed: bool,
    /// Write-ahead log size in bytes (0 when durability is off).
    pub wal_bytes: u64,
}

/// What one job's solve produced — `(status, energy, converged,
/// iterations, restarts)` — before [`Server::complete`] stamps it into a
/// [`JobResult`].
type Outcome = (JobStatus, f64, bool, usize, usize);

fn failed(why: String) -> Outcome {
    (JobStatus::Failed(why), f64::NAN, false, 0, 0)
}

fn root_outside(root: usize, sector_dim: usize) -> Outcome {
    failed(format!(
        "root {root} outside sector of {sector_dim} determinants"
    ))
}

struct Queued {
    spec: JobSpec,
    seq: u64,
    /// Host µs at submit (reporting only — never drives scheduling).
    submit_us: f64,
    /// Slot in the results vector (submission order).
    out: usize,
}

#[derive(Default)]
struct QueueState {
    pending: Vec<Queued>,
    running: usize,
    /// No further submissions; workers may exit once drained.
    closed: bool,
    /// Abandon queued work (in-flight solves still complete).
    shutdown: bool,
    /// Jobs dispatched per tenant — the fairness currency.
    tenant_credit: HashMap<String, u64>,
    /// Every accepted job id, with its slot in the results vector.
    ids: HashMap<String, usize>,
    next_seq: u64,
}

/// A running job server. Construct with [`Server::new`], feed it with
/// [`Server::submit`], drain it with [`serve`] / [`serve_with`].
pub struct Server {
    cfg: ServeConfig,
    cache: ArtifactCache,
    /// Event stream (may be disabled).
    trace: Tracer,
    /// Host-time source; always enabled, events discarded.
    clock: Tracer,
    state: TrackedMutex<QueueState>,
    work: TrackedCondvar,
    results: TrackedMutex<Vec<Option<JobResult>>>,
    rejected: TrackedMutex<Vec<(String, RejectReason)>>,
    /// Write-ahead log (absent when `cfg.wal_path` is unset).
    wal: Option<TrackedMutex<Wal>>,
    /// Signalled whenever a result lands; [`Server::wait_result`] parks here.
    done: TrackedCondvar,
}

impl Server {
    /// A server with an empty queue. With `cfg.wal_path` set, an
    /// existing log is replayed exactly as [`Server::recover`] would —
    /// but open failures downgrade to a warning with durability off,
    /// and the replay detail is discarded.
    pub fn new(cfg: ServeConfig) -> Server {
        let fallback = ServeConfig {
            wal_path: None,
            ..cfg.clone()
        };
        match Server::recover(cfg) {
            Ok((server, replay)) => {
                for w in &replay.warnings {
                    eprintln!("warning: WAL recovery: {w}");
                }
                server
            }
            Err(e) => {
                eprintln!("warning: could not open WAL: {e}; durability disabled");
                let (server, _) = Server::recover(fallback).unwrap_or_else(|_| unreachable!());
                server
            }
        }
    }

    /// Open the server against its write-ahead log: replay the log,
    /// pre-fill results for jobs whose completion record survived,
    /// re-enqueue accepted-but-unfinished jobs that pass admission, and
    /// compact the log. A logged job admission refuses (a log written
    /// before admission refused it) is refused again: it goes to the
    /// report's refusals and to [`Replay::rejected`] with its reason, and
    /// leaves the log with a `Rejected` record, so no restart runs it.
    /// With `cfg.wal_path` unset this is [`Server::new`] with an empty
    /// [`Replay`]. `Err` means the log could not be opened or rewritten
    /// (replayed *damage* is never an error — it is counted in
    /// [`Replay::warnings`]).
    pub fn recover(cfg: ServeConfig) -> std::io::Result<(Server, Replay)> {
        let trace = cfg.obs.tracer_or_warn();
        if let Err(e) = std::fs::create_dir_all(&cfg.checkpoint_dir) {
            // Resilient jobs will surface the error per job.
            eprintln!(
                "warning: could not create checkpoint dir {}: {e}",
                cfg.checkpoint_dir.display()
            );
        }
        let (wal, replay, refused) = match &cfg.wal_path {
            Some(path) => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir)?;
                }
                let (mut wal, mut replay) = Wal::open(path)?;
                wal.set_sync(cfg.wal_sync);
                let refused = refuse_pending(&cfg, &mut replay);
                // Rewrite to just the live records so terminal records
                // of past generations never accumulate.
                wal.compact(&replay)?;
                for (id, why) in &refused {
                    wal.append(&WalRecord::Rejected {
                        id: id.clone(),
                        reason: why.to_string(),
                    })?;
                }
                (Some(wal), replay, refused)
            }
            None => (None, Replay::default(), Vec::new()),
        };
        // Pre-fill the queue and results as plain values *before* any
        // mutex wraps them: construction acquires no locks, so the lock
        // graph sees only the steady-state orderings.
        let clock = Tracer::in_memory();
        let mut st = QueueState::default();
        let mut results: Vec<Option<JobResult>> = Vec::new();
        for r in &replay.completed {
            st.ids.entry(r.id.clone()).or_insert(results.len());
            results.push(Some(r.clone()));
        }
        for spec in &replay.pending {
            st.ids.entry(spec.id.clone()).or_insert(results.len());
            let seq = st.next_seq;
            st.next_seq += 1;
            results.push(None);
            st.pending.push(Queued {
                submit_us: clock.now_us(),
                spec: spec.clone(),
                seq,
                out: results.len() - 1,
            });
        }
        let refusals = refused.len();
        let server = Server {
            cache: ArtifactCache::new(cfg.cache_budget),
            trace,
            clock,
            cfg,
            state: TrackedMutex::new("Server.state", st),
            work: TrackedCondvar::new("Server.work"),
            results: TrackedMutex::new("Server.results", results),
            rejected: TrackedMutex::new("Server.rejected", refused),
            wal: wal.map(|w| TrackedMutex::new("Server.wal", w)),
            done: TrackedCondvar::new("Server.done"),
        };
        server.trace.instant(
            None,
            "wal_recovered",
            Category::Other,
            &[
                ("pending", replay.pending.len() as f64),
                ("completed", replay.completed.len() as f64),
                ("warnings", replay.warnings.len() as f64),
            ],
        );
        for _ in 0..refusals {
            server
                .trace
                .instant(None, "job_rejected", Category::Other, &[("count", 1.0)]);
        }
        Ok((server, replay))
    }

    /// The artifact cache (stats inspection).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Server trace events so far (in-memory tracing only).
    pub fn events(&self) -> Option<Vec<fci_obs::Event>> {
        self.trace.events()
    }

    /// The server-level metrics registry, when `cfg.obs` attached one.
    /// Live while the server runs — a snapshot thread can render it
    /// concurrently with workers recording into it.
    pub fn metrics(&self) -> Option<&fci_obs::MetricsRegistry> {
        self.trace.metrics()
    }

    /// Emit a label-only instant on the server trace: the network front
    /// end's `net_request{verb}` and `net_reject{reason}`.
    pub(crate) fn note(&self, name: &str, label: (&str, &str)) {
        self.trace
            .instant_labelled(None, name, Category::Other, &[], &[label]);
    }

    /// Emit the job-completion instant, labelled with the job's tenant.
    fn note_job(&self, q: &Queued, done: bool, queue_us: f64, exec_us: f64) {
        self.trace.instant_labelled(
            None,
            if done { "job_done" } else { "job_failed" },
            Category::Other,
            &[
                ("seq", q.seq as f64),
                ("queue_us", queue_us),
                ("exec_us", exec_us),
            ],
            &[("tenant", &q.spec.tenant)],
        );
    }

    /// Append to the WAL (no-op without one), then emit a `wal_append`
    /// instant carrying the log's length.
    fn wal_append(&self, rec: &WalRecord) -> std::io::Result<()> {
        let len = self.wal_write(rec)?;
        self.trace_wal_append(len);
        Ok(())
    }

    /// Append to the WAL and return the log's length (`None` without a
    /// WAL); the caller emits [`Server::trace_wal_append`] once it holds
    /// no lock. Safe to call with the state lock held: `Server.wal` is a
    /// leaf of the lock graph — nothing else is ever acquired while
    /// holding it.
    fn wal_write(&self, rec: &WalRecord) -> std::io::Result<Option<u64>> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        let mut w = wal.lock();
        w.append(rec)?;
        Ok(Some(w.len()))
    }

    /// The `wal_append` instant of an append that returned `len`.
    fn trace_wal_append(&self, len: Option<u64>) {
        if let Some(len) = len {
            self.trace.instant(
                None,
                "wal_append",
                Category::Other,
                &[("bytes", len as f64)],
            );
        }
    }

    /// Record a refused submission (report + trace + WAL) and hand the
    /// reason back. Must be called with no queue locks held.
    fn reject(&self, id: &str, why: RejectReason) -> RejectReason {
        if let Err(e) = self.wal_append(&WalRecord::Rejected {
            id: id.to_string(),
            reason: why.to_string(),
        }) {
            eprintln!("warning: WAL append (reject {id}) failed: {e}");
        }
        self.rejected.lock().push((id.to_string(), why.clone()));
        self.trace
            .instant(None, "job_rejected", Category::Other, &[("count", 1.0)]);
        why
    }

    /// Submit a job. `Err` is the backpressure path: the reason is also
    /// recorded in the final report. With a WAL attached, `Ok` means the
    /// acceptance record is durable — a crash after this returns cannot
    /// lose the job.
    pub fn submit(&self, spec: JobSpec) -> Result<(), RejectReason> {
        if let Err(why) = Server::admit(&self.cfg, &spec) {
            return Err(self.reject(&spec.id, why));
        }
        let mut st = self.state.lock();
        if st.closed || st.shutdown {
            drop(st);
            let why = RejectReason::Invalid("server is shutting down".into());
            return Err(self.reject(&spec.id, why));
        }
        if st.ids.contains_key(&spec.id) {
            drop(st);
            return Err(self.reject(&spec.id, RejectReason::DuplicateId));
        }
        if st.pending.len() >= self.cfg.queue_cap {
            drop(st);
            let why = RejectReason::QueueFull {
                capacity: self.cfg.queue_cap,
            };
            return Err(self.reject(&spec.id, why));
        }
        // Durability point: the acceptance record must be on disk before
        // the job becomes visible anywhere (still under the state lock,
        // so the duplicate-id check and the log agree).
        let wal_len = match self.wal_write(&WalRecord::Submitted {
            spec: Box::new(spec.clone()),
        }) {
            Ok(len) => len,
            Err(e) => {
                drop(st);
                let why = RejectReason::Invalid(format!("write-ahead log append failed: {e}"));
                self.rejected.lock().push((spec.id.clone(), why.clone()));
                self.trace
                    .instant(None, "job_rejected", Category::Other, &[("count", 1.0)]);
                return Err(why);
            }
        };
        let seq = st.next_seq;
        st.next_seq += 1;
        let out = {
            let mut res = self.results.lock();
            res.push(None);
            res.len() - 1
        };
        st.ids.insert(spec.id.clone(), out);
        st.pending.push(Queued {
            submit_us: self.clock.now_us(),
            spec,
            seq,
            out,
        });
        let depth = st.pending.len();
        drop(st);
        // Trace output (a file, a registry) is written with no lock held,
        // so a slow trace stalls no submitter and no worker.
        self.trace_wal_append(wal_len);
        self.trace.instant(
            None,
            "job_submit",
            Category::Other,
            &[("seq", seq as f64), ("depth", depth as f64)],
        );
        self.work.notify_all();
        Ok(())
    }

    /// Cancel a queued job. Returns `false` if it already started (or
    /// was never accepted) — running solves are not interrupted.
    pub fn cancel(&self, id: &str) -> bool {
        let mut st = self.state.lock();
        let Some(pos) = st.pending.iter().position(|q| q.spec.id == id) else {
            return false;
        };
        let q = st.pending.remove(pos);
        drop(st);
        self.finish(
            &q,
            JobResult {
                id: q.spec.id.clone(),
                tenant: q.spec.tenant.clone(),
                status: JobStatus::Cancelled,
                energy: f64::NAN,
                converged: false,
                iterations: 0,
                sector_dim: 0,
                batch_size: 0,
                restarts: 0,
                queue_us: self.clock.now_us() - q.submit_us,
                exec_us: 0.0,
            },
        );
        true
    }

    /// No further submissions; workers exit once the queue drains.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.work.notify_all();
    }

    /// Graceful shutdown: queued jobs are abandoned (reported as
    /// `Shutdown`); in-flight solves run to completion.
    // lint: allow(dead) — the abandon-the-queue exit no front end offers yet; the serve tests pin it
    pub fn shutdown(&self) {
        let abandoned = {
            let mut st = self.state.lock();
            st.shutdown = true;
            st.closed = true;
            std::mem::take(&mut st.pending)
        };
        for q in &abandoned {
            self.finish(
                q,
                JobResult {
                    id: q.spec.id.clone(),
                    tenant: q.spec.tenant.clone(),
                    status: JobStatus::Shutdown,
                    energy: f64::NAN,
                    converged: false,
                    iterations: 0,
                    sector_dim: 0,
                    batch_size: 0,
                    restarts: 0,
                    queue_us: self.clock.now_us() - q.submit_us,
                    exec_us: 0.0,
                },
            );
        }
        self.work.notify_all();
    }

    /// Admission control: validate the spec and check its estimated
    /// working set against `cfg`'s memory budget.
    fn admit(cfg: &ServeConfig, spec: &JobSpec) -> Result<(), RejectReason> {
        let n = spec.problem.n_orb();
        if n == 0 || n > 64 {
            return Err(RejectReason::Invalid(format!("{n} orbitals unsupported")));
        }
        if spec.n_alpha == 0 || spec.n_alpha > n || spec.n_beta > n {
            return Err(RejectReason::Invalid(format!(
                "{}α/{}β electrons in {n} orbitals",
                spec.n_alpha, spec.n_beta
            )));
        }
        // Every served recipe is C1: irrep 0 is the only sector.
        if spec.target_irrep != 0 {
            return Err(RejectReason::Invalid(format!(
                "irrep {} on a C1 problem",
                spec.target_irrep
            )));
        }
        // A dense job runs `nproc` simulated ranks, a sparse one `nproc`
        // host threads: zero cannot run, and no committed run uses more
        // than the paper's 432 MSPs.
        if spec.nproc == 0 || spec.nproc > MAX_NPROC {
            return Err(RejectReason::Invalid(format!(
                "{} processors (1..={MAX_NPROC})",
                spec.nproc
            )));
        }
        if spec.root > 0 && !spec.may_batch() && spec.solver != SolverKind::SparseSelected {
            return Err(RejectReason::Invalid(
                "excited-state jobs must be batchable Davidson or selected CI".into(),
            ));
        }
        let need = estimated_bytes(spec);
        if need > cfg.mem_budget {
            return Err(RejectReason::MemoryBudget {
                need,
                budget: cfg.mem_budget,
            });
        }
        Ok(())
    }

    /// One worker: dequeue batches until the queue is closed and dry.
    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if !st.pending.is_empty() {
                        break self.take_batch(&mut st);
                    }
                    if st.closed && st.running == 0 {
                        return;
                    }
                    st = self.work.wait(st);
                }
            };
            self.execute(batch);
            self.state.lock().running -= 1;
            self.work.notify_all();
        }
    }

    /// Pick the next unit of work (queue lock held). See the module docs
    /// for why this is deterministic at any worker count.
    fn take_batch(&self, st: &mut QueueState) -> Vec<Queued> {
        let pick = st
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| {
                (
                    -q.spec.priority,
                    st.tenant_credit.get(&q.spec.tenant).copied().unwrap_or(0),
                    q.seq,
                )
            })
            .map(|(i, _)| i)
            .unwrap_or_else(|| unreachable!());
        let mut batch = vec![st.pending.remove(pick)];
        if self.cfg.batching && batch[0].spec.may_batch() {
            let key = batch[0].spec.batch_hash();
            let mut i = 0;
            while i < st.pending.len() {
                if st.pending[i].spec.may_batch() && st.pending[i].spec.batch_hash() == key {
                    batch.push(st.pending.remove(i));
                } else {
                    i += 1;
                }
            }
        }
        for q in &batch {
            *st.tenant_credit.entry(q.spec.tenant.clone()).or_insert(0) += 1;
        }
        st.running += 1;
        batch
    }

    /// Run one batch (no locks held).
    fn execute(&self, batch: Vec<Queued>) {
        let start_us = self.clock.now_us();
        for q in &batch {
            self.trace
                .instant(None, "job_start", Category::Other, &[("seq", q.seq as f64)]);
            // Progress marker; replay re-runs started-but-unfinished
            // jobs (resilient ones resume from their own checkpoint).
            if let Err(e) = self.wal_append(&WalRecord::Started {
                id: q.spec.id.clone(),
            }) {
                eprintln!("warning: WAL append (start {}) failed: {e}", q.spec.id);
            }
        }
        let spec0 = &batch[0].spec;
        let (space, ham) = self.artifacts(spec0);
        let sector_dim = space.sector_dim();
        self.trace.instant(
            None,
            "batch_solve",
            Category::Other,
            &[("jobs", batch.len() as f64)],
        );
        if batch.len() > 1 {
            self.execute_multiroot(&batch, &space, &ham, sector_dim, start_us);
        } else {
            self.execute_single(&batch[0], &space, &ham, sector_dim, start_us);
        }
    }

    /// Resolve the space and Hamiltonian through the artifact cache,
    /// emitting hit/miss instants.
    fn artifacts(&self, spec: &JobSpec) -> (Arc<DetSpace>, Arc<Hamiltonian>) {
        let phash = spec.problem.content_hash();
        let (ints_art, ints_hit) = self.cache.get_or_build(CacheKey::Ints(phash), || {
            Artifact::Ints(Arc::new(spec.problem.build()))
        });
        self.note_cache(ints_hit);
        let Artifact::Ints(ints) = ints_art else {
            unreachable!()
        };
        let (ham_art, ham_hit) = self.cache.get_or_build(CacheKey::Ham(phash), || {
            Artifact::Ham(Arc::new(Hamiltonian::new(&ints)))
        });
        self.note_cache(ham_hit);
        let Artifact::Ham(ham) = ham_art else {
            unreachable!()
        };
        let (space_art, space_hit) =
            self.cache
                .get_or_build(CacheKey::Space(spec.space_hash()), || {
                    Artifact::Space(Arc::new(build_space(
                        &ham,
                        spec.n_alpha,
                        spec.n_beta,
                        spec.target_irrep,
                        spec.excitation_level,
                    )))
                });
        self.note_cache(space_hit);
        let Artifact::Space(space) = space_art else {
            unreachable!()
        };
        (space, ham)
    }

    fn note_cache(&self, hit: bool) {
        let name = if hit { "cache_hit" } else { "cache_miss" };
        self.trace
            .instant(None, name, Category::Other, &[("count", 1.0)]);
    }

    /// Per-job solver options, including the per-job trace file.
    fn job_options(&self, spec: &JobSpec) -> fci_core::FciOptions {
        let mut opts = spec.fci_options();
        if let Some(dir) = &self.cfg.job_trace_dir {
            let safe = filename_safe(&spec.id);
            opts.obs = ObsConfig::to_file(dir.join(format!("job-{safe}.trace.jsonl")));
        }
        opts
    }

    fn execute_single(
        &self,
        q: &Queued,
        space: &DetSpace,
        ham: &Hamiltonian,
        sector_dim: usize,
        start_us: f64,
    ) {
        let spec = &q.spec;
        let opts = self.job_options(spec);
        let sparse_engine: Option<fn(&DetSpace, &Hamiltonian, &SparseOptions) -> SparseResult> =
            match spec.solver {
                SolverKind::Dense => None,
                SolverKind::SparseCdfci => Some(solve_cdfci),
                SolverKind::SparseSelected => Some(solve_selected),
            };
        let outcome = if let Some(engine) = sparse_engine {
            let so = SparseOptions {
                threads: spec.nproc.max(1),
                max_store: spec.sparse_cap,
                eps: spec.eps,
                tol: spec.tol,
                max_outer: spec.max_iter.max(1),
                nroots: spec.root + 1,
                obs: opts.obs.clone(),
                ..SparseOptions::default()
            };
            let r = engine(space, ham, &so);
            if spec.root < r.energies.len() {
                (
                    JobStatus::Done,
                    r.energies[spec.root],
                    r.converged,
                    r.iterations,
                    0,
                )
            } else {
                failed(format!(
                    "sparse solve produced {} roots, job wants root {}",
                    r.energies.len(),
                    spec.root
                ))
            }
        } else if spec.root > 0 && spec.root >= sector_dim {
            root_outside(spec.root, sector_dim)
        } else if spec.root > 0 {
            // An excited-state job that didn't coalesce still needs the
            // block solver — single-vector schemes only reach root 0.
            let r = solve_roots_prepared(space, ham, &opts, spec.root + 1);
            (
                JobStatus::Done,
                r.energies[spec.root],
                r.converged[spec.root],
                r.iterations,
                0,
            )
        } else if spec.resilient {
            let rec =
                RecoveryOptions::for_job(&self.cfg.checkpoint_dir, &spec.id, spec.space_hash());
            match solve_resilient_prepared(space, ham, &opts, &rec) {
                Ok(r) => (
                    JobStatus::Done,
                    r.fci.energy,
                    r.fci.converged,
                    r.fci.iterations,
                    r.restarts,
                ),
                Err(e) => failed(e.to_string()),
            }
        } else {
            let r = solve_prepared(space, ham, &opts);
            (JobStatus::Done, r.energy, r.converged, r.iterations, 0)
        };
        self.complete(q, outcome, sector_dim, 1, start_us, self.clock.now_us());
    }

    fn execute_multiroot(
        &self,
        batch: &[Queued],
        space: &DetSpace,
        ham: &Hamiltonian,
        sector_dim: usize,
        start_us: f64,
    ) {
        // Jobs asking for roots beyond the sector fail; the rest share
        // one block solve sized by the highest surviving root.
        let solvable: Vec<&Queued> = batch.iter().filter(|q| q.spec.root < sector_dim).collect();
        let nroots = solvable.iter().map(|q| q.spec.root + 1).max().unwrap_or(0);
        let roots = if nroots > 0 {
            // Batch members share solver knobs by construction (they
            // agree on `batch_hash`), so the first job's options stand
            // for the whole batch.
            let opts = self.job_options(&solvable[0].spec);
            Some(solve_roots_prepared(space, ham, &opts, nroots))
        } else {
            None
        };
        let done_us = self.clock.now_us();
        for q in batch {
            let root = q.spec.root;
            let mut outcome = match &roots {
                Some(r) if root < sector_dim => {
                    (JobStatus::Done, r.energies[root], r.converged[root], 0, 0)
                }
                _ => root_outside(root, sector_dim),
            };
            // Every member, failed or not, reports the shared solve's
            // iteration count.
            outcome.3 = roots.as_ref().map_or(0, |r| r.iterations);
            self.complete(q, outcome, sector_dim, batch.len(), start_us, done_us);
        }
    }

    /// The one place a job's outcome becomes a [`JobResult`]: emit the
    /// completion telemetry, then publish through [`Self::finish`].
    fn complete(
        &self,
        q: &Queued,
        outcome: Outcome,
        sector_dim: usize,
        batch_size: usize,
        start_us: f64,
        done_us: f64,
    ) {
        let (status, energy, converged, iterations, restarts) = outcome;
        let (queue_us, exec_us) = (start_us - q.submit_us, done_us - start_us);
        self.note_job(q, status == JobStatus::Done, queue_us, exec_us);
        self.finish(
            q,
            JobResult {
                id: q.spec.id.clone(),
                tenant: q.spec.tenant.clone(),
                status,
                energy,
                converged,
                iterations,
                sector_dim,
                batch_size,
                restarts,
                queue_us,
                exec_us,
            },
        );
    }

    fn finish(&self, q: &Queued, result: JobResult) {
        // Exactly-once ordering: the completion record (with its result
        // hash) is durable before the result becomes visible. A crash
        // in between replays as "completed" and never re-runs the job;
        // a crash before it replays as "pending" and re-runs it — the
        // in-memory result it shadowed was never observable.
        if let Err(e) = self.wal_append(&WalRecord::Finished {
            rhash: result.result_hash(),
            result: Box::new(result.clone()),
        }) {
            eprintln!("warning: WAL append (finish {}) failed: {e}", result.id);
        }
        self.results.lock()[q.out] = Some(result);
        self.done.notify_all();
    }

    /// The results slot of job `id`, if it was accepted. Takes `state`
    /// and drops it before the caller takes `results`: `submit` takes
    /// them in the order state → results, so never the other way round.
    fn slot_of(&self, id: &str) -> Option<usize> {
        self.state.lock().ids.get(id).copied()
    }

    /// The result of job `id`, if it reached a terminal state.
    pub fn peek_result(&self, id: &str) -> Option<JobResult> {
        let out = self.slot_of(id)?;
        self.results.lock()[out].clone()
    }

    /// Block until job `id` has a result or `timeout` elapses. Returns
    /// `None` on timeout (the job may still be queued, running, or
    /// simply unknown).
    pub fn wait_result(&self, id: &str, timeout: std::time::Duration) -> Option<JobResult> {
        let start = self.clock.now_us();
        let budget_us = timeout.as_micros() as f64;
        let mut out = None;
        loop {
            // An id not accepted yet may be accepted while this waits.
            if out.is_none() {
                out = self.slot_of(id);
            }
            let res = self.results.lock();
            if let Some(r) = out.and_then(|at| res[at].as_ref()) {
                return Some(r.clone());
            }
            let left = budget_us - (self.clock.now_us() - start);
            if left <= 0.0 {
                return None;
            }
            // Chunked waits bound the window of a lost wake-up race.
            let chunk = std::time::Duration::from_micros(left.min(50_000.0) as u64);
            drop(self.done.wait_timeout(res, chunk));
        }
    }

    /// Close the queue and block until every accepted job has finished.
    pub fn drain(&self) {
        self.close();
        let mut st = self.state.lock();
        while !(st.pending.is_empty() && st.running == 0) {
            let (guard, _) = self
                .work
                .wait_timeout(st, std::time::Duration::from_millis(100));
            st = guard;
        }
    }

    /// Queue counters for the `STATUS` verb.
    pub fn stats(&self) -> QueueStats {
        let (pending, running, closed) = {
            let st = self.state.lock();
            (st.pending.len(), st.running, st.closed || st.shutdown)
        };
        let completed = self.results.lock().iter().flatten().count();
        let rejected = self.rejected.lock().len();
        let wal_bytes = self.wal.as_ref().map_or(0, |w| w.lock().len());
        QueueStats {
            pending,
            running,
            completed,
            rejected,
            closed,
            wal_bytes,
        }
    }

    /// Drain the queue with `workers` scoped threads. Blocks until the
    /// queue is closed (or shut down) *and* dry — call [`Server::close`]
    /// first, or from another thread, or this never returns.
    pub fn run(&self, workers: usize) {
        std::thread::scope(|s| {
            for _ in 0..workers.max(1) {
                s.spawn(|| self.worker_loop());
            }
        });
    }

    /// Consume the server and hand back its results and refusals. The
    /// cache's eviction count goes out as one `cache_evict` instant; every
    /// other tally lives in the metrics plane, fed as the server ran.
    pub fn into_report(self) -> ServeReport {
        let evictions = self.cache.stats().evictions as f64;
        self.trace.instant(
            None,
            "cache_evict",
            Category::Other,
            &[("count", evictions)],
        );
        self.trace.flush();
        ServeReport {
            results: self.results.into_inner().into_iter().flatten().collect(),
            rejected: self.rejected.into_inner(),
        }
    }
}

/// Take the specs [`Server::admit`] refuses out of `replay.pending`, and record
/// them with their reasons in `replay.rejected`.
fn refuse_pending(cfg: &ServeConfig, replay: &mut Replay) -> Vec<(String, RejectReason)> {
    let mut refused = Vec::new();
    replay
        .pending
        .retain(|spec| match Server::admit(cfg, spec) {
            Ok(()) => true,
            Err(why) => {
                refused.push((spec.id.clone(), why));
                false
            }
        });
    replay.rejected.extend(
        refused
            .iter()
            .map(|(id, why)| (id.clone(), why.to_string())),
    );
    refused
}

/// Estimated working set of one job in bytes: integrals + coupling
/// matrices + string tables + the diagonalizer's CI matrices.
///
/// Sparse jobs never allocate the dense CI vectors — their footprint is
/// bounded by the `sparse_cap` determinant store, not the formal sector
/// dimension, which is exactly what lets a 10⁸-determinant sector pass
/// admission control that would reject the dense job.
///
/// The sector-sized terms saturate, so a sector too large to count reads
/// as `usize::MAX` and fails any budget instead of wrapping under it.
pub fn estimated_bytes(spec: &JobSpec) -> usize {
    let n = spec.problem.n_orb();
    let nsa = binomial(n, spec.n_alpha);
    let nsb = binomial(n, spec.n_beta);
    let ham = 8 * (2 * n * n * n * n + n * n);
    let tables = nsa.saturating_add(nsb).saturating_mul(8 * (1 + n * n));
    let work = if spec.solver != SolverKind::Dense {
        // Open-addressing store: ≤ 33 bytes/slot at ≤ 70% load plus the
        // selected engine's CSR/subspace overhead — 64 bytes/determinant
        // is a safe ceiling for both engines.
        spec.sparse_cap.saturating_mul(64)
    } else {
        // Davidson keeps a bounded subspace of CI/σ vectors; single-vector
        // schemes keep ~4. Use the worst case the spec allows.
        nsa.saturating_mul(nsb).saturating_mul(8 * 16)
    };
    ham.saturating_add(tables).saturating_add(work)
}

/// Submit every job, drain the queue with `cfg.workers` scoped threads,
/// and report. Rejected submissions show up in `report.rejected`.
pub fn serve(cfg: ServeConfig, jobs: Vec<JobSpec>) -> ServeReport {
    serve_with(cfg, jobs, |_| {})
}

/// Like [`serve`], but runs `ctl` on the caller thread while workers
/// drain — the hook for cancellation, late submission, and shutdown
/// tests. The queue closes when `ctl` returns.
pub fn serve_with(cfg: ServeConfig, jobs: Vec<JobSpec>, ctl: impl FnOnce(&Server)) -> ServeReport {
    let workers = cfg.workers.max(1);
    let server = Server::new(cfg);
    for job in jobs {
        // Rejections are recorded in the report; nothing to do here.
        let _ = server.submit(job);
    }
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| server.worker_loop());
        }
        ctl(&server);
        server.close();
    });
    server.into_report()
}
