//! The DDI "world": virtual processor set, execution backends, and the
//! dynamic load-balancing counter.

use crate::dist::DistMatrix;
use crate::record::{AccessRecorder, DdiAccess};
use crate::stats::CommStats;
use fci_fault::FaultPlan;
use fci_obs::{Category, FaultKind, Tracer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// How the per-rank closures are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Run ranks one after another on the calling thread. Deterministic;
    /// valid for the FCI σ phases because they only read shared inputs and
    /// accumulate into shared outputs (both order-insensitive).
    Serial,
    /// Run every rank on its own OS thread (std scoped threads).
    /// Exercises the real locking protocol; results are bitwise-reproducible
    /// only up to floating-point addition order in accumulations.
    Threads,
}

/// A virtual machine of `nproc` processors with a task counter.
pub struct Ddi {
    nproc: usize,
    backend: Backend,
    counter: AtomicUsize,
    tracer: OnceLock<Tracer>,
    recorder: OnceLock<Arc<dyn AccessRecorder>>,
    faults: OnceLock<Arc<FaultPlan>>,
}

impl Ddi {
    /// Create a world of `nproc` virtual processors.
    pub fn new(nproc: usize, backend: Backend) -> Self {
        assert!(nproc >= 1, "need at least one processor");
        Ddi {
            nproc,
            backend,
            counter: AtomicUsize::new(0),
            tracer: OnceLock::new(),
            recorder: OnceLock::new(),
            faults: OnceLock::new(),
        }
    }

    /// Number of virtual processors.
    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// The execution backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Attach a tracer; one-sided ops on this world emit events through
    /// it. First attachment wins (the world is shared immutably across
    /// phases). A disabled tracer is accepted and stays inert.
    pub fn attach_tracer(&self, tracer: Tracer) {
        let _ = self.tracer.set(tracer);
    }

    /// The attached tracer (disabled if none was attached).
    pub fn tracer(&self) -> Tracer {
        self.tracer.get().cloned().unwrap_or_default()
    }

    /// Attach a protocol recorder; `nxtval` and `run` then report counter
    /// acquire/release and barrier edges, and matrices adopted via
    /// [`Ddi::adopt`] report their one-sided protocol steps. First
    /// attachment wins.
    pub fn attach_recorder(&self, recorder: Arc<dyn AccessRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<Arc<dyn AccessRecorder>> {
        self.recorder.get().cloned()
    }

    /// Attach a fault plan; `nxtval` then draws stall faults from it,
    /// and matrices adopted via [`Ddi::adopt`] inherit it (their remote
    /// one-sided ops run the checked delivery path). First attachment
    /// wins. With no plan attached nothing changes.
    pub fn attach_faults(&self, plan: Arc<FaultPlan>) {
        let _ = self.faults.set(plan);
    }

    /// The attached fault plan, if any.
    pub fn faults(&self) -> Option<Arc<FaultPlan>> {
        self.faults.get().cloned()
    }

    /// Wire a matrix into this world's observability and fault plane: it
    /// inherits the world's tracer, protocol recorder, and fault plan
    /// (each a no-op if unset).
    pub fn adopt(&self, m: &DistMatrix) {
        if let Some(t) = self.tracer.get() {
            m.attach_tracer(t.clone());
        }
        if let Some(r) = self.recorder.get() {
            m.attach_recorder(r.clone());
        }
        if let Some(p) = self.faults.get() {
            m.attach_faults(p.clone());
        }
    }

    #[inline]
    fn rec(&self, access: DdiAccess) {
        if let Some(r) = self.recorder.get() {
            r.record(&access);
        }
    }

    /// Reset the shared task counter (call before each dynamically
    /// balanced phase).
    pub fn reset_counter(&self) {
        self.counter.store(0, Ordering::SeqCst);
    }

    /// `SHMEM_SWAP`-style shared counter: returns the next global task
    /// number. One counter message is charged to the caller. With a
    /// fault plan attached, the op counts against the plan's simulated
    /// clock and may draw an injected stall, charged as backoff wait.
    pub(crate) fn nxtval(&self, stats: &mut CommStats) -> usize {
        stats.nxtval_msgs += 1;
        if let Some(plan) = self.faults.get() {
            plan.note_op();
            if let Some(ns) = plan.on_nxtval() {
                stats.backoff_ns += ns;
                if let Some(tracer) = self.tracer.get() {
                    let kind = FaultKind::NxtvalStall;
                    tracer.instant(
                        None,
                        "fault_injected",
                        Category::Other,
                        &[("kind", kind.code()), ("stall_ns", ns as f64)],
                    );
                    if let Some(m) = tracer.metrics() {
                        m.counter_incr("fault.injected", &[("kind", kind.label())]);
                    }
                }
            }
        }
        let t = self.counter.fetch_add(1, Ordering::SeqCst);
        if let Some(tracer) = self.tracer.get() {
            tracer.instant(None, "ddi_nxtval", Category::Net, &[("task", t as f64)]);
        }
        t
    }

    /// `nxtval` that also names the calling rank in the protocol record
    /// (the raw counter has no rank; race analysis needs one to build the
    /// release–acquire chain through the counter).
    pub fn nxtval_rank(&self, rank: usize, stats: &mut CommStats) -> usize {
        let t = self.nxtval(stats);
        self.rec(DdiAccess::Nxtval { rank, value: t });
        t
    }

    /// Execute `f(rank, &mut stats)` once per rank and return the per-rank
    /// communication statistics.
    pub fn run<F>(&self, f: F) -> Vec<CommStats>
    where
        F: Fn(usize, &mut CommStats) + Sync,
    {
        // A `run` is a parallel region bracketed by global barriers:
        // everything before it happens-before every rank's work, and all
        // ranks' work happens-before everything after.
        self.rec(DdiAccess::Barrier);
        let all = match self.backend {
            Backend::Serial => {
                let mut all = vec![CommStats::default(); self.nproc];
                for (rank, st) in all.iter_mut().enumerate() {
                    f(rank, st);
                }
                all
            }
            Backend::Threads => {
                let mut all = vec![CommStats::default(); self.nproc];
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..self.nproc)
                        .map(|rank| {
                            let f = &f;
                            scope.spawn(move || {
                                let mut st = CommStats::default();
                                f(rank, &mut st);
                                st
                            })
                        })
                        .collect();
                    for (rank, h) in handles.into_iter().enumerate() {
                        match h.join() {
                            Ok(st) => all[rank] = st,
                            Err(p) => std::panic::resume_unwind(p),
                        }
                    }
                });
                all
            }
        };
        self.rec(DdiAccess::Barrier);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::DistMatrix;

    #[test]
    fn counter_hands_out_unique_tasks() {
        let ddi = Ddi::new(4, Backend::Serial);
        let mut st = CommStats::default();
        let a = ddi.nxtval(&mut st);
        let b = ddi.nxtval(&mut st);
        assert_eq!((a, b), (0, 1));
        assert_eq!(st.nxtval_msgs, 2);
        ddi.reset_counter();
        assert_eq!(ddi.nxtval(&mut st), 0);
    }

    #[test]
    fn serial_run_visits_all_ranks() {
        let ddi = Ddi::new(3, Backend::Serial);
        let m = DistMatrix::zeros(1, 3, 3);
        let stats = ddi.run(|rank, st| {
            m.acc_col(rank, rank, &[(rank + 1) as f64], st);
        });
        assert_eq!(m.to_dense(), vec![1.0, 2.0, 3.0]);
        assert_eq!(stats.len(), 3);
        assert!(stats.iter().all(|s| s.total_bytes() == 0)); // all local
    }

    #[test]
    fn threaded_accumulation_matches_serial() {
        // Every rank accumulates into every column; the mutexes must make
        // this race-free and the result backend-independent.
        for backend in [Backend::Serial, Backend::Threads] {
            let p = 4;
            let ddi = Ddi::new(p, backend);
            let m = DistMatrix::zeros(8, 12, p);
            let stats = ddi.run(|rank, st| {
                let buf = vec![(rank + 1) as f64; 8];
                for col in 0..12 {
                    m.acc_col(rank, col, &buf, st);
                }
            });
            // Each column accumulated 1+2+3+4 = 10 in every element.
            assert!(m.to_dense().iter().all(|&x| x == 10.0), "{backend:?}");
            // Each rank did 12 accs, of which those not locally owned are
            // remote: 12 − 3 = 9 per rank.
            for s in &stats {
                assert_eq!(s.acc_msgs, 9, "{backend:?}");
                assert_eq!(s.mutex_acquires, 12);
            }
        }
    }

    #[test]
    fn threaded_counter_is_exhaustive() {
        let p = 4;
        let ntask = 1000;
        let ddi = Ddi::new(p, Backend::Threads);
        let seen = std::sync::Mutex::new(vec![false; ntask]);
        ddi.run(|_rank, st| loop {
            let t = ddi.nxtval(st);
            if t >= ntask {
                break;
            }
            let mut s = seen.lock().unwrap();
            assert!(!s[t], "task {t} handed out twice");
            s[t] = true;
        });
        assert!(seen.lock().unwrap().iter().all(|&b| b));
    }

    #[test]
    fn nxtval_emits_trace_events() {
        let ddi = Ddi::new(2, Backend::Serial);
        let tracer = Tracer::in_memory();
        ddi.attach_tracer(tracer.clone());
        let mut st = CommStats::default();
        ddi.nxtval(&mut st);
        ddi.nxtval(&mut st);
        let evs = tracer.events().unwrap();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "ddi_nxtval");
        assert_eq!(evs[1].arg("task"), Some(1.0));
    }
}
