//! Protocol-level access recording for correctness checking.
//!
//! The paper's one-sided semantics (§3.1) decompose `DDI_ACC` into
//! *lock node → SHMEM_GET → add locally → SHMEM_PUT → fence → unlock*.
//! Whether that protocol is actually race-free is asserted, never checked,
//! in the original program. This module gives every one-sided operation a
//! place to report what it did — at protocol granularity, not just byte
//! counts — so an external happens-before checker (`fci-check`) can verify
//! the ordering instead of trusting it.
//!
//! The hooks mirror the tracer: a [`DistMatrix`](crate::DistMatrix) or
//! [`Ddi`](crate::Ddi) without an attached recorder pays one pointer load
//! and a branch per operation. Recording is strictly observational — it
//! never changes what the operation does.

use std::ops::Range;
use std::sync::Arc;

/// Whether an access reads or writes the target columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The access only reads the columns (`SHMEM_GET`).
    Read,
    /// The access writes the columns (`SHMEM_PUT`, local store).
    Write,
}

/// Which source-level operation produced an access — the "site" named in
/// race reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DdiSite {
    /// `DistMatrix::get_cols` — one-sided `DDI_GET`.
    Get,
    /// The `SHMEM_GET` half of `DDI_ACC`.
    AccGet,
    /// The `SHMEM_PUT` half of `DDI_ACC`.
    AccPut,
    /// `DistMatrix::with_local` — direct access to the owned segment.
    WithLocal,
}

impl DdiSite {
    /// Human-readable name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DdiSite::Get => "ddi_get",
            DdiSite::AccGet => "ddi_acc.get",
            DdiSite::AccPut => "ddi_acc.put",
            DdiSite::WithLocal => "with_local",
        }
    }
}

/// One protocol-level event on the virtual machine.
///
/// `mat` identifies the distributed matrix (each [`DistMatrix`] gets a
/// process-unique id at construction); `owner` is the rank whose segment
/// holds the touched columns.
///
/// [`DistMatrix`]: crate::DistMatrix
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DdiAccess {
    /// A read or write of a column range.
    Access {
        /// Issuing rank.
        rank: usize,
        /// Matrix id.
        mat: u32,
        /// Read or write.
        kind: AccessKind,
        /// Touched columns (global indices).
        cols: Range<usize>,
        /// Rank owning the columns.
        owner: usize,
        /// Source operation.
        site: DdiSite,
    },
    /// Acquisition of `owner`'s per-node mutex on matrix `mat`.
    Lock {
        /// Issuing rank.
        rank: usize,
        /// Matrix id.
        mat: u32,
        /// Whose node mutex.
        owner: usize,
    },
    /// Release of `owner`'s per-node mutex on matrix `mat`.
    Unlock {
        /// Issuing rank.
        rank: usize,
        /// Matrix id.
        mat: u32,
        /// Whose node mutex.
        owner: usize,
    },
    /// `SHMEM_QUIET`: all puts issued by `rank` so far are complete.
    Fence {
        /// Issuing rank.
        rank: usize,
    },
    /// `SHMEM_SWAP` on the shared task counter.
    Nxtval {
        /// Issuing rank.
        rank: usize,
        /// Task number handed out.
        value: usize,
    },
    /// A global synchronization point: collective matrix operations and
    /// the start/end of a [`Ddi::run`](crate::Ddi::run) phase.
    Barrier,
}

impl DdiAccess {
    /// The issuing rank (`None` for barriers).
    pub fn rank(&self) -> Option<usize> {
        match self {
            DdiAccess::Access { rank, .. }
            | DdiAccess::Lock { rank, .. }
            | DdiAccess::Unlock { rank, .. }
            | DdiAccess::Fence { rank }
            | DdiAccess::Nxtval { rank, .. } => Some(*rank),
            DdiAccess::Barrier => None,
        }
    }
}

/// Observer of protocol-level DDI events.
///
/// Implementations must tolerate concurrent calls (the threads backend
/// records from every rank thread) and must not call back into the matrix
/// or world being recorded.
pub trait AccessRecorder: Send + Sync {
    /// Observe one event. Called in the real interleaved order: lock and
    /// unlock records are emitted while the segment mutex is held, so the
    /// recorded lock order is the true lock order.
    fn record(&self, access: &DdiAccess);
}

/// Correctness-checking options, carried on `FciOptions` next to
/// `ObsConfig`. Default is fully disabled: no recorder is attached and
/// every instrumented operation costs a single branch.
#[derive(Clone, Default)]
pub struct CheckConfig {
    /// Online recorder (e.g. `fci-check`'s race detector) attached to the
    /// run's DDI world and every matrix it adopts.
    pub recorder: Option<Arc<dyn AccessRecorder>>,
}

impl CheckConfig {
    /// Checking disabled (same as `Default`).
    pub fn off() -> CheckConfig {
        CheckConfig::default()
    }

    /// Record every protocol event into `recorder` as the run executes.
    // lint: allow(dead) — attaches the race detector in the chaos suite and the mutation matrix
    pub fn online(recorder: Arc<dyn AccessRecorder>) -> CheckConfig {
        CheckConfig {
            recorder: Some(recorder),
        }
    }

    /// Whether a recorder is attached.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }
}

impl std::fmt::Debug for CheckConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckConfig")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Recorder collecting events for assertions.
    pub struct MemoryRecorder(pub Mutex<Vec<DdiAccess>>);

    impl MemoryRecorder {
        pub fn new() -> Arc<MemoryRecorder> {
            Arc::new(MemoryRecorder(Mutex::new(Vec::new())))
        }
    }

    impl AccessRecorder for MemoryRecorder {
        fn record(&self, access: &DdiAccess) {
            self.0.lock().unwrap().push(access.clone());
        }
    }

    #[test]
    fn check_config_debug_and_flags() {
        assert!(!CheckConfig::off().enabled());
        let rec: Arc<dyn AccessRecorder> = MemoryRecorder::new();
        let cfg = CheckConfig::online(rec);
        assert!(cfg.enabled());
        assert_eq!(format!("{cfg:?}"), "CheckConfig { enabled: true }");
    }
}
