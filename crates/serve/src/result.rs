//! Per-job results and admission refusals: what a serve run hands back.

use fci_obs::JsonValue;

/// Terminal state of one job.
#[derive(Clone, Debug, PartialEq)]
pub enum JobStatus {
    /// Solved (converged flag inside).
    Done,
    /// The solve errored (message inside).
    Failed(String),
    /// Cancelled while still queued.
    Cancelled,
    /// Still queued when the server was told to shut down.
    Shutdown,
}

impl JobStatus {
    fn name(&self) -> &'static str {
        match self {
            JobStatus::Done => "done",
            JobStatus::Failed(_) => "failed",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Shutdown => "shutdown",
        }
    }

    /// Parse a wire/WAL status name (`error` carries the message for
    /// `failed`).
    fn from_wire(name: &str, error: Option<&str>) -> Result<JobStatus, String> {
        match name {
            "done" => Ok(JobStatus::Done),
            "failed" => Ok(JobStatus::Failed(error.unwrap_or("unknown error").into())),
            "cancelled" => Ok(JobStatus::Cancelled),
            "shutdown" => Ok(JobStatus::Shutdown),
            other => Err(format!("unknown job status `{other}`")),
        }
    }
}

/// Outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Job id (from the spec).
    pub id: String,
    /// Tenant (from the spec).
    pub tenant: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Total energy of the requested root (NaN unless `Done`).
    pub energy: f64,
    /// Whether the solve converged.
    pub converged: bool,
    /// σ evaluations spent on this job's solve.
    pub iterations: usize,
    /// Determinants in the symmetry sector.
    pub sector_dim: usize,
    /// Jobs coalesced into the solve that answered this one (1 = solo).
    pub batch_size: usize,
    /// World rebuilds survived (resilient jobs; 0 otherwise).
    pub restarts: usize,
    /// Host µs spent queued (submit → dequeue).
    pub queue_us: f64,
    /// Host µs spent solving.
    pub exec_us: f64,
}

impl JobResult {
    /// One JSONL line.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("id", JsonValue::Str(self.id.clone())),
            ("tenant", JsonValue::Str(self.tenant.clone())),
            ("status", JsonValue::Str(self.status.name().into())),
        ];
        if let JobStatus::Failed(msg) = &self.status {
            pairs.push(("error", JsonValue::Str(msg.clone())));
        }
        if self.status == JobStatus::Done {
            pairs.push(("energy", JsonValue::Num(self.energy)));
            pairs.push(("converged", JsonValue::Bool(self.converged)));
            pairs.push(("iterations", JsonValue::Num(self.iterations as f64)));
            pairs.push(("sector_dim", JsonValue::Num(self.sector_dim as f64)));
            pairs.push(("batch_size", JsonValue::Num(self.batch_size as f64)));
            pairs.push(("restarts", JsonValue::Num(self.restarts as f64)));
        }
        pairs.push(("queue_us", JsonValue::Num(self.queue_us)));
        pairs.push(("exec_us", JsonValue::Num(self.exec_us)));
        JsonValue::obj(pairs)
    }

    /// FNV-1a hash over the outcome-defining fields (id, status name,
    /// energy bits, convergence, iteration count). The WAL stores this
    /// beside every completion record; replay recomputes it and treats a
    /// mismatch as corruption of the record.
    pub fn result_hash(&self) -> u64 {
        let mut buf = Vec::new();
        buf.extend_from_slice(self.id.as_bytes());
        buf.push(0);
        buf.extend_from_slice(self.status.name().as_bytes());
        buf.push(0);
        buf.extend_from_slice(&self.energy.to_bits().to_le_bytes());
        buf.push(self.converged as u8);
        buf.extend_from_slice(&(self.iterations as u64).to_le_bytes());
        fci_obs::fnv1a(&buf)
    }

    /// Full-fidelity JSON for the write-ahead log. Unlike
    /// [`JobResult::to_json`] (the tenant-facing wire line, which omits
    /// solve fields on failure), this always carries every field and
    /// stores the energy as hex bits so replay is bitwise exact even for
    /// NaN sentinels, which plain JSON cannot represent.
    pub fn to_wal_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("id", JsonValue::Str(self.id.clone())),
            ("tenant", JsonValue::Str(self.tenant.clone())),
            ("status", JsonValue::Str(self.status.name().into())),
        ];
        if let JobStatus::Failed(msg) = &self.status {
            pairs.push(("error", JsonValue::Str(msg.clone())));
        }
        pairs.push((
            "ebits",
            JsonValue::Str(format!("{:016x}", self.energy.to_bits())),
        ));
        pairs.push(("converged", JsonValue::Bool(self.converged)));
        pairs.push(("iterations", JsonValue::Num(self.iterations as f64)));
        pairs.push(("sector_dim", JsonValue::Num(self.sector_dim as f64)));
        pairs.push(("batch_size", JsonValue::Num(self.batch_size as f64)));
        pairs.push(("restarts", JsonValue::Num(self.restarts as f64)));
        pairs.push(("queue_us", JsonValue::Num(self.queue_us)));
        pairs.push(("exec_us", JsonValue::Num(self.exec_us)));
        JsonValue::obj(pairs)
    }

    /// Parse a WAL completion payload written by [`Self::to_wal_json`].
    pub fn from_wal_json(v: &JsonValue) -> Result<JobResult, String> {
        let id = v
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or("result needs `id`")?
            .to_string();
        let status = JobStatus::from_wire(
            v.get("status")
                .and_then(JsonValue::as_str)
                .ok_or("result needs `status`")?,
            v.get("error").and_then(JsonValue::as_str),
        )?;
        let ebits = v
            .get("ebits")
            .and_then(JsonValue::as_str)
            .ok_or("result needs `ebits`")?;
        let energy = f64::from_bits(
            u64::from_str_radix(ebits, 16).map_err(|_| format!("bad `ebits` {ebits:?}"))?,
        );
        Ok(JobResult {
            id,
            tenant: v
                .get("tenant")
                .and_then(JsonValue::as_str)
                .unwrap_or("default")
                .to_string(),
            status,
            energy,
            converged: matches!(v.get("converged"), Some(JsonValue::Bool(true))),
            iterations: v.get_f64("iterations").unwrap_or(0.0) as usize,
            sector_dim: v.get_f64("sector_dim").unwrap_or(0.0) as usize,
            batch_size: v.get_f64("batch_size").unwrap_or(0.0) as usize,
            restarts: v.get_f64("restarts").unwrap_or(0.0) as usize,
            queue_us: v.get_f64("queue_us").unwrap_or(0.0),
            exec_us: v.get_f64("exec_us").unwrap_or(0.0),
        })
    }
}

/// Why a submission was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// Queue is at capacity — retry later (backpressure).
    QueueFull {
        /// Configured capacity.
        capacity: usize,
    },
    /// Estimated working set exceeds the server memory budget.
    MemoryBudget {
        /// Estimated bytes the job needs.
        need: usize,
        /// Configured budget.
        budget: usize,
    },
    /// A job with this id is already queued or running.
    DuplicateId,
    /// The spec failed validation (message inside).
    Invalid(String),
    /// The tenant's token bucket is empty (network front-end rate
    /// limiting) — retry after the hinted backoff.
    RateLimited {
        /// Milliseconds until the bucket refills enough for one job.
        retry_after_ms: u64,
    },
    /// The tenant already has its maximum number of unfinished jobs in
    /// flight (network front-end quota).
    InFlight {
        /// Configured per-tenant in-flight ceiling.
        limit: usize,
    },
    /// The connection ceiling was hit (network front-end overload).
    Overloaded {
        /// Configured connection ceiling.
        max_conns: usize,
    },
}

impl RejectReason {
    /// Stable wire code for the network protocol (`reason` field).
    pub fn code(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "queue_full",
            RejectReason::MemoryBudget { .. } => "memory_budget",
            RejectReason::DuplicateId => "duplicate_id",
            RejectReason::Invalid(_) => "invalid",
            RejectReason::RateLimited { .. } => "rate_limited",
            RejectReason::InFlight { .. } => "inflight_limit",
            RejectReason::Overloaded { .. } => "overloaded",
        }
    }

    /// Backoff hint: `Some(ms)` when a retry after that delay could
    /// succeed (transient overload), `None` when the rejection is
    /// permanent for this spec (validation, duplicate id, memory).
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            RejectReason::QueueFull { .. } => Some(250),
            RejectReason::RateLimited { retry_after_ms } => Some((*retry_after_ms).max(1)),
            RejectReason::InFlight { .. } => Some(100),
            RejectReason::Overloaded { .. } => Some(250),
            RejectReason::MemoryBudget { .. }
            | RejectReason::DuplicateId
            | RejectReason::Invalid(_) => None,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::MemoryBudget { need, budget } => write!(
                f,
                "estimated working set {need} B exceeds memory budget {budget} B"
            ),
            RejectReason::DuplicateId => write!(f, "duplicate job id"),
            RejectReason::Invalid(msg) => write!(f, "invalid job: {msg}"),
            RejectReason::RateLimited { retry_after_ms } => {
                write!(f, "tenant rate limit hit; retry after {retry_after_ms} ms")
            }
            RejectReason::InFlight { limit } => {
                write!(f, "tenant already has {limit} jobs in flight")
            }
            RejectReason::Overloaded { max_conns } => {
                write!(f, "server at its connection ceiling ({max_conns})")
            }
        }
    }
}

/// What a serve run hands back: every accepted job's outcome and every
/// refusal. Tallies over them (batches, cache hits, latencies) live in
/// the server's metrics plane, fed by its trace instants.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-job outcomes, in submission order.
    pub results: Vec<JobResult>,
    /// Rejected submissions: (job id, reason), in submission order.
    pub rejected: Vec<(String, RejectReason)>,
}

impl ServeReport {
    /// Result for a job id, if it was accepted.
    pub fn result(&self, id: &str) -> Option<&JobResult> {
        self.results.iter().find(|r| r.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_json_roundtrip_is_bitwise_even_for_nan() {
        let r = JobResult {
            id: "j".into(),
            tenant: "t".into(),
            status: JobStatus::Failed("solver diverged".into()),
            energy: f64::NAN,
            converged: false,
            iterations: 7,
            sector_dim: 36,
            batch_size: 1,
            restarts: 2,
            queue_us: 12.5,
            exec_us: 99.0,
        };
        let back =
            JobResult::from_wal_json(&JsonValue::parse(&r.to_wal_json().to_string()).unwrap())
                .unwrap();
        assert_eq!(back.energy.to_bits(), r.energy.to_bits());
        assert_eq!(back.status, r.status);
        assert_eq!(back.restarts, 2);
        assert_eq!(back.result_hash(), r.result_hash());
        // The tenant-facing line still omits solve fields on failure.
        assert!(r.to_json().get("energy").is_none());
    }

    #[test]
    fn reject_reasons_carry_backoff_hints_only_when_retryable() {
        assert_eq!(
            RejectReason::RateLimited { retry_after_ms: 40 }.retry_after_ms(),
            Some(40)
        );
        assert!(RejectReason::QueueFull { capacity: 4 }
            .retry_after_ms()
            .is_some());
        assert!(RejectReason::InFlight { limit: 2 }
            .retry_after_ms()
            .is_some());
        assert!(RejectReason::Overloaded { max_conns: 8 }
            .retry_after_ms()
            .is_some());
        assert_eq!(RejectReason::DuplicateId.retry_after_ms(), None);
        assert_eq!(RejectReason::Invalid("x".into()).retry_after_ms(), None);
        assert_eq!(
            RejectReason::RateLimited { retry_after_ms: 40 }.code(),
            "rate_limited"
        );
    }
}
