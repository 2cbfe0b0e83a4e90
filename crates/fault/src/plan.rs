//! The [`FaultPlan`]: a seeded, shared, replayable fault schedule.
//!
//! A plan is attached once to a `Ddi` world (and propagated to every
//! adopted `DistMatrix`); each checked DDI operation then asks the plan
//! whether this particular transfer is dropped, duplicated, corrupted,
//! stalled, or arrives at a dead rank. All decisions come from one
//! seeded xorshift stream and an op counter — no wall clock anywhere —
//! so a given `(seed, workload)` pair replays the identical fault
//! schedule on every run (exactly reproducible under the deterministic
//! serial backend; under the threads backend the op interleaving, and
//! hence the draw order, is scheduler-dependent).
//!
//! The plan also owns the recovery *policy*: the bounded
//! [`RetryPolicy`] that DDI retry loops consult, with the guarantee
//! that [`FaultPlan::on_transfer`] never injects a transient fault on
//! attempt `max_retries` or later — every retry loop terminates.

use crate::rng::Xorshift64;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which one-sided DDI primitive a transfer fault applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferOp {
    /// `DDI_GET` of a CI column (8·n bytes on the wire).
    Get,
    /// `DDI_ACC` accumulate into a σ column (16·n bytes on the wire).
    Acc,
}

/// How a corrupted payload is garbled in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// One element becomes NaN (the classic "poisoned column").
    Nan,
    /// One element's sign bit flips — numerically plausible garbage.
    SignFlip,
    /// One random bit of one element flips — a single-event upset.
    BitFlip,
}

/// The transient fault injected into one delivery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferFault {
    /// The message is lost; the receiver's ack timeout triggers a resend.
    Drop,
    /// The payload is garbled; the per-message CRC32 rejects it.
    Corrupt(Corruption),
    /// The message arrives twice; the duplicate is discarded by its
    /// repeated sequence number (it costs wire traffic, nothing else).
    Duplicate,
}

/// Deliberately broken DDI_ACC protocols (race-detector validation).
///
/// These are not *recoverable* faults — they exist so `fci-check` can
/// prove it catches protocol bugs. A plan carrying one routes every
/// `acc_col` through the broken protocol instead of the checked path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolFault {
    /// Accumulate without the trailing memory fence.
    SkipFence,
    /// Accumulate without holding the per-node mutex.
    SkipLock,
}

/// Permanent death of one simulated rank after a chosen number of DDI
/// ops (the op counter is the plan's monotone simulated-time proxy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankDeath {
    /// Rank that dies.
    pub rank: usize,
    /// Global DDI op count at which it dies.
    pub after_ops: u64,
}

/// Bounded retry-with-backoff policy for transient faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum resend attempts per op. The plan never faults attempt
    /// `max_retries`, so a retry loop using this policy always
    /// terminates within `max_retries + 1` attempts.
    pub max_retries: u32,
    /// Simulated seconds of backoff before the first resend.
    pub backoff_s: f64,
    /// Exponential backoff multiplier per subsequent resend.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            // An X1 remote get is ~µs-scale; back off an order of
            // magnitude above that and double each time.
            max_retries: 4,
            backoff_s: 20e-6,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Simulated backoff in nanoseconds charged before resend `attempt`
    /// (0-based: the wait before the first resend is `backoff_s`).
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let s = self.backoff_s * self.multiplier.powi(attempt.min(30) as i32);
        (s * 1e9) as u64
    }
}

/// Knobs for one fault schedule. All probabilities are per-delivery
/// coins in `[0, 1]`; everything defaults to off.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for the fault decision stream.
    pub seed: u64,
    /// P(delivery dropped) per transfer attempt.
    pub p_drop: f64,
    /// P(delivery duplicated) per transfer attempt.
    pub p_duplicate: f64,
    /// P(payload corrupted) per transfer attempt.
    pub p_corrupt: f64,
    /// P(`nxtval` counter op stalls) per op.
    pub p_stall: f64,
    /// P(DDI_ACC fence delayed) per accumulate.
    pub p_fence_delay: f64,
    /// P(a σ task's local working area is poisoned with NaN) per task.
    pub p_poison: f64,
    /// Simulated seconds one stall/fence delay costs.
    pub stall_s: f64,
    /// Optional permanent rank death.
    pub rank_death: Option<RankDeath>,
    /// Optional broken-protocol mode (race-detector validation only).
    pub protocol: Option<ProtocolFault>,
    /// Retry/backoff policy for transient faults.
    pub retry: RetryPolicy,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 1,
            p_drop: 0.0,
            p_duplicate: 0.0,
            p_corrupt: 0.0,
            p_stall: 0.0,
            p_fence_delay: 0.0,
            p_poison: 0.0,
            stall_s: 50e-6,
            rank_death: None,
            protocol: None,
            retry: RetryPolicy::default(),
        }
    }
}

impl FaultConfig {
    /// A schedule with every fault disabled — attaching it must leave
    /// the numerics bitwise identical to running with no plan at all.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            ..FaultConfig::default()
        }
    }
}

/// Injection counters, all monotone over a run. Returned by
/// [`FaultPlan::stats`] and reported by the chaos harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Dropped deliveries.
    pub drops: u64,
    /// Duplicated deliveries.
    pub duplicates: u64,
    /// Corrupted payloads (all caught by CRC and resent).
    pub corruptions: u64,
    /// Stalled `nxtval` ops.
    pub stalls: u64,
    /// Delayed fences.
    pub fence_delays: u64,
    /// Poisoned σ tasks.
    pub poisoned_tasks: u64,
    /// Rank deaths fired (0 or 1).
    pub rank_deaths: u64,
    /// Resends performed by DDI retry loops.
    pub retries: u64,
    /// σ tasks recomputed after failing the column guard.
    pub recomputes: u64,
    /// Duplicate deliveries discarded by the sequence check.
    pub dup_discards: u64,
}

impl FaultStats {
    /// Total faults injected (excluding the recovery actions
    /// `retries`/`recomputes`/`dup_discards`, which are *responses*).
    // lint: allow(dead) — the chaos suite checks each schedule injected faults with it
    pub fn injected(&self) -> u64 {
        self.drops
            + self.duplicates
            + self.corruptions
            + self.stalls
            + self.fence_delays
            + self.poisoned_tasks
            + self.rank_deaths
    }
}

/// A live, shareable fault schedule. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: Mutex<Xorshift64>,
    /// Global DDI op counter — the simulated-time proxy rank death keys
    /// off.
    ops: AtomicU64,
    /// Currently-dead rank (`usize::MAX` = none).
    dead: AtomicUsize,
    /// Latch: the configured death fires at most once, even after the
    /// recovery layer acknowledges it and renumbers ranks.
    death_fired: AtomicBool,
    drops: AtomicU64,
    duplicates: AtomicU64,
    corruptions: AtomicU64,
    stalls: AtomicU64,
    fence_delays: AtomicU64,
    poisoned: AtomicU64,
    deaths: AtomicU64,
    retries: AtomicU64,
    recomputes: AtomicU64,
    dup_discards: AtomicU64,
}

const NO_RANK: usize = usize::MAX;

impl FaultPlan {
    /// Build a plan from a schedule.
    pub fn new(cfg: FaultConfig) -> Self {
        let rng = Xorshift64::new(cfg.seed);
        FaultPlan {
            cfg,
            rng: Mutex::new(rng),
            ops: AtomicU64::new(0),
            dead: AtomicUsize::new(NO_RANK),
            death_fired: AtomicBool::new(false),
            drops: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            fence_delays: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            recomputes: AtomicU64::new(0),
            dup_discards: AtomicU64::new(0),
        }
    }

    /// The broken-protocol mode, if this schedule carries one.
    pub fn protocol_fault(&self) -> Option<ProtocolFault> {
        self.cfg.protocol
    }

    fn coin(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.rng.lock().unwrap().next_f64() < p
    }

    /// Count one DDI op against the simulated-time proxy and fire the
    /// configured rank death when its threshold is crossed.
    pub fn note_op(&self) {
        let n = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(d) = self.cfg.rank_death {
            if n >= d.after_ops && !self.death_fired.swap(true, Ordering::SeqCst) {
                self.dead.store(d.rank, Ordering::SeqCst);
                self.deaths.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Total DDI ops seen so far.
    // lint: allow(dead) — the chaos suite pins each schedule's op count with it
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Fault decision for delivery attempt `attempt` (0-based) of one
    /// transfer. Returns `None` for a clean delivery. Never returns
    /// `Drop`/`Corrupt` once `attempt >= retry.max_retries`, so bounded
    /// retry loops always converge.
    pub fn on_transfer(&self, _op: TransferOp, attempt: u32) -> Option<TransferFault> {
        if attempt >= self.cfg.retry.max_retries {
            return None;
        }
        if self.coin(self.cfg.p_drop) {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return Some(TransferFault::Drop);
        }
        if self.coin(self.cfg.p_corrupt) {
            self.corruptions.fetch_add(1, Ordering::Relaxed);
            let kind = match self.rng.lock().unwrap().next_index(3) {
                0 => Corruption::Nan,
                1 => Corruption::SignFlip,
                _ => Corruption::BitFlip,
            };
            return Some(TransferFault::Corrupt(kind));
        }
        if self.coin(self.cfg.p_duplicate) {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return Some(TransferFault::Duplicate);
        }
        None
    }

    /// Garble `buf` in place per the corruption kind; the element (and
    /// for bit flips, the bit) comes from the seeded stream.
    pub fn corrupt(&self, kind: Corruption, buf: &mut [f64]) {
        if buf.is_empty() {
            return;
        }
        let (i, bit) = {
            let mut rng = self.rng.lock().unwrap();
            (rng.next_index(buf.len()), rng.next_index(64) as u64)
        };
        match kind {
            Corruption::Nan => buf[i] = f64::NAN,
            // Flip the IEEE sign bit directly so even ±0.0 changes its
            // bit pattern and the CRC always catches it.
            Corruption::SignFlip => buf[i] = f64::from_bits(buf[i].to_bits() ^ (1u64 << 63)),
            Corruption::BitFlip => buf[i] = f64::from_bits(buf[i].to_bits() ^ (1u64 << bit)),
        }
    }

    /// Stall decision for one `nxtval` op: `Some(ns)` of simulated wait.
    pub fn on_nxtval(&self) -> Option<u64> {
        if self.coin(self.cfg.p_stall) {
            self.stalls.fetch_add(1, Ordering::Relaxed);
            Some((self.cfg.stall_s * 1e9) as u64)
        } else {
            None
        }
    }

    /// Fence-delay decision for one accumulate: `Some(ns)` of wait.
    pub fn on_fence(&self) -> Option<u64> {
        if self.coin(self.cfg.p_fence_delay) {
            self.fence_delays.fetch_add(1, Ordering::Relaxed);
            Some((self.cfg.stall_s * 1e9) as u64)
        } else {
            None
        }
    }

    /// Poison decision for one σ task attempt. Capped like transfers:
    /// attempt `max_retries` is never poisoned, so guarded recompute
    /// loops terminate.
    pub fn poison_task(&self, attempt: u32) -> bool {
        if attempt >= self.cfg.retry.max_retries {
            return false;
        }
        if self.coin(self.cfg.p_poison) {
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Simulated backoff (ns) before resend `attempt`, per the policy.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        self.cfg.retry.backoff_ns(attempt)
    }

    /// The currently-dead rank, if any.
    pub fn dead_rank(&self) -> Option<usize> {
        match self.dead.load(Ordering::SeqCst) {
            NO_RANK => None,
            r => Some(r),
        }
    }

    /// Recovery layer acknowledges the death: the world is being rebuilt
    /// over the survivors, so no rank is dead in the new numbering. The
    /// configured death has already fired its once-only latch and will
    /// not re-fire.
    pub fn acknowledge_death(&self) {
        self.dead.store(NO_RANK, Ordering::SeqCst);
    }

    /// Record one resend performed by a DDI retry loop.
    pub fn count_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one σ task recompute after a failed column guard.
    pub fn count_recompute(&self) {
        self.recomputes.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one duplicate delivery discarded by the sequence check.
    pub fn count_dup_discard(&self) {
        self.dup_discards.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            drops: self.drops.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            fence_delays: self.fence_delays.load(Ordering::Relaxed),
            poisoned_tasks: self.poisoned.load(Ordering::Relaxed),
            rank_deaths: self.deaths.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            recomputes: self.recomputes.load(Ordering::Relaxed),
            dup_discards: self.dup_discards.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::new(FaultConfig::quiet(9));
        for _ in 0..1000 {
            assert_eq!(plan.on_transfer(TransferOp::Get, 0), None);
            assert_eq!(plan.on_nxtval(), None);
            assert_eq!(plan.on_fence(), None);
            assert!(!plan.poison_task(0));
            assert_eq!(plan.dead_rank(), None);
            plan.note_op();
        }
        assert_eq!(plan.stats().injected(), 0);
        assert_eq!(plan.ops(), 1000);
    }

    #[test]
    fn schedules_replay_exactly() {
        let cfg = FaultConfig {
            seed: 1234,
            p_drop: 0.2,
            p_corrupt: 0.2,
            p_duplicate: 0.1,
            ..FaultConfig::default()
        };
        let a = FaultPlan::new(cfg.clone());
        let b = FaultPlan::new(cfg);
        for _ in 0..500 {
            assert_eq!(
                a.on_transfer(TransferOp::Acc, 0),
                b.on_transfer(TransferOp::Acc, 0)
            );
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn transfers_are_clean_at_the_retry_cap() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 5,
            p_drop: 1.0,
            ..FaultConfig::default()
        });
        let cap = plan.cfg.retry.max_retries;
        for attempt in 0..cap {
            assert_eq!(
                plan.on_transfer(TransferOp::Get, attempt),
                Some(TransferFault::Drop)
            );
        }
        // The capping attempt (and anything later) must be clean.
        assert_eq!(plan.on_transfer(TransferOp::Get, cap), None);
        assert_eq!(plan.on_transfer(TransferOp::Get, cap + 7), None);
        assert!(!plan.poison_task(cap));
    }

    #[test]
    fn rank_death_fires_once_at_threshold() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 2,
            rank_death: Some(RankDeath {
                rank: 3,
                after_ops: 10,
            }),
            ..FaultConfig::default()
        });
        for _ in 0..9 {
            plan.note_op();
        }
        assert_eq!(plan.dead_rank(), None);
        plan.note_op();
        assert_eq!(plan.dead_rank(), Some(3));
        plan.acknowledge_death();
        assert_eq!(plan.dead_rank(), None);
        // Further ops must not resurrect the death.
        for _ in 0..100 {
            plan.note_op();
        }
        assert_eq!(plan.dead_rank(), None);
        assert_eq!(plan.stats().rank_deaths, 1);
    }

    #[test]
    fn corruption_always_changes_bit_pattern() {
        let plan = FaultPlan::new(FaultConfig {
            seed: 77,
            ..FaultConfig::default()
        });
        let base: Vec<f64> = (0..16).map(|i| i as f64 * 0.25 - 1.0).collect();
        for kind in [Corruption::Nan, Corruption::SignFlip, Corruption::BitFlip] {
            for _ in 0..200 {
                let mut buf = base.clone();
                plan.corrupt(kind, &mut buf);
                let changed = buf
                    .iter()
                    .zip(&base)
                    .any(|(a, b)| a.to_bits() != b.to_bits());
                assert!(changed, "{kind:?} left the buffer bitwise intact");
            }
        }
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ns(0), 20_000);
        assert_eq!(p.backoff_ns(1), 40_000);
        assert_eq!(p.backoff_ns(2), 80_000);
        assert!(p.backoff_ns(3) > p.backoff_ns(2));
    }

    #[test]
    fn stats_track_recovery_actions() {
        let plan = FaultPlan::new(FaultConfig::quiet(1));
        plan.count_retry();
        plan.count_retry();
        plan.count_recompute();
        plan.count_dup_discard();
        let s = plan.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.recomputes, 1);
        assert_eq!(s.dup_discards, 1);
        // Recovery actions are responses, not injections.
        assert_eq!(s.injected(), 0);
    }
}
