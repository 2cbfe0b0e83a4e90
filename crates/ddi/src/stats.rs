//! Per-rank communication statistics.

use fci_fault::TransferOp;

/// Counts of one-sided traffic issued by one rank.
///
/// Byte counts follow the paper's accounting: a remote `get` of n doubles
/// moves `8n` bytes; a remote `acc` moves `16n` (fetch + write-back); local
/// operations are free.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Bytes fetched by remote gets.
    pub get_bytes: u64,
    /// Bytes moved by remote accumulates (2× the payload).
    pub acc_bytes: u64,
    /// Number of remote get operations.
    pub get_msgs: u64,
    /// Number of remote accumulate operations.
    pub acc_msgs: u64,
    /// Number of atomic counter (SHMEM_SWAP-style) operations.
    pub nxtval_msgs: u64,
    /// Number of mutex acquisitions performed for accumulates.
    pub mutex_acquires: u64,
    /// Resent deliveries: transient faults (drops, CRC-rejected
    /// corruptions) detected and retried by the checked DDI paths. The
    /// retransmitted traffic itself is already folded into the byte and
    /// message counts above.
    pub retries: u64,
    /// Simulated nanoseconds this rank spent backing off before resends
    /// and waiting out injected stalls/fence delays.
    pub backoff_ns: u64,
}

impl CommStats {
    /// Total bytes moved over the (simulated) interconnect.
    pub fn total_bytes(&self) -> u64 {
        self.get_bytes + self.acc_bytes
    }

    /// Total message count (including counter traffic).
    pub fn total_msgs(&self) -> u64 {
        self.get_msgs + self.acc_msgs + self.nxtval_msgs
    }

    /// Charge one message of `bytes` wire bytes to `op`'s counters.
    pub(crate) fn count(&mut self, op: TransferOp, bytes: u64) {
        let (msgs, total) = match op {
            TransferOp::Get => (&mut self.get_msgs, &mut self.get_bytes),
            TransferOp::Acc => (&mut self.acc_msgs, &mut self.acc_bytes),
        };
        *msgs += 1;
        *total += bytes;
    }

    /// Elementwise sum.
    pub fn merge(&mut self, other: &CommStats) {
        self.get_bytes += other.get_bytes;
        self.acc_bytes += other.acc_bytes;
        self.get_msgs += other.get_msgs;
        self.acc_msgs += other.acc_msgs;
        self.nxtval_msgs += other.nxtval_msgs;
        self.mutex_acquires += other.mutex_acquires;
        self.retries += other.retries;
        self.backoff_ns += other.backoff_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_merge() {
        let a = CommStats {
            get_bytes: 100,
            acc_bytes: 40,
            get_msgs: 2,
            acc_msgs: 1,
            nxtval_msgs: 5,
            mutex_acquires: 1,
            retries: 3,
            backoff_ns: 40_000,
        };
        assert_eq!(a.total_bytes(), 140);
        assert_eq!(a.total_msgs(), 8);
        let mut b = CommStats::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.get_bytes, 200);
        assert_eq!(b.nxtval_msgs, 10);
        assert_eq!(b.retries, 6);
        assert_eq!(b.backoff_ns, 80_000);
    }
}
