//! The dynamic load-balancing task pool (paper §3.3, Fig. 3).
//!
//! The mixed-spin routine's work units are Nα−1 electron α occupations.
//! Per-unit cost is hard to predict, so the paper uses a manager/worker
//! pool driven by `SHMEM_SWAP`. A large number of fine-grained tasks gives
//! the best balance but costs counter traffic, so fine tasks are
//! *aggregated* into larger tasks "in order of decreasing size", with "an
//! extra short tail of fine grained tasks" bounding the worst-case
//! imbalance. Three parameters control the shape, mirroring the paper's
//! `NFineTask_proc`, `NLtask_proc`, `NStask_proc`.

/// Pool shape parameters (counts are *per processor*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolParams {
    /// Initial number of fine-grained tasks per processor.
    pub fine_per_proc: usize,
    /// Number of aggregated large tasks per processor.
    pub large_per_proc: usize,
    /// Number of fine tasks kept as the small tail, per processor.
    pub small_per_proc: usize,
}

impl Default for PoolParams {
    fn default() -> Self {
        PoolParams {
            fine_per_proc: 64,
            large_per_proc: 6,
            small_per_proc: 12,
        }
    }
}

/// A precomputed, replicated list of item ranges to be claimed via the
/// shared counter.
#[derive(Clone, Debug)]
pub struct TaskPool {
    tasks: Vec<std::ops::Range<usize>>,
}

impl TaskPool {
    /// Aggregated pool over `nitems` work items for `nproc` processors.
    ///
    /// Large tasks come first with strictly non-increasing sizes; the tail
    /// is fine-grained. Every item is covered exactly once.
    pub fn aggregated(nitems: usize, nproc: usize, p: PoolParams) -> Self {
        assert!(nproc >= 1);
        if nitems == 0 {
            return TaskPool { tasks: Vec::new() };
        }
        let n_fine = (p.fine_per_proc * nproc).clamp(1, nitems);
        let fine_size = nitems.div_ceil(n_fine);
        // Fine task boundaries.
        let mut fine: Vec<std::ops::Range<usize>> = Vec::with_capacity(n_fine);
        let mut at = 0;
        while at < nitems {
            let end = (at + fine_size).min(nitems);
            fine.push(at..end);
            at = end;
        }
        let n_small = (p.small_per_proc * nproc).min(fine.len());
        let tail = fine.split_off(fine.len() - n_small);
        let mut tasks = Vec::new();
        if !fine.is_empty() {
            let n_large = (p.large_per_proc * nproc).clamp(1, fine.len());
            // Decreasing sizes: weight (n_large − i) for large task i.
            let wsum: usize = (1..=n_large).sum();
            let nf = fine.len();
            let mut taken = 0;
            for i in 0..n_large {
                let w = n_large - i;
                let mut cnt = (nf * w).div_ceil(wsum);
                cnt = cnt.min(nf - taken);
                if i == n_large - 1 {
                    cnt = nf - taken; // everything that remains
                }
                if cnt == 0 {
                    continue;
                }
                let start = fine[taken].start;
                let end = fine[taken + cnt - 1].end;
                tasks.push(start..end);
                taken += cnt;
                if taken == nf {
                    break;
                }
            }
        }
        tasks.extend(tail);
        TaskPool { tasks }
    }

    /// Number of tasks in the pool.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the pool holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The item range of task `t`.
    pub fn task(&self, t: usize) -> std::ops::Range<usize> {
        self.tasks[t].clone()
    }

    /// Size (item count) of every task, in claim order. This is the shape
    /// the aggregation scheme produced — telemetry reports it alongside
    /// the task-grab events.
    pub fn sizes(&self) -> Vec<usize> {
        self.tasks.iter().map(|r| r.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_exactly(pool: &TaskPool, nitems: usize) {
        let mut seen = vec![0usize; nitems];
        for t in 0..pool.len() {
            for i in pool.task(t) {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every item covered exactly once"
        );
    }

    #[test]
    fn aggregated_covers_all_items() {
        for &(nitems, nproc) in &[(1000usize, 8usize), (37, 4), (5, 16), (1, 1), (220, 3)] {
            let pool = TaskPool::aggregated(nitems, nproc, PoolParams::default());
            covers_exactly(&pool, nitems);
        }
    }

    #[test]
    fn large_tasks_decrease_then_fine_tail() {
        let p = PoolParams {
            fine_per_proc: 32,
            large_per_proc: 4,
            small_per_proc: 8,
        };
        let nproc = 4;
        let pool = TaskPool::aggregated(10_000, nproc, p);
        let sizes: Vec<usize> = (0..pool.len()).map(|t| pool.task(t).len()).collect();
        let n_small = p.small_per_proc * nproc;
        assert!(pool.len() > n_small);
        let large = &sizes[..sizes.len() - n_small];
        for w in large.windows(2) {
            assert!(
                w[0] >= w[1],
                "large tasks must be non-increasing: {sizes:?}"
            );
        }
        // Tail tasks are smaller than the smallest large task.
        let tail_max = sizes[sizes.len() - n_small..].iter().max().unwrap();
        assert!(tail_max <= large.last().unwrap());
    }

    #[test]
    fn empty_items() {
        let pool = TaskPool::aggregated(0, 8, PoolParams::default());
        assert!(pool.is_empty());
    }

    #[test]
    fn more_tasks_than_items() {
        // A flat pool, as `ablate-taskpool` builds one: no fine tail.
        let flat = PoolParams {
            fine_per_proc: 1,
            large_per_proc: 1,
            small_per_proc: 0,
        };
        let pool = TaskPool::aggregated(3, 10, flat);
        covers_exactly(&pool, 3);
        assert!(pool.len() <= 3);
    }
}
