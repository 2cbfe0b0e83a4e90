//! Vector-clock happens-before race detection for the DDI protocol.
//!
//! # The happens-before model
//!
//! Every rank `r` carries two clocks:
//!
//! * `vc[r]` — the **knowledge clock**: everything rank `r` knows
//!   happened-before its current point. Each access bumps the rank's own
//!   component (`vc[r][r] += 1`) and the access is stamped with the
//!   resulting clock.
//! * `completed[r]` — the **completion clock**: the subset of `vc[r]` that
//!   rank `r` is allowed to *publish* to other ranks. Reads and local
//!   writes (issuing rank owns the segment) complete immediately; a
//!   **remote** write (`SHMEM_PUT`) stays pending until the rank's next
//!   fence (`SHMEM_QUIET`), which sets `completed[r] = vc[r]`.
//!
//! Synchronization edges:
//!
//! * **Lock/Unlock** on a per-node mutex: unlock publishes the rank's
//!   *completion* clock into the lock's clock; lock joins the lock's clock
//!   into the acquirer's knowledge. Publishing `completed` rather than `vc`
//!   is exactly what makes a missing fence detectable — an unfenced remote
//!   put is simply not carried by the lock hand-off, so the next critical
//!   section is not ordered after it.
//! * **Nxtval** (`SHMEM_SWAP` on the task counter) is a release–acquire
//!   pair through the counter's clock, again publishing `completed`.
//! * **Barrier** (collective ops, start/end of a parallel region) joins
//!   everything into everything and clears the access history — nothing
//!   before a barrier can race with anything after it.
//!
//! A **race** is two accesses to overlapping columns of the same matrix
//! from different ranks, at least one a write, where the earlier access's
//! stamp is not `≤` the later access's knowledge clock. Reports name both
//! protocol sites (`ddi_acc.put`, `with_local`, …), the ranks, and the
//! column, which is enough to find the offending call in the source.
//!
//! The detector is an [`AccessRecorder`]: attach it to a live `Ddi`
//! world through `CheckConfig` and it checks the run as it executes.

use fci_ddi::{AccessKind, AccessRecorder, DdiAccess, DdiSite};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// A growable vector clock: component `r` counts rank `r`'s accesses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock {
    c: Vec<u64>,
}

impl VectorClock {
    /// The zero clock.
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    /// Component for `rank` (0 if never touched).
    pub fn get(&self, rank: usize) -> u64 {
        self.c.get(rank).copied().unwrap_or(0)
    }

    /// Bump `rank`'s own component, returning its new value.
    pub(crate) fn tick(&mut self, rank: usize) -> u64 {
        if self.c.len() <= rank {
            self.c.resize(rank + 1, 0);
        }
        self.c[rank] += 1;
        self.c[rank]
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VectorClock) {
        if self.c.len() < other.c.len() {
            self.c.resize(other.c.len(), 0);
        }
        for (a, b) in self.c.iter_mut().zip(&other.c) {
            *a = (*a).max(*b);
        }
    }

    /// Whether `self ≤ other` pointwise (the happens-before order).
    pub fn le(&self, other: &VectorClock) -> bool {
        self.c.iter().enumerate().all(|(r, &v)| v <= other.get(r))
    }
}

/// One side of a race: where and what the access was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceSite {
    /// Issuing rank.
    pub rank: usize,
    /// Source-level operation.
    pub site: DdiSite,
    /// Read or write.
    pub kind: AccessKind,
    /// The rank's access number at the time (its own clock component).
    pub epoch: u64,
    /// Columns the access touched (the full range, not just the overlap).
    pub cols: std::ops::Range<usize>,
}

impl fmt::Display for RaceSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} {} ({:?}) cols {}..{} [epoch {}]",
            self.rank,
            self.site.as_str(),
            self.kind,
            self.cols.start,
            self.cols.end,
            self.epoch
        )
    }
}

/// A detected pair of unordered conflicting accesses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Matrix the accesses touched.
    pub mat: u32,
    /// A column in the overlap (reports are deduplicated per site pair, so
    /// this is the first overlapping column seen).
    pub col: usize,
    /// The earlier access (in recorded order).
    pub first: RaceSite,
    /// The later access, not ordered after `first`.
    pub second: RaceSite,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RACE on mat {} col {}: {} is unordered with later {} \
             — no lock/fence/barrier edge connects them",
            self.mat, self.col, self.first, self.second
        )
    }
}

/// A stamped access held in the per-column frontier.
#[derive(Clone, Debug)]
struct Stamped {
    rank: usize,
    site: DdiSite,
    kind: AccessKind,
    epoch: u64,
    cols: std::ops::Range<usize>,
    stamp: VectorClock,
}

impl Stamped {
    fn race_site(&self) -> RaceSite {
        RaceSite {
            rank: self.rank,
            site: self.site,
            kind: self.kind,
            epoch: self.epoch,
            cols: self.cols.clone(),
        }
    }
}

#[derive(Default)]
struct State {
    /// Knowledge clock per rank.
    vc: Vec<VectorClock>,
    /// Completion (publishable) clock per rank.
    completed: Vec<VectorClock>,
    /// Per-(matrix, owner-mutex) lock clock.
    locks: HashMap<(u32, usize), VectorClock>,
    /// The task counter's release–acquire clock.
    counter: VectorClock,
    /// Access frontier per (matrix, column).
    frontier: HashMap<(u32, usize), Vec<Stamped>>,
    /// Races found so far; deduplicated by site pair.
    races: Vec<RaceReport>,
    seen: std::collections::HashSet<(u32, usize, DdiSite, usize, DdiSite)>,
    /// Total protocol events processed.
    nevents: u64,
}

impl State {
    fn rank_mut(&mut self, rank: usize) -> (&mut VectorClock, &mut VectorClock) {
        if self.vc.len() <= rank {
            self.vc.resize_with(rank + 1, VectorClock::new);
            self.completed.resize_with(rank + 1, VectorClock::new);
        }
        (&mut self.vc[rank], &mut self.completed[rank])
    }

    fn apply(&mut self, access: &DdiAccess) {
        self.nevents += 1;
        match access {
            DdiAccess::Access {
                rank,
                mat,
                kind,
                cols,
                owner,
                site,
            } => self.access(*rank, *mat, *kind, cols.clone(), *owner, *site),
            DdiAccess::Lock { rank, mat, owner } => {
                if let Some(l) = self.locks.get(&(*mat, *owner)) {
                    let l = l.clone();
                    self.rank_mut(*rank).0.join(&l);
                }
            }
            DdiAccess::Unlock { rank, mat, owner } => {
                let (_, completed) = self.rank_mut(*rank);
                let c = completed.clone();
                match self.locks.entry((*mat, *owner)) {
                    Entry::Occupied(mut e) => e.get_mut().join(&c),
                    Entry::Vacant(e) => {
                        e.insert(c);
                    }
                }
            }
            DdiAccess::Fence { rank } => {
                let (vc, completed) = self.rank_mut(*rank);
                let v = vc.clone();
                completed.join(&v);
            }
            DdiAccess::Nxtval { rank, .. } => {
                // Release–acquire through the shared counter: acquire the
                // counter's clock, then publish our completed clock to it.
                let n = self.counter.clone();
                let (vc, completed) = self.rank_mut(*rank);
                vc.join(&n);
                let c = completed.clone();
                self.counter.join(&c);
            }
            DdiAccess::Barrier => {
                let mut all = self.counter.clone();
                for v in &self.vc {
                    all.join(v);
                }
                for l in self.locks.values() {
                    all.join(l);
                }
                for v in self.vc.iter_mut() {
                    v.join(&all);
                }
                for c in self.completed.iter_mut() {
                    c.join(&all);
                }
                for l in self.locks.values_mut() {
                    l.join(&all);
                }
                self.counter.join(&all);
                // Everything before the barrier is ordered before
                // everything after — the history can never race again.
                self.frontier.clear();
            }
        }
    }

    fn access(
        &mut self,
        rank: usize,
        mat: u32,
        kind: AccessKind,
        cols: std::ops::Range<usize>,
        owner: usize,
        site: DdiSite,
    ) {
        let (vc, completed) = self.rank_mut(rank);
        let epoch = vc.tick(rank);
        let stamp = vc.clone();
        // Reads and locally-owned writes complete immediately; a remote
        // put is pending until the next fence.
        if kind == AccessKind::Read || rank == owner {
            completed.join(&stamp);
        }
        let new = Stamped {
            rank,
            site,
            kind,
            epoch,
            cols: cols.clone(),
            stamp,
        };
        for col in cols {
            let slot = self.frontier.entry((mat, col)).or_default();
            for old in slot.iter() {
                let conflicting = old.rank != new.rank
                    && (old.kind == AccessKind::Write || new.kind == AccessKind::Write);
                if conflicting && !old.stamp.le(&new.stamp) {
                    let key = (mat, old.rank, old.site, new.rank, new.site);
                    if self.seen.insert(key) {
                        self.races.push(RaceReport {
                            mat,
                            col,
                            first: old.race_site(),
                            second: new.race_site(),
                        });
                    }
                }
            }
            // Frontier pruning: any old access ordered before the new one
            // can be dropped for this column — a future access racing with
            // it necessarily races with the new one too (transitivity).
            slot.retain(|old| !old.stamp.le(&new.stamp));
            slot.push(new.clone());
        }
    }
}

/// Online happens-before race detector. Implements
/// [`AccessRecorder`], so it plugs straight into
/// `CheckConfig::online(Arc::new(RaceDetector::new()))`.
#[derive(Default)]
pub struct RaceDetector {
    state: Mutex<State>,
}

impl RaceDetector {
    /// Fresh detector with empty state.
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Races found so far (deduplicated by site pair).
    pub fn races(&self) -> Vec<RaceReport> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .races
            .clone()
    }

    /// Number of protocol events processed.
    pub fn nevents(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).nevents
    }
}

impl AccessRecorder for RaceDetector {
    fn record(&self, access: &DdiAccess) {
        // A poisoned lock means a sibling rank thread panicked mid-record;
        // the state is still well-formed (every apply() is atomic under
        // the lock), so keep analyzing.
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .apply(access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Races the detector finds in a recorded event sequence.
    fn races_of(events: &[DdiAccess]) -> Vec<RaceReport> {
        let det = RaceDetector::new();
        for e in events {
            det.record(e);
        }
        det.races()
    }

    fn acc_protocol(
        rank: usize,
        mat: u32,
        col: usize,
        owner: usize,
        fence: bool,
    ) -> Vec<DdiAccess> {
        let mut v = vec![
            DdiAccess::Lock { rank, mat, owner },
            DdiAccess::Access {
                rank,
                mat,
                kind: AccessKind::Read,
                cols: col..col + 1,
                owner,
                site: DdiSite::AccGet,
            },
            DdiAccess::Access {
                rank,
                mat,
                kind: AccessKind::Write,
                cols: col..col + 1,
                owner,
                site: DdiSite::AccPut,
            },
        ];
        if fence {
            v.push(DdiAccess::Fence { rank });
        }
        v.push(DdiAccess::Unlock { rank, mat, owner });
        v
    }

    #[test]
    fn clock_algebra() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.tick(0);
        a.tick(0);
        b.tick(3);
        assert!(!a.le(&b) && !b.le(&a));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j) && b.le(&j));
        assert_eq!(j.get(0), 2);
        assert_eq!(j.get(3), 1);
        assert_eq!(j.get(7), 0);
    }

    #[test]
    fn correct_protocol_is_race_free() {
        // Two ranks accumulate into the same remote column with the full
        // lock/fence protocol: ordered through the lock clock.
        let mut evs = acc_protocol(0, 0, 5, 2, true);
        evs.extend(acc_protocol(1, 0, 5, 2, true));
        assert!(races_of(&evs).is_empty());
    }

    #[test]
    fn missing_fence_is_flagged() {
        // Rank 0's remote put is never fenced, so the unlock does not
        // publish it; rank 1's critical section is unordered with it.
        let mut evs = acc_protocol(0, 0, 5, 2, false);
        evs.extend(acc_protocol(1, 0, 5, 2, true));
        let races = races_of(&evs);
        assert!(!races.is_empty(), "skip-fence must race");
        let r = &races[0];
        assert_eq!(r.first.rank, 0);
        assert_eq!(r.first.site, DdiSite::AccPut);
        assert_eq!(r.second.rank, 1);
        let text = r.to_string();
        assert!(text.contains("ddi_acc.put"), "{text}");
        assert!(text.contains("rank 0"), "{text}");
        assert!(text.contains("rank 1"), "{text}");
    }

    #[test]
    fn local_write_needs_no_fence() {
        // with_local-style: the owner writes its own segment; completion
        // is immediate, so lock hand-off alone orders the ranks.
        let mat = 0;
        let evs = vec![
            DdiAccess::Lock {
                rank: 2,
                mat,
                owner: 2,
            },
            DdiAccess::Access {
                rank: 2,
                mat,
                kind: AccessKind::Write,
                cols: 4..8,
                owner: 2,
                site: DdiSite::WithLocal,
            },
            DdiAccess::Unlock {
                rank: 2,
                mat,
                owner: 2,
            },
            DdiAccess::Lock {
                rank: 0,
                mat,
                owner: 2,
            },
            DdiAccess::Access {
                rank: 0,
                mat,
                kind: AccessKind::Read,
                cols: 5..6,
                owner: 2,
                site: DdiSite::Get,
            },
            DdiAccess::Unlock {
                rank: 0,
                mat,
                owner: 2,
            },
        ];
        assert!(races_of(&evs).is_empty());
    }

    #[test]
    fn missing_lock_is_flagged() {
        // Two ranks read-modify-write the same column with fences but no
        // lock at all: nothing orders them.
        let mat = 0;
        let rmw = |rank: usize| {
            vec![
                DdiAccess::Access {
                    rank,
                    mat,
                    kind: AccessKind::Read,
                    cols: 3..4,
                    owner: 1,
                    site: DdiSite::AccGet,
                },
                DdiAccess::Access {
                    rank,
                    mat,
                    kind: AccessKind::Write,
                    cols: 3..4,
                    owner: 1,
                    site: DdiSite::AccPut,
                },
                DdiAccess::Fence { rank },
            ]
        };
        let mut evs = rmw(0);
        evs.extend(rmw(1));
        let races = races_of(&evs);
        assert!(!races.is_empty(), "skip-lock must race");
        // The first conflict seen is rank 0's write vs rank 1's read.
        assert_eq!(races[0].first.kind, AccessKind::Write);
        assert_eq!(races[0].second.rank, 1);
    }

    #[test]
    fn barrier_orders_everything() {
        let mut evs = vec![DdiAccess::Access {
            rank: 0,
            mat: 0,
            kind: AccessKind::Write,
            cols: 0..1,
            owner: 1,
            site: DdiSite::AccPut,
        }];
        evs.push(DdiAccess::Barrier);
        evs.push(DdiAccess::Access {
            rank: 1,
            mat: 0,
            kind: AccessKind::Read,
            cols: 0..1,
            owner: 1,
            site: DdiSite::Get,
        });
        assert!(races_of(&evs).is_empty());
        // Without the barrier the same pair races.
        let racy: Vec<_> = evs
            .iter()
            .filter(|e| !matches!(e, DdiAccess::Barrier))
            .cloned()
            .collect();
        assert_eq!(races_of(&racy).len(), 1);
    }

    #[test]
    fn nxtval_chain_orders_counter_clients() {
        // Rank 0 writes (fenced), then takes a task; rank 1's later task
        // acquisition orders it after rank 0's write.
        let mat = 0;
        let evs = vec![
            DdiAccess::Access {
                rank: 0,
                mat,
                kind: AccessKind::Write,
                cols: 0..1,
                owner: 0,
                site: DdiSite::WithLocal,
            },
            DdiAccess::Nxtval { rank: 0, value: 0 },
            DdiAccess::Nxtval { rank: 1, value: 1 },
            DdiAccess::Access {
                rank: 1,
                mat,
                kind: AccessKind::Read,
                cols: 0..1,
                owner: 0,
                site: DdiSite::Get,
            },
        ];
        assert!(races_of(&evs).is_empty());
    }

    #[test]
    fn reports_deduplicate_by_site_pair() {
        let mut evs = Vec::new();
        for col in 0..10 {
            evs.extend(acc_protocol(0, 0, col, 1, false));
            evs.extend(acc_protocol(1, 0, col, 1, true));
        }
        let races = races_of(&evs);
        // Ten racy columns, but the (rank0 put, rank1 get) site pair is
        // reported once; the symmetric pairs likewise.
        assert!(!races.is_empty());
        assert!(races.len() <= 4, "got {}", races.len());
    }
}
