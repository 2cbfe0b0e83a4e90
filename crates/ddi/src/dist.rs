//! Column-distributed dense matrices with one-sided access.

use crate::layout::Layout;
use crate::record::{AccessKind, AccessRecorder, DdiAccess, DdiSite};
use crate::reuse;
use crate::stats::CommStats;
use fci_fault::{checksum_f64s, FaultPlan, ProtocolFault, TransferFault, TransferOp};
use fci_obs::{Category, FaultKind, Tracer};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Process-wide matrix id source; ids label matrices in protocol records.
static NEXT_MAT_ID: AtomicU32 = AtomicU32::new(0);

/// An `nrows × ncols` matrix distributed by contiguous column blocks over
/// `nproc` virtual processors, storing the elements its [`Layout`] names.
///
/// This mirrors the paper's layout: the CI matrix has rows indexed by β
/// strings and columns by α strings, "distributed by columns evenly among
/// all the processors" (§3.1), and stored blocked by symmetry — column j
/// holds only the rows of its sector. Elements outside the layout are
/// zero: they are never stored, read, moved or charged. Each processor's
/// segment sits behind its own mutex — the same per-node lock `DDI_ACC`
/// takes on the X1.
pub struct DistMatrix {
    layout: Arc<Layout>,
    nproc: usize,
    /// Process-unique id; names this matrix in protocol records.
    mat_id: u32,
    /// `col_offsets[p]..col_offsets[p+1]` = columns owned by rank p.
    col_offsets: Vec<usize>,
    /// Per-rank segments: the stored elements of the rank's columns,
    /// column by column.
    segments: Vec<Mutex<Vec<f64>>>,
    /// Optional tracer; remote one-sided ops emit events through it.
    tracer: OnceLock<Tracer>,
    /// Optional protocol recorder (see [`crate::record`]).
    recorder: OnceLock<Arc<dyn AccessRecorder>>,
    /// Optional fault plan; when attached, remote transfers run the
    /// checked (sequence + CRC32, retry-with-backoff) delivery path.
    faults: OnceLock<Arc<FaultPlan>>,
    /// Per-matrix message sequence source for checked deliveries.
    seq: AtomicU64,
    /// Highest sequence number applied per sender rank; a re-arrival
    /// bearing a seen sequence number is discarded (duplicate guard).
    last_seq: Vec<AtomicU64>,
}

impl std::fmt::Debug for DistMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistMatrix")
            .field("nrows", &self.nrows())
            .field("ncols", &self.ncols())
            .field("stored", &self.layout.stored())
            .field("nproc", &self.nproc)
            .field("mat_id", &self.mat_id)
            .field("recorder", &self.recorder.get().is_some())
            .finish()
    }
}

impl Drop for DistMatrix {
    fn drop(&mut self) {
        for seg in &mut self.segments {
            let seg = seg.get_mut().unwrap_or_else(|e| e.into_inner());
            reuse::recycle(std::mem::take(seg));
        }
    }
}

impl DistMatrix {
    /// Full zero matrix distributed over `nproc` ranks (block column
    /// layout, remainders spread over the first ranks).
    pub fn zeros(nrows: usize, ncols: usize, nproc: usize) -> Self {
        Self::with_layout(Arc::new(Layout::full(nrows, ncols)), nproc)
    }

    /// Zero matrix storing the elements of `layout`, its columns
    /// distributed over `nproc` ranks as [`DistMatrix::zeros`] does. Its
    /// segments come from the calling thread's storage scope when one is
    /// open ([`crate::reuse`]), and go back to it when the matrix drops.
    pub fn with_layout(layout: Arc<Layout>, nproc: usize) -> Self {
        Self::alloc(layout, nproc, reuse::zeroed)
    }

    /// A matrix stored as `layout`, its segments from `storage`.
    fn alloc(layout: Arc<Layout>, nproc: usize, storage: fn(usize) -> Vec<f64>) -> Self {
        assert!(nproc >= 1);
        let ncols = layout.ncols();
        let base = ncols / nproc;
        let extra = ncols % nproc;
        let mut col_offsets = Vec::with_capacity(nproc + 1);
        col_offsets.push(0);
        let mut acc = 0;
        for p in 0..nproc {
            acc += base + usize::from(p < extra);
            col_offsets.push(acc);
        }
        let segments = (0..nproc)
            .map(|p| {
                let n = layout.offset(col_offsets[p + 1]) - layout.offset(col_offsets[p]);
                Mutex::new(storage(n))
            })
            .collect();
        DistMatrix {
            layout,
            nproc,
            mat_id: NEXT_MAT_ID.fetch_add(1, Ordering::Relaxed),
            col_offsets,
            segments,
            tracer: OnceLock::new(),
            recorder: OnceLock::new(),
            faults: OnceLock::new(),
            seq: AtomicU64::new(0),
            last_seq: (0..nproc).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Attach a tracer; remote `get`/`acc` and `transpose` on this
    /// matrix then emit byte-counted events. First attachment wins.
    pub fn attach_tracer(&self, tracer: Tracer) {
        let _ = self.tracer.set(tracer);
    }

    /// Attach a protocol recorder; every one-sided operation then reports
    /// its lock/get/put/fence steps. First attachment wins.
    pub fn attach_recorder(&self, recorder: Arc<dyn AccessRecorder>) {
        let _ = self.recorder.set(recorder);
    }

    /// Attach a fault plan; remote one-sided ops on this matrix then run
    /// the checked delivery path (per-message sequence numbers + CRC32,
    /// bounded retry-with-backoff on injected transients). First
    /// attachment wins. With no plan attached the original fast path
    /// runs unchanged.
    pub fn attach_faults(&self, plan: Arc<FaultPlan>) {
        let _ = self.faults.set(plan);
    }

    #[inline]
    fn rec(&self, access: DdiAccess) {
        if let Some(r) = self.recorder.get() {
            r.record(&access);
        }
    }

    /// Model collective / whole-matrix operations as a global
    /// synchronization point: everything before is ordered before
    /// everything after (the driver-level vector algebra is collective in
    /// the real program, bracketed by barriers).
    #[inline]
    fn rec_barrier(&self) {
        self.rec(DdiAccess::Barrier);
    }

    #[inline]
    fn trace_op(&self, rank: usize, op: TransferOp, bytes: u64, col: usize, owner: usize) {
        if let Some(t) = self.tracer.get() {
            let event = match op {
                TransferOp::Get => "ddi_get",
                TransferOp::Acc => "ddi_acc",
            };
            t.instant(
                Some(rank),
                event,
                Category::Net,
                &[
                    ("bytes", bytes as f64),
                    ("col", col as f64),
                    ("owner", owner as f64),
                ],
            );
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.layout.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.layout.ncols()
    }

    /// Which elements the matrix stores.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// Number of virtual processors the columns are distributed over.
    pub fn nproc(&self) -> usize {
        self.nproc
    }

    /// Owner rank of a column.
    #[inline]
    pub fn owner(&self, col: usize) -> usize {
        debug_assert!(col < self.ncols());
        // Block distribution: binary search the offsets.
        match self.col_offsets.binary_search(&col) {
            Ok(p) => p.min(self.nproc - 1),
            Err(p) => p - 1,
        }
    }

    /// Columns owned by rank `p`.
    pub fn local_cols(&self, p: usize) -> std::ops::Range<usize> {
        self.col_offsets[p]..self.col_offsets[p + 1]
    }

    /// Run `f` with rank `p`'s segment locked: the stored elements of the
    /// locally owned columns, column by column (column `j` at
    /// `layout().offset(j) − layout().offset(local_cols(p).start)`).
    ///
    /// Recorded as lock → read+write → unlock by the calling rank `p`
    /// (the closure gets `&mut`, so a write is assumed conservatively).
    pub fn with_local<R>(&self, p: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let mut seg = self.segments[p].lock().unwrap();
        self.rec(DdiAccess::Lock {
            rank: p,
            mat: self.mat_id,
            owner: p,
        });
        self.rec(DdiAccess::Access {
            rank: p,
            mat: self.mat_id,
            kind: AccessKind::Read,
            cols: self.local_cols(p),
            owner: p,
            site: DdiSite::WithLocal,
        });
        let out = f(&mut seg);
        self.rec(DdiAccess::Access {
            rank: p,
            mat: self.mat_id,
            kind: AccessKind::Write,
            cols: self.local_cols(p),
            owner: p,
            site: DdiSite::WithLocal,
        });
        self.rec(DdiAccess::Unlock {
            rank: p,
            mat: self.mat_id,
            owner: p,
        });
        out
    }

    /// One-sided `DDI_GET` of a set of columns (one column = a one-element
    /// `cols`) into a column-major buffer: `out[i + slot·nrows]` receives
    /// element `i` of column `cols[slot]` for every stored row `i`; the
    /// other rows of `out` are left as they are.
    ///
    /// `rank` is the calling processor; only remote columns count as
    /// traffic, and only their stored elements. Columns in one maximal run
    /// of `cols` sharing an owner are copied under a **single** lock
    /// acquisition and — when the owner is remote — charged as **one**
    /// strided `SHMEM_GET` message carrying
    /// the run's total bytes, with one trace event for the whole run. This
    /// mirrors the "one strided get per remote source rank" model of
    /// [`DistMatrix::transpose`] (the X1's vector gather hardware turns a
    /// strided remote read into a single operation) and is what lets the σ
    /// driver pay one latency charge per aggregated family instead of one
    /// per column. Each column is still recorded individually with the
    /// protocol recorder.
    ///
    /// With a fault plan attached the gather degrades to per-column
    /// checked deliveries: every response carries a sequence number and a
    /// CRC32, a dropped or garbled one is detected and resent (bounded by
    /// the plan's [`fci_fault::RetryPolicy`]), and the wasted traffic plus
    /// backoff wait are charged to the caller's stats.
    pub fn get_cols(&self, rank: usize, cols: &[usize], out: &mut [f64], stats: &mut CommStats) {
        let nrows = self.nrows();
        assert_eq!(out.len(), nrows * cols.len());
        if let Some(plan) = self.faults.get() {
            return self.get_cols_checked(plan, rank, cols, out, stats);
        }
        let mut s = 0;
        while s < cols.len() {
            let owner = self.owner(cols[s]);
            let mut e = s + 1;
            while e < cols.len() && self.owner(cols[e]) == owner {
                e += 1;
            }
            let mut moved = 0;
            {
                let seg = self.segments[owner].lock().unwrap();
                for slot in s..e {
                    let col = cols[slot];
                    self.rec(DdiAccess::Access {
                        rank,
                        mat: self.mat_id,
                        kind: AccessKind::Read,
                        cols: col..col + 1,
                        owner,
                        site: DdiSite::Get,
                    });
                    let rows = self.layout.rows(col);
                    moved += rows.len();
                    out[slot * nrows + rows.start..slot * nrows + rows.end]
                        .copy_from_slice(&seg[self.local_range(owner, col)]);
                }
            }
            if owner != rank {
                let bytes = (moved * 8) as u64;
                stats.get_msgs += 1;
                stats.get_bytes += bytes;
                if let Some(t) = self.tracer.get() {
                    t.instant(
                        Some(rank),
                        "ddi_get_cols",
                        Category::Net,
                        &[
                            ("bytes", bytes as f64),
                            ("ncols", (e - s) as f64),
                            ("col0", cols[s] as f64),
                            ("owner", owner as f64),
                        ],
                    );
                }
            }
            s = e;
        }
    }

    /// The gather under a fault plan: checked delivery is inherently
    /// per-message, so every column is one op. Faulted attempts never
    /// touch `out` or emit protocol records — only the final validated
    /// delivery performs the recorded read under the owner's lock, so
    /// the race detector sees the same protocol as the fast path.
    fn get_cols_checked(
        &self,
        plan: &FaultPlan,
        rank: usize,
        cols: &[usize],
        out: &mut [f64],
        stats: &mut CommStats,
    ) {
        let nrows = self.nrows();
        for (slot, &col) in cols.iter().enumerate() {
            let owner = self.owner(col);
            let range = self.local_range(owner, col);
            let rows = self.layout.rows(col);
            let bytes = (rows.len() * 8) as u64;
            plan.note_op();
            let duplicated = owner != rank
                && self.deliver(plan, TransferOp::Get, rank, col, bytes, stats, |wire| {
                    wire.copy_from_slice(&self.segments[owner].lock().unwrap()[range.clone()]);
                });
            {
                let seg = self.segments[owner].lock().unwrap();
                self.rec(DdiAccess::Access {
                    rank,
                    mat: self.mat_id,
                    kind: AccessKind::Read,
                    cols: col..col + 1,
                    owner,
                    site: DdiSite::Get,
                });
                out[slot * nrows + rows.start..slot * nrows + rows.end]
                    .copy_from_slice(&seg[range]);
            }
            if owner != rank {
                stats.count(TransferOp::Get, bytes);
                self.trace_op(rank, TransferOp::Get, bytes, col, owner);
                self.stamp(plan, TransferOp::Get, rank, col, bytes, duplicated, stats);
            }
        }
    }

    /// One-sided `DDI_ACC`: `column += buf` on the column's stored rows
    /// (`buf` is a whole column; its other rows are not read).
    ///
    /// Remote accumulation counts 2× the stored payload bytes (fetch +
    /// write-back, exactly the SHMEM protocol the paper describes) plus one
    /// mutex acquisition. Local accumulation still takes the lock (the X1
    /// code does too — the lock protects against concurrent remote
    /// updates) but costs no network bytes.
    pub fn acc_col(&self, rank: usize, col: usize, buf: &[f64], stats: &mut CommStats) {
        assert_eq!(buf.len(), self.nrows());
        let buf = &buf[self.layout.rows(col)];
        let owner = self.owner(col);
        if let Some(plan) = self.faults.get() {
            plan.note_op();
            // A plan carrying a broken-protocol mode (race-detector
            // validation) routes every accumulate through that protocol.
            if let Some(pf) = plan.protocol_fault() {
                return self.acc_col_broken(rank, col, owner, buf, pf, stats);
            }
            if owner != rank {
                return self.acc_col_checked(plan, rank, col, owner, buf, stats);
            }
        }
        self.acc_protocol(rank, col, owner, buf, true);
        stats.mutex_acquires += 1;
        if owner != rank {
            stats.acc_msgs += 1;
            stats.acc_bytes += (buf.len() * 16) as u64;
            self.trace_op(rank, TransferOp::Acc, (buf.len() * 16) as u64, col, owner);
        }
    }

    /// Remote accumulate under a fault plan (`buf` = the stored rows): the
    /// payload is CRC32-validated
    /// *before* it is applied, so a corrupted delivery never pollutes the
    /// remote column, and only the validated delivery runs the (recorded)
    /// lock/fence protocol.
    fn acc_col_checked(
        &self,
        plan: &FaultPlan,
        rank: usize,
        col: usize,
        owner: usize,
        buf: &[f64],
        stats: &mut CommStats,
    ) {
        let bytes = (buf.len() * 16) as u64;
        let duplicated = self.deliver(plan, TransferOp::Acc, rank, col, bytes, stats, |wire| {
            wire.copy_from_slice(buf)
        });
        self.acc_protocol(rank, col, owner, buf, true);
        stats.mutex_acquires += 1;
        stats.count(TransferOp::Acc, bytes);
        self.trace_op(rank, TransferOp::Acc, bytes, col, owner);
        self.stamp(plan, TransferOp::Acc, rank, col, bytes, duplicated, stats);
        // Injected fence delay: the accumulate's trailing memory fence
        // takes longer to drain; pure simulated wait, no reordering.
        if let Some(ns) = plan.on_fence() {
            stats.backoff_ns += ns;
            self.trace_fault(rank, FaultKind::FenceDelay, TransferOp::Acc, col, 0, ns);
        }
    }

    /// The protocol of §3.1, recorded step by step while the node mutex
    /// is held so the record order is the true lock order:
    /// lock → SHMEM_GET → add → SHMEM_PUT → fence → unlock. `fence:
    /// false` drops the fence record — [`ProtocolFault::SkipFence`], the
    /// only caller that passes it. `buf` holds the column's stored rows.
    fn acc_protocol(&self, rank: usize, col: usize, owner: usize, buf: &[f64], fence: bool) {
        let mut seg = self.segments[owner].lock().unwrap();
        self.rec(DdiAccess::Lock {
            rank,
            mat: self.mat_id,
            owner,
        });
        self.rec(DdiAccess::Access {
            rank,
            mat: self.mat_id,
            kind: AccessKind::Read,
            cols: col..col + 1,
            owner,
            site: DdiSite::AccGet,
        });
        let dst = &mut seg[self.local_range(owner, col)];
        for (d, s) in dst.iter_mut().zip(buf) {
            *d += s;
        }
        self.rec(DdiAccess::Access {
            rank,
            mat: self.mat_id,
            kind: AccessKind::Write,
            cols: col..col + 1,
            owner,
            site: DdiSite::AccPut,
        });
        if fence {
            self.rec(DdiAccess::Fence { rank });
        }
        self.rec(DdiAccess::Unlock {
            rank,
            mat: self.mat_id,
            owner,
        });
    }

    /// Positions of column `col`'s stored elements inside `owner`'s
    /// segment.
    #[inline]
    fn local_range(&self, owner: usize, col: usize) -> std::ops::Range<usize> {
        let base = self.layout.offset(self.col_offsets[owner]);
        self.layout.offset(col) - base..self.layout.offset(col + 1) - base
    }

    /// Checked delivery of one remote transfer — the one retry loop. Each
    /// attempt draws a fault from the plan. A dropped attempt (the ack
    /// timeout fires) or a garbled one (its CRC32 disagrees with the
    /// sender's checksum of `fill`'s payload, so it is rejected before any
    /// data is used) still crossed the wire: its traffic and the backoff
    /// before the resend are charged to the caller's stats, and from there
    /// to the xsim clock. Returns whether the attempt that got through
    /// arrives twice; the caller runs the protocol once, then [`Self::stamp`].
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &self,
        plan: &FaultPlan,
        op: TransferOp,
        rank: usize,
        col: usize,
        bytes: u64,
        stats: &mut CommStats,
        fill: impl Fn(&mut [f64]),
    ) -> bool {
        let mut attempt: u32 = 0;
        loop {
            match plan.on_transfer(op, attempt) {
                Some(TransferFault::Drop) => {}
                Some(TransferFault::Corrupt(kind)) => {
                    // lint: allow(alloc) — injected-fault recovery path; never runs in a fault-free production sweep
                    let mut wire = vec![0.0; self.layout.rows(col).len()];
                    fill(&mut wire);
                    let sent = checksum_f64s(&wire);
                    plan.corrupt(kind, &mut wire);
                    debug_assert!(
                        wire.is_empty() || sent != checksum_f64s(&wire),
                        "corruption escaped the CRC"
                    );
                }
                fault => return fault == Some(TransferFault::Duplicate),
            }
            stats.count(op, bytes);
            stats.retries += 1;
            let backoff_ns = plan.backoff_ns(attempt);
            stats.backoff_ns += backoff_ns;
            plan.count_retry();
            self.trace_fault(rank, FaultKind::Transient, op, col, attempt, backoff_ns);
            attempt += 1;
        }
    }

    /// Stamp the validated delivery from `rank` with the next sequence
    /// number and record it as applied. A duplicated delivery re-arrives
    /// bearing that already-applied number: the sequence guard discards
    /// it, costing only the extra wire traffic.
    #[allow(clippy::too_many_arguments)]
    fn stamp(
        &self,
        plan: &FaultPlan,
        op: TransferOp,
        rank: usize,
        col: usize,
        bytes: u64,
        duplicated: bool,
        stats: &mut CommStats,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.last_seq[rank].store(seq, Ordering::Release);
        if duplicated {
            if self.last_seq[rank].load(Ordering::Acquire) >= seq {
                plan.count_dup_discard();
            }
            stats.count(op, bytes);
            self.trace_fault(rank, FaultKind::Duplicate, op, col, 0, 0);
        }
    }

    /// Emit a `fault_injected` instant for an injected fault handled on
    /// this matrix. `backoff_ns` is the simulated delay the fault cost
    /// before the operation proceeded (0 for free faults like duplicate
    /// discards); it rides on the instant as `backoff_s` and feeds the
    /// `ddi.retry_backoff_s` histogram.
    fn trace_fault(
        &self,
        rank: usize,
        kind: FaultKind,
        op: TransferOp,
        col: usize,
        attempt: u32,
        backoff_ns: u64,
    ) {
        if let Some(t) = self.tracer.get() {
            let opcode = match op {
                TransferOp::Get => 0.0,
                TransferOp::Acc => 1.0,
            };
            let backoff_s = backoff_ns as f64 / 1e9;
            let args = [
                ("op", opcode),
                ("col", col as f64),
                ("attempt", attempt as f64),
                ("kind", kind.code()),
                ("backoff_s", backoff_s),
            ];
            // `backoff_s` rides along only when the fault cost a wait.
            let n = if backoff_ns > 0 { 5 } else { 4 };
            t.instant(Some(rank), "fault_injected", Category::Other, &args[..n]);
        }
    }

    /// `DDI_ACC` with a deliberately broken protocol — what
    /// [`DistMatrix::acc_col`] runs when the attached [`FaultPlan`] carries
    /// a [`ProtocolFault`] (the `fci-check` race detector's fixtures).
    /// Traffic accounting matches the correct protocol's, except that
    /// [`ProtocolFault::SkipLock`] charges no mutex acquisition (that is
    /// the injected bug).
    fn acc_col_broken(
        &self,
        rank: usize,
        col: usize,
        owner: usize,
        buf: &[f64],
        pf: ProtocolFault,
        stats: &mut CommStats,
    ) {
        match pf {
            ProtocolFault::SkipFence => {
                // BUG under test: no fence — the put is not ordered
                // before the unlock that publishes it.
                self.acc_protocol(rank, col, owner, buf, false);
                stats.mutex_acquires += 1;
            }
            ProtocolFault::SkipLock => {
                let range = self.local_range(owner, col);
                // BUG under test: the read-modify-write is not spanned by
                // the per-node lock. The two short internal borrows below
                // only keep Rust memory-safe; between them another rank
                // can update the column and its update is then lost.
                let snapshot: Vec<f64> = {
                    let seg = self.segments[owner].lock().unwrap();
                    self.rec(DdiAccess::Access {
                        rank,
                        mat: self.mat_id,
                        kind: AccessKind::Read,
                        cols: col..col + 1,
                        owner,
                        site: DdiSite::AccGet,
                    });
                    seg[range.clone()].to_vec()
                };
                let sum: Vec<f64> = snapshot.iter().zip(buf).map(|(d, s)| d + s).collect();
                {
                    let mut seg = self.segments[owner].lock().unwrap();
                    self.rec(DdiAccess::Access {
                        rank,
                        mat: self.mat_id,
                        kind: AccessKind::Write,
                        cols: col..col + 1,
                        owner,
                        site: DdiSite::AccPut,
                    });
                    seg[range].copy_from_slice(&sum);
                }
                self.rec(DdiAccess::Fence { rank });
            }
        }
        if owner != rank {
            stats.acc_msgs += 1;
            stats.acc_bytes += (buf.len() * 16) as u64;
            self.trace_op(rank, TransferOp::Acc, (buf.len() * 16) as u64, col, owner);
        }
    }

    /// Gather the whole matrix into a local column-major buffer, zero
    /// where nothing is stored (test/diagnostic helper; not part of the
    /// scalable path).
    pub fn to_dense(&self) -> Vec<f64> {
        let nrows = self.nrows();
        let mut out = vec![0.0; nrows * self.ncols()];
        self.map_cols_inplace(|col, rows, vals| {
            out[col * nrows + rows.start..col * nrows + rows.end].copy_from_slice(vals);
        });
        out
    }

    /// Load a full matrix from a local column-major buffer.
    pub fn from_dense(nrows: usize, ncols: usize, nproc: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        let m = Self::zeros(nrows, ncols, nproc);
        m.map_cols_inplace(|col, _, vals| vals.copy_from_slice(&data[col * nrows..][..nrows]));
        m
    }

    /// Both operands store the same elements on the same ranks.
    fn assert_conforms(&self, other: &DistMatrix) {
        assert!(
            self.nproc == other.nproc
                && (Arc::ptr_eq(&self.layout, &other.layout) || self.layout == other.layout),
            "operands differ in layout or rank count"
        );
    }

    // ----- distributed vector algebra (treats the stored elements as one
    // long vector; every op runs segment-local and reduces) -----

    /// Global Frobenius inner product `⟨self, other⟩`, summed by the
    /// eight-lane rule of [`DistMatrix::dots`] and bit for bit what `dots`
    /// returns for the pair.
    ///
    /// Safe to call with `other` aliasing `self` (the per-segment mutexes
    /// are not reentrant, so the aliased case takes each lock once).
    pub fn dot(&self, other: &DistMatrix) -> f64 {
        self.assert_conforms(other);
        self.rec_barrier();
        other.rec_barrier();
        let mut acc = 0.0;
        for p in 0..self.nproc {
            let a = self.segments[p].lock().unwrap();
            let mut lanes = [0.0; LANES];
            if std::ptr::eq(self, other) {
                add_lanes(&a, &a, &mut lanes);
            } else {
                add_lanes(&a, &other.segments[p].lock().unwrap(), &mut lanes);
            }
            acc += fold_lanes(&lanes);
        }
        acc
    }

    /// Global 2-norm: the square root of `self.dot(self)`.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// `self += a · other`.
    pub fn axpy(&self, a: f64, other: &DistMatrix) {
        self.map_with(other, |x, y| x + a * y);
    }

    /// `self ← f(self, other)`, element by element.
    pub fn map_with(&self, other: &DistMatrix, mut f: impl FnMut(f64, f64) -> f64) {
        assert!(
            !std::ptr::eq(self, other),
            "operands must not alias (non-reentrant locks)"
        );
        self.assert_conforms(other);
        self.rec_barrier();
        other.rec_barrier();
        for p in 0..self.nproc {
            let mut x = self.segments[p].lock().unwrap();
            let y = other.segments[p].lock().unwrap();
            for (xi, yi) in x.iter_mut().zip(y.iter()) {
                *xi = f(*xi, *yi);
            }
        }
        self.rec_barrier();
    }

    /// `self *= a`.
    pub fn scale(&self, a: f64) {
        self.rec_barrier();
        for p in 0..self.nproc {
            self.segments[p]
                .lock()
                .unwrap()
                .iter_mut()
                .for_each(|x| *x *= a);
        }
        self.rec_barrier();
    }

    /// A new matrix with this one's layout, distribution and contents.
    pub fn duplicate(&self) -> DistMatrix {
        self.rec_barrier();
        let out = self.overwritten_like();
        for (dst, src) in out.segments.iter().zip(&self.segments) {
            dst.lock().unwrap().copy_from_slice(&src.lock().unwrap());
        }
        out
    }

    /// A matrix with this one's layout and distribution, for a caller
    /// that writes every stored element before reading it.
    fn overwritten_like(&self) -> DistMatrix {
        DistMatrix::alloc(Arc::clone(&self.layout), self.nproc, reuse::overwritten)
    }

    // ----- block kernels: one pass over a set of matrices does the work of
    // a loop of the per-vector operations above, bit for bit -----

    /// `⟨mats[i], mats[j]⟩` for every pair `(i, j)` of `pairs` — `Bᵀ·T`
    /// is one pair per (column of B, column of T) — in one pass over the
    /// matrices, each bit for bit what [`DistMatrix::dot`] returns. The
    /// rule: within a rank's segment, element `e`'s product `x·y` adds to
    /// lane `e mod 8` of eight lanes that start at +0.0, each lane in
    /// element order; the lanes fold as `((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7))`,
    /// and the segments' sums fold into 0.0 in rank order. The lanes are
    /// contiguous loads, and every pair walks blocks of 512 elements, so
    /// each matrix is read from memory once however many pairs name it.
    /// The bits depend neither on the block length nor on the vector
    /// width. The matrices must be distinct; a pair `(i, i)` is a squared
    /// norm.
    pub fn dots(mats: &[&DistMatrix], pairs: &[(usize, usize)]) -> Vec<f64> {
        let n = pairs.len();
        // The sums, then one segment's lanes per pair.
        let mut sums = vec![0.0; (1 + LANES) * n];
        if let Some(&first) = mats.first() {
            check_operands(mats.iter().copied());
            let (acc, lanes) = sums.split_at_mut(n);
            let lanes = lanes.as_chunks_mut().0;
            let mut segs = Vec::with_capacity(mats.len());
            for p in 0..first.nproc {
                segs.extend(mats.iter().map(|m| m.segments[p].lock().unwrap()));
                lanes.fill([0.0; LANES]);
                for r in walk(segs[0].len()) {
                    for (&(i, j), l) in pairs.iter().zip(&mut *lanes) {
                        add_lanes(&segs[i][r.clone()], &segs[j][r.clone()], l);
                    }
                }
                for (a, l) in acc.iter_mut().zip(&*lanes) {
                    *a += fold_lanes(l);
                }
                segs.clear();
            }
        }
        sums.truncate(n);
        sums
    }

    /// Linear combinations of `ins` into new matrices, in one pass over
    /// them: term `(k, j, a)` of `terms` adds `a·ins[j]` to output `k`.
    /// An output's first term sets it to `ins[j]·a` and each later one
    /// makes it `x + a·ins[j]`, in slice order: bit for bit
    /// [`DistMatrix::duplicate`] and [`DistMatrix::scale`], then one
    /// [`DistMatrix::axpy`] per further term. `X = B·Y` is the terms
    /// `(k, j, Y[j, k])`, j ascending. Outputs are numbered from 0, and
    /// every one needs a term. The inputs must be distinct.
    pub fn combine(ins: &[&DistMatrix], terms: &[(usize, usize, f64)]) -> Vec<DistMatrix> {
        let nout = terms.iter().map(|t| t.0 + 1).max().unwrap_or(0);
        let outs: Vec<DistMatrix> = (0..nout).map(|_| ins[0].overwritten_like()).collect();
        combine_into(&outs, ins, terms, true);
        outs
    }

    /// `T ← T + B·C` in place, in one pass over the matrices: term
    /// `(k, j, a)` makes `outs[k]` into `x + a·ins[j]`, in slice order —
    /// bit for bit one [`DistMatrix::axpy`] per term. Projecting `t`
    /// against the `bⱼ` is the terms `(k, j, −cⱼ)`. All the matrices must
    /// be distinct.
    pub fn add_combination(
        outs: &[&DistMatrix],
        ins: &[&DistMatrix],
        terms: &[(usize, usize, f64)],
    ) {
        combine_into(outs, ins, terms, false);
    }

    /// Read one element, zero if it is not stored (diagnostic /
    /// small-model-space use; takes the owner's lock per call).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.nrows() && col < self.ncols());
        let rows = self.layout.rows(col);
        if !rows.contains(&row) {
            return 0.0;
        }
        let p = self.owner(col);
        self.segments[p].lock().unwrap()[self.local_range(p, col).start + row - rows.start]
    }

    /// Write one stored element (diagnostic / small-model-space use).
    pub fn set(&self, row: usize, col: usize, v: f64) {
        let rows = self.layout.rows(col);
        assert!(rows.contains(&row), "({row}, {col}) is not stored");
        let p = self.owner(col);
        self.segments[p].lock().unwrap()[self.local_range(p, col).start + row - rows.start] = v;
    }

    /// Where the stored element `(row, col)` lives: its owner rank and
    /// its index in that rank's segment. Panics if it is not stored. A
    /// caller that reads or writes the same few elements of many
    /// matrices with one layout and rank count locates them once and
    /// passes the slots to [`DistMatrix::read_slots`] /
    /// [`DistMatrix::write_slots`].
    pub fn slot(&self, row: usize, col: usize) -> (usize, usize) {
        let rows = self.layout.rows(col);
        assert!(rows.contains(&row), "({row}, {col}) is not stored");
        let p = self.owner(col);
        (p, self.local_range(p, col).start + row - rows.start)
    }

    /// Hand `f(i, value)` the element at each `slots[i]` (as
    /// [`DistMatrix::slot`] gives it). Each maximal run of slots on one
    /// rank is read under one lock, so slots sorted by rank take each
    /// segment's lock once; [`DistMatrix::get`] takes it per element.
    /// Like `get`, a read of a few elements outside any phase: no protocol
    /// record, no traffic.
    pub fn read_slots(&self, slots: &[(usize, usize)], mut f: impl FnMut(usize, f64)) {
        let mut i = 0;
        for run in slots.chunk_by(|a, b| a.0 == b.0) {
            let seg = self.segments[run[0].0].lock().unwrap();
            for &(_, at) in run {
                f(i, seg[at]);
                i += 1;
            }
        }
    }

    /// Write `f(i)` to the element at each `slots[i]`, one lock per run of
    /// slots on one rank, as [`DistMatrix::read_slots`] reads.
    pub fn write_slots(&self, slots: &[(usize, usize)], mut f: impl FnMut(usize) -> f64) {
        let mut i = 0;
        for run in slots.chunk_by(|a, b| a.0 == b.0) {
            let mut seg = self.segments[run[0].0].lock().unwrap();
            for &(_, at) in run {
                seg[at] = f(i);
                i += 1;
            }
        }
    }

    /// Weighted inner product `Σ_i w_i a_i b_i`, skipping entries whose
    /// weight is not finite (used with excitation-masked diagonals, where
    /// excluded weights are ∞ against structurally zero vectors).
    pub fn dot3(&self, w: &DistMatrix, other: &DistMatrix) -> f64 {
        self.assert_conforms(other);
        self.assert_conforms(w);
        self.rec_barrier();
        w.rec_barrier();
        other.rec_barrier();
        // The per-segment mutexes are not reentrant — handle aliasing
        // among the three operands explicitly.
        let mut acc = 0.0;
        for p in 0..self.nproc {
            let a = self.segments[p].lock().unwrap();
            let ww = if std::ptr::eq(w, self) {
                None
            } else {
                Some(w.segments[p].lock().unwrap())
            };
            let b = if std::ptr::eq(other, self) || std::ptr::eq(other, w) {
                None
            } else {
                Some(other.segments[p].lock().unwrap())
            };
            for i in 0..a.len() {
                let wv = ww.as_ref().map_or(a[i], |s| s[i]);
                let bv = if std::ptr::eq(other, self) {
                    a[i]
                } else if std::ptr::eq(other, w) {
                    wv
                } else {
                    b.as_ref().unwrap()[i] // lint: allow(unwrap) — guarded by the aliasing branches above
                };
                if wv.is_finite() {
                    acc += wv * a[i] * bv;
                }
            }
        }
        acc
    }

    /// Elementwise map in place over the stored elements, as
    /// `f(row, col, value)`.
    // lint: allow(dead) — fills CI vectors with test data in fci-core's and the workspace's tests
    pub fn map_inplace(&self, mut f: impl FnMut(usize, usize, f64) -> f64) {
        self.map_cols_inplace(|col, rows, vals| {
            for (row, v) in rows.zip(vals) {
                *v = f(row, col, *v);
            }
        });
    }

    /// Hand `f` every column in index order, as `(column, the rows it
    /// stores, their values)`.
    pub fn map_cols_inplace(&self, mut f: impl FnMut(usize, Range<usize>, &mut [f64])) {
        self.rec_barrier();
        for p in 0..self.nproc {
            let mut seg = self.segments[p].lock().unwrap();
            for col in self.local_cols(p) {
                f(
                    col,
                    self.layout.rows(col),
                    &mut seg[self.local_range(p, col)],
                );
            }
        }
        self.rec_barrier();
    }

    /// Distributed transpose: a new `ncols × nrows` matrix with the
    /// transposed layout and the same processor count. Bytes for every
    /// stored element whose source and destination rank differ are
    /// charged to the *destination* rank's stats entry, modelling an
    /// all-to-all built from one-sided gets.
    pub fn transpose(&self, stats: &mut [CommStats]) -> DistMatrix {
        // Every stored element of `t` is written below.
        let t = DistMatrix::alloc(
            Arc::new(self.layout.transposed()),
            self.nproc,
            reuse::overwritten,
        );
        self.transpose_onto(&t, stats, |d, s| *d = s);
        t
    }

    /// `dst += selfᵀ`, element by element, for a `dst` stored as the
    /// transpose on as many ranks: the data [`DistMatrix::transpose`]
    /// moves, moved and charged the same way, but added where it lands
    /// instead of into a new matrix that an [`DistMatrix::axpy`] would
    /// then read. The sums are the axpy's, bit for bit (`x + 1·y` is
    /// `x + y`).
    pub fn transpose_add_to(&self, dst: &DistMatrix, stats: &mut [CommStats]) {
        assert!(
            !std::ptr::eq(self, dst),
            "operands must not alias (non-reentrant locks)"
        );
        assert!(
            dst.layout.is_transpose_of(&self.layout) && dst.nproc == self.nproc,
            "the destination is not stored as the transpose"
        );
        dst.rec_barrier();
        self.transpose_onto(dst, stats, |d, s| *d += s);
        dst.rec_barrier();
    }

    /// The one body of [`DistMatrix::transpose`] and
    /// [`DistMatrix::transpose_add_to`]: `op(dst element, self element)`
    /// for every stored element, block by block, and the transpose's
    /// charges into `stats`.
    fn transpose_onto(
        &self,
        t: &DistMatrix,
        stats: &mut [CommStats],
        op: impl Fn(&mut f64, f64) + Copy,
    ) {
        assert_eq!(stats.len(), self.nproc);
        self.rec_barrier();
        let lay = &*self.layout;
        let tl = Arc::clone(&t.layout);
        let new_cols: Vec<_> = (0..self.nproc).map(|p| t.local_cols(p)).collect();
        let t_owner: Vec<_> = (0..self.nrows()).map(|r| t.owner(r)).collect();
        let mut dsts: Vec<_> = t.segments.iter().map(|m| m.lock().unwrap()).collect();
        // Block by block: owner `o`'s old columns `cols` of irrep g store
        // the old rows `rows` (one column-major block, leading dimension
        // `rows.len()`); each new column r of `rows` stores the old
        // columns of irrep g (leading dimension `cb.len()`), so the part of
        // the block that rank p's new columns own is one block transpose.
        for o in 0..self.nproc {
            let src = self.segments[o].lock().unwrap();
            let oc = self.local_cols(o);
            let base = lay.offset(oc.start);
            for g in 0..lay.n_irrep() {
                let (cb, rows) = lay.block(g);
                let cols = cb.start.max(oc.start)..cb.end.min(oc.end);
                if cols.is_empty() || rows.is_empty() {
                    continue;
                }
                for p in t_owner[rows.start]..=t_owner[rows.end - 1] {
                    let nr = &new_cols[p];
                    let r = rows.start.max(nr.start)..rows.end.min(nr.end);
                    if r.is_empty() {
                        continue;
                    }
                    let s0 = lay.offset(cols.start) - base + (r.start - rows.start);
                    let d0 = tl.offset(r.start) - tl.offset(nr.start) + (cols.start - cb.start);
                    transpose_block_with(
                        &src[s0..],
                        rows.len(),
                        r.len(),
                        cols.len(),
                        &mut dsts[p][d0..],
                        cb.len(),
                        op,
                    );
                }
            }
        }
        drop(dsts);
        // Rank p fetches its new columns' elements from every other rank
        // that owns an old column: one strided SHMEM_GET per source (the
        // X1's vector gather hardware makes strided remote reads a single
        // operation, so we do not charge per-element latency). Under a
        // blocked layout a source may hold nothing for p; its message is
        // still charged, so the count does not depend on the layout
        // (ROADMAP item 10 weighs changing that).
        let owners = (0..self.nproc)
            .filter(|&o| !self.local_cols(o).is_empty())
            .count();
        for (p, stat) in stats.iter_mut().enumerate() {
            let own = self.local_cols(p);
            // Stored elements of the new columns whose old column is not p's.
            let remote_elems: usize = new_cols[p]
                .clone()
                .map(|r| {
                    let c = tl.rows(r);
                    c.len() - c.end.min(own.end).saturating_sub(c.start.max(own.start))
                })
                .sum();
            let (remote, msgs) = match new_cols[p].len() {
                0 => (0, 0),
                _ => (
                    (8 * remote_elems) as u64,
                    (owners - usize::from(!own.is_empty())) as u64,
                ),
            };
            stat.get_bytes += remote;
            stat.get_msgs += msgs;
            if let Some(tr) = self.tracer.get() {
                tr.instant(
                    Some(p),
                    "ddi_transpose",
                    Category::Net,
                    &[("bytes", remote as f64), ("msgs", msgs as f64)],
                );
            }
        }
    }
}

/// Elements of each matrix a block kernel walks before moving on to the
/// next matrix: 512 `f64` (4 KiB), so the dozens of matrices of one
/// subspace step stay in L1/L2 between their reads.
const WALK: usize = 512;

/// Lanes of each sum of [`DistMatrix::dots`]: element `e` of a segment
/// adds to lane `e mod LANES`. The lanes do not wait on each other, and
/// [`WALK`] is a multiple of `LANES`, so a block starts at lane 0.
const LANES: usize = 8;
const _: () = assert!(WALK % LANES == 0);

/// The blocks of [`WALK`] elements of a segment of `len`.
fn walk(len: usize) -> impl Iterator<Item = Range<usize>> {
    (0..len).step_by(WALK).map(move |s| s..len.min(s + WALK))
}

/// Check the operands of a block kernel — the same elements on the same
/// ranks, and no matrix twice (the segment mutexes are not reentrant) —
/// and record the collective operation's start.
fn check_operands<'a>(mats: impl Iterator<Item = &'a DistMatrix> + Clone) {
    let Some(first) = mats.clone().next() else {
        return;
    };
    for (k, m) in mats.clone().enumerate() {
        first.assert_conforms(m);
        assert!(
            !mats.clone().take(k).any(|o| std::ptr::eq(o, m)),
            "a block kernel's operands must be distinct matrices"
        );
        m.rec_barrier();
    }
}

/// The reduction kernel of [`DistMatrix::dots`] and [`DistMatrix::dot`]:
/// continue the lanes `l` of a segment's `Σ x·y` over a stretch of it
/// that starts at a multiple of [`LANES`], element `e` of the stretch
/// adding to lane `e mod LANES`. A last part shorter than `LANES` is
/// padded with zeros: its `+0.0` products leave the lanes they reach
/// past the end as they are, since a lane that starts at +0.0 never
/// holds −0.0. (Indexing the lanes by a loop variable instead would keep
/// them in memory rather than in a register.) No `mul_add`: the bits do
/// not depend on the target.
fn add_lanes(x: &[f64], y: &[f64], l: &mut [f64; LANES]) {
    let add = |l: &mut [f64; LANES], x: &[f64; LANES], y: &[f64; LANES]| {
        for k in 0..LANES {
            l[k] += x[k] * y[k];
        }
    };
    let ((xs, xt), (ys, yt)) = (x.as_chunks(), y.as_chunks());
    let mut s = *l;
    for (x, y) in xs.iter().zip(ys) {
        add(&mut s, x, y);
    }
    if !xt.is_empty() {
        let pad = |t: &[f64]| std::array::from_fn(|k| t.get(k).copied().unwrap_or(0.0));
        add(&mut s, &pad(xt), &pad(yt));
    }
    *l = s;
}

/// One segment's sum from its lanes, in a fixed tree.
fn fold_lanes(l: &[f64; LANES]) -> f64 {
    ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]))
}

/// The one pass of [`DistMatrix::combine`] (`set_first`) and
/// [`DistMatrix::add_combination`].
fn combine_into<O: std::borrow::Borrow<DistMatrix>>(
    outs: &[O],
    ins: &[&DistMatrix],
    terms: &[(usize, usize, f64)],
    set_first: bool,
) {
    let Some(first) = outs.first().map(O::borrow) else {
        return;
    };
    check_operands(ins.iter().copied().chain(outs.iter().map(O::borrow)));
    // Per output: whether a term has set it yet in this block.
    let mut started = vec![true; outs.len()];
    if set_first {
        started.fill(false);
        for &(k, _, _) in terms {
            started[k] = true;
        }
        assert!(started.iter().all(|&s| s), "an output has no term");
    }
    let mut segs = Vec::with_capacity(ins.len() + outs.len());
    for p in 0..first.nproc {
        segs.extend(ins.iter().map(|m| m.segments[p].lock().unwrap()));
        segs.extend(outs.iter().map(|m| m.borrow().segments[p].lock().unwrap()));
        let (src, dst) = segs.split_at_mut(ins.len());
        for r in walk(dst[0].len()) {
            started.fill(!set_first);
            for &(k, j, a) in terms {
                let x = &src[j][r.clone()];
                let y = &mut dst[k][r.clone()];
                if std::mem::replace(&mut started[k], true) {
                    y.iter_mut().zip(x).for_each(|(y, x)| *y += a * x);
                } else {
                    y.iter_mut().zip(x).for_each(|(y, x)| *y = x * a);
                }
            }
        }
        segs.clear();
    }
    for o in outs {
        o.borrow().rec_barrier();
    }
}

/// `dst[b + a·dst_ld] = src[a + b·src_ld]` for `a < nrows`, `b < ncols`:
/// an `nrows × ncols` block of a column-major matrix with leading
/// dimension `src_ld`, written transposed into one with leading dimension
/// `dst_ld` — copied in square tiles so that neither side strides through
/// more than a tile's worth of lines at a time (two 32×32 `f64` tiles are
/// 16 KB, L1-resident). The distributed transpose and the same-spin σ's
/// per-rank transposes both run on it.
pub fn transpose_block(
    src: &[f64],
    src_ld: usize,
    nrows: usize,
    ncols: usize,
    dst: &mut [f64],
    dst_ld: usize,
) {
    transpose_block_with(src, src_ld, nrows, ncols, dst, dst_ld, |d, s| *d = s);
}

/// [`transpose_block`] with `op(dst element, src element)` in place of
/// the copy.
#[inline(always)]
fn transpose_block_with(
    src: &[f64],
    src_ld: usize,
    nrows: usize,
    ncols: usize,
    dst: &mut [f64],
    dst_ld: usize,
    op: impl Fn(&mut f64, f64),
) {
    const TILE: usize = 32;
    for a0 in (0..nrows).step_by(TILE) {
        let a1 = nrows.min(a0 + TILE);
        for b0 in (0..ncols).step_by(TILE) {
            let b1 = ncols.min(b0 + TILE);
            for a in a0..a1 {
                let drow = &mut dst[a * dst_ld + b0..a * dst_ld + b1];
                let scol = src[a + b0 * src_ld..].iter().step_by(src_ld);
                for (d, s) in drow.iter_mut().zip(scol) {
                    op(d, *s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_distribution_covers_columns() {
        let m = DistMatrix::zeros(3, 10, 4);
        // 10 cols over 4 ranks: 3,3,2,2.
        assert_eq!(m.local_cols(0), 0..3);
        assert_eq!(m.local_cols(1), 3..6);
        assert_eq!(m.local_cols(2), 6..8);
        assert_eq!(m.local_cols(3), 8..10);
        for c in 0..10 {
            let p = m.owner(c);
            assert!(m.local_cols(p).contains(&c), "col {c} owner {p}");
        }
        // More ranks than columns: the trailing ranks own nothing.
        let m = DistMatrix::zeros(2, 2, 5);
        assert_eq!(m.local_cols(0), 0..1);
        assert_eq!(m.local_cols(1), 1..2);
        assert_eq!(m.local_cols(4), 2..2);
        assert_eq!(m.owner(1), 1);
    }

    #[test]
    fn get_acc_roundtrip_and_local_ops_are_free() {
        let m = DistMatrix::zeros(4, 6, 3);
        let mut st = CommStats::default();
        let v = [1.0, 2.0, 3.0, 4.0];
        m.acc_col(0, 5, &v, &mut st); // remote acc (owner = 2)
        assert_eq!((st.acc_msgs, st.acc_bytes), (1, 64)); // 2× payload
        let mut buf = [0.0; 4];
        m.get_cols(0, &[5], &mut buf, &mut st);
        assert_eq!(buf, v);
        assert_eq!((st.get_msgs, st.get_bytes), (1, 32));
        // The owner's own acc and get: locked, but free on the wire.
        let remote = st;
        m.acc_col(2, 5, &v, &mut st);
        m.get_cols(2, &[5], &mut buf, &mut st);
        assert_eq!(buf, [2.0, 4.0, 6.0, 8.0]);
        assert_eq!(st.mutex_acquires, remote.mutex_acquires + 1);
        assert_eq!(st.total_bytes(), remote.total_bytes());
        assert_eq!(st.total_msgs(), remote.total_msgs());
    }

    #[test]
    fn dense_roundtrip() {
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let m = DistMatrix::from_dense(3, 4, 3, &data);
        assert_eq!(m.to_dense(), data);
    }

    #[test]
    fn vector_algebra() {
        let a = DistMatrix::from_dense(2, 2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = DistMatrix::from_dense(2, 2, 2, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(a.dot(&b), 10.0);
        assert!((a.norm() - 30.0_f64.sqrt()).abs() < 1e-14);
        b.axpy(2.0, &a);
        assert_eq!(b.to_dense(), vec![3.0, 5.0, 7.0, 9.0]);
        b.scale(0.5);
        assert_eq!(b.to_dense(), vec![1.5, 2.5, 3.5, 4.5]);
        assert_eq!(a.duplicate().to_dense(), a.to_dense());
    }

    /// `nrows × ncols` matrices on `nproc` ranks: all +0.0, all −0.0, a
    /// mix of the two, and values with signed zeros and exact
    /// cancellations among them — seven matrices.
    fn kernel_inputs(nrows: usize, ncols: usize, nproc: usize) -> Vec<DistMatrix> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let fills: [&mut dyn FnMut(usize) -> f64; 7] = [
            &mut |_| 0.0,
            &mut |_| -0.0,
            &mut |i| if i % 3 == 0 { -0.0 } else { 0.0 },
            &mut |i| match i % 5 {
                0 => -0.0,
                1 => 0.0,
                _ => next(),
            },
            &mut |i| [1.0, -1.0, 0.5, -0.5][i % 4],
            &mut |i| (i as f64).sin() * 1e3,
            &mut |i| 1.0 / (1.0 + i as f64),
        ];
        fills
            .into_iter()
            .map(|f| {
                let data: Vec<f64> = (0..nrows * ncols).map(f).collect();
                DistMatrix::from_dense(nrows, ncols, nproc, &data)
            })
            .collect()
    }

    fn bits(m: &DistMatrix) -> Vec<u64> {
        m.to_dense().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn block_kernels_are_bitwise_the_per_vector_loops() {
        // Segments shorter than one walk, and longer with a ragged end.
        for (len, nproc) in [(5, 1), (3 * WALK + 37, 1), (3 * WALK + 37, 3), (2, 3)] {
            // One row, so the ranks split the elements by columns.
            let v = kernel_inputs(1, len, nproc);
            let what = format!("{len} elements on {nproc} ranks");
            let ins: Vec<&DistMatrix> = v.iter().collect();
            let n = v.len();
            // Every ordered pair, aliased ones included; then the first six.
            let pairs: Vec<_> = (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect();
            for pairs in [&pairs[..], &pairs[..6]] {
                for (&(i, j), d) in pairs.iter().zip(DistMatrix::dots(&ins, pairs)) {
                    assert_eq!(d.to_bits(), v[i].dot(&v[j]).to_bits(), "dot, {what}");
                }
            }
            // Two coefficients per vector, zeros of both signs among them.
            let coef =
                |j: usize, k: usize| [0.75, -0.0, -2.5, 0.0, 1e-3, -1.0, 3.0][(j + 2 * k) % 7];
            let terms: Vec<_> = (0..5)
                .flat_map(|k| (0..n).map(move |j| (k, (j + k) % n, coef(j, k))))
                .collect();
            let outs = DistMatrix::combine(&ins, &terms);
            for (k, out) in outs.iter().enumerate() {
                let mut ts = terms.iter().filter(|t| t.0 == k);
                let &(_, j, a) = ts.next().unwrap();
                let want = v[j].duplicate();
                want.scale(a);
                for &(_, j, a) in ts {
                    want.axpy(a, &v[j]);
                }
                assert_eq!(bits(out), bits(&want), "combination {k}, {what}");
            }
            // Projections t ← t − Σ c·b against the inputs, in place.
            let want: Vec<DistMatrix> = outs.iter().map(DistMatrix::duplicate).collect();
            let minus: Vec<_> = terms.iter().map(|&(k, j, a)| (k, j, -a)).collect();
            for &(k, j, c) in &minus {
                want[k].axpy(c, &v[j]);
            }
            DistMatrix::add_combination(&outs.iter().collect::<Vec<_>>(), &ins, &minus);
            for (k, (got, want)) in outs.iter().zip(&want).enumerate() {
                assert_eq!(bits(got), bits(want), "projection {k}, {what}");
            }
        }
    }

    /// `dots`, `dot` and `norm` against one reference: per rank, element
    /// `e` of the segment adds `x·y` to lane `e mod 8` (lanes from +0.0),
    /// the lanes fold as `((l0+l4)+(l1+l5))+((l2+l6)+(l3+l7))`, and the
    /// ranks' sums fold into 0.0 in rank order.
    #[test]
    fn dot_rule_is_the_eight_lane_fold() {
        let fold = |x: &[f64], y: &[f64], len: usize| {
            x.chunks(len.max(1))
                .zip(y.chunks(len.max(1)))
                .fold(0.0, |acc, (x, y)| {
                    let mut l = [0.0; 8];
                    for (e, (x, y)) in x.iter().zip(y).enumerate() {
                        l[e % 8] += x * y;
                    }
                    acc + (((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7])))
                })
        };
        for nproc in [1, 2, 3, 7, 40] {
            for len in [0, 1, 7, 8, 9, WALK - 1, WALK, WALK + 1, 3 * WALK + 37] {
                // One column per rank: every segment holds `len` elements.
                let v = kernel_inputs(len, nproc, nproc);
                let what = format!("segments of {len} on {nproc} ranks");
                let dense: Vec<Vec<f64>> = v.iter().map(DistMatrix::to_dense).collect();
                let ins: Vec<&DistMatrix> = v.iter().collect();
                let pairs: Vec<_> = (0..v.len())
                    .flat_map(|i| (0..=i).map(move |j| (i, j)))
                    .collect();
                for (&(i, j), d) in pairs.iter().zip(DistMatrix::dots(&ins, &pairs)) {
                    let want = fold(&dense[i], &dense[j], len).to_bits();
                    assert_eq!(d.to_bits(), want, "dots ({i}, {j}), {what}");
                    assert_eq!(v[i].dot(&v[j]).to_bits(), want, "dot ({i}, {j}), {what}");
                }
                for (m, x) in v.iter().zip(&dense) {
                    let want = fold(x, x, len).sqrt().to_bits();
                    assert_eq!(m.norm().to_bits(), want, "norm, {what}");
                }
            }
        }
    }

    #[test]
    fn transpose_correct_and_counts() {
        let data: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let m = DistMatrix::from_dense(3, 4, 2, &data);
        let mut stats = vec![CommStats::default(); 2];
        let t = m.transpose(&mut stats);
        assert_eq!((t.nrows(), t.ncols()), (4, 3));
        let td = t.to_dense();
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(td[j + i * 4], data[i + j * 3]);
            }
        }
        // Rank 0 keeps its own 2×2 corner and fetches the other half of
        // its two new columns; rank 1 fetches one column's other half.
        let counts = |stats: &[CommStats]| -> Vec<(u64, u64)> {
            stats.iter().map(|s| (s.get_bytes, s.get_msgs)).collect()
        };
        assert_eq!(counts(&stats), [(32, 1), (16, 1)]);

        // More ranks than columns, uneven blocks both ways (7×3 over 5
        // ranks: old columns 1,1,1,0,0; new columns 2,2,1,1,1), there and
        // back. Counts as recorded at commit 5e3a752.
        let data: Vec<f64> = (0..21).map(|x| (x as f64).sin()).collect();
        let m = DistMatrix::from_dense(7, 3, 5, &data);
        let mut stats = vec![CommStats::default(); 5];
        let t = m.transpose(&mut stats);
        assert_eq!(
            counts(&stats),
            [(32, 2), (32, 2), (16, 2), (24, 3), (24, 3)]
        );
        let td = t.to_dense();
        for i in 0..7 {
            for j in 0..3 {
                assert_eq!(td[j + i * 3], data[i + j * 7]);
            }
        }
        let mut stats = vec![CommStats::default(); 5];
        let back = t.transpose(&mut stats);
        assert_eq!(counts(&stats), [(40, 4), (40, 4), (48, 4), (0, 0), (0, 0)]);
        assert_eq!(back.to_dense(), data);

        // Blocks wider than a copy tile, edges that are not tile multiples.
        let data: Vec<f64> = (0..70 * 45).map(|x| x as f64).collect();
        let m = DistMatrix::from_dense(70, 45, 4, &data);
        let td = m.transpose(&mut [CommStats::default(); 4]).to_dense();
        for i in 0..70 {
            for j in 0..45 {
                assert_eq!(td[j + i * 45], data[i + j * 70]);
            }
        }
    }

    #[test]
    fn self_dot_and_norm_do_not_deadlock() {
        // Regression: norm() aliases dot(self, self); the segment mutexes
        // are non-reentrant, so aliasing must be special-cased.
        let a = DistMatrix::from_dense(2, 2, 2, &[3.0, 0.0, 0.0, 4.0]);
        assert_eq!(a.dot(&a), 25.0);
        assert_eq!(a.norm(), 5.0);
        let w = DistMatrix::from_dense(2, 2, 2, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(a.dot3(&w, &a), 25.0);
        assert_eq!(a.dot3(&a, &a), 27.0 + 64.0);
        assert_eq!(w.dot3(&a, &a), 25.0);
    }

    #[test]
    fn quiet_plan_leaves_ops_bitwise_identical() {
        let data: Vec<f64> = (0..24).map(|x| (x as f64).sin()).collect();
        let plain = DistMatrix::from_dense(4, 6, 3, &data);
        let checked = DistMatrix::from_dense(4, 6, 3, &data);
        checked.attach_faults(Arc::new(FaultPlan::new(fci_fault::FaultConfig::quiet(7))));
        let v = [0.5, -0.25, 1.0, 2.0];
        let drive = |m: &DistMatrix| {
            let mut st = CommStats::default();
            m.acc_col(0, 5, &v, &mut st);
            m.acc_col(2, 4, &v, &mut st);
            let mut got = [0.0; 8];
            m.get_cols(0, &[5, 1], &mut got, &mut st);
            (got, st)
        };
        assert_eq!(drive(&plain), drive(&checked));
        assert_eq!(plain.to_dense(), checked.to_dense());
    }

    #[test]
    fn checked_paths_recover_exact_values_under_heavy_faults() {
        let cfg = fci_fault::FaultConfig {
            seed: 42,
            p_drop: 0.3,
            p_corrupt: 0.3,
            p_duplicate: 0.2,
            ..fci_fault::FaultConfig::default()
        };
        let m = DistMatrix::zeros(4, 6, 3);
        m.attach_faults(Arc::new(FaultPlan::new(cfg)));
        let mut st = CommStats::default();
        let v = [1.0, 2.0, 3.0, 4.0];
        for _ in 0..50 {
            m.acc_col(0, 5, &v, &mut st); // remote acc (owner = 2)
        }
        m.acc_col(0, 3, &v, &mut st); // remote acc (owner = 1)
        let mut buf = [0.0; 4];
        for _ in 0..50 {
            m.get_cols(0, &[5], &mut buf, &mut st); // remote get
        }
        // Every injected fault was detected and recovered: values exact.
        assert_eq!(buf, [50.0, 100.0, 150.0, 200.0]);
        let mut buf3 = [0.0; 4];
        m.get_cols(1, &[3], &mut buf3, &mut st); // owner-local get
        assert_eq!(buf3, v);
        // With these probabilities over 101 remote ops, retries are
        // statistically certain (and seeded, so deterministic).
        assert!(st.retries > 0, "no retries injected");
        assert!(st.backoff_ns > 0);
    }

    #[test]
    fn checked_path_charges_wasted_traffic() {
        // p_drop = 1.0: every attempt before the cap drops, so each get
        // costs max_retries extra messages plus the clean delivery.
        let cfg = fci_fault::FaultConfig {
            seed: 3,
            p_drop: 1.0,
            ..fci_fault::FaultConfig::default()
        };
        let cap = cfg.retry.max_retries as u64;
        let m = DistMatrix::from_dense(2, 2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let plan = Arc::new(FaultPlan::new(cfg));
        m.attach_faults(plan.clone());
        let mut st = CommStats::default();
        let mut buf = [0.0; 2];
        m.get_cols(0, &[1], &mut buf, &mut st);
        assert_eq!(buf, [3.0, 4.0]);
        assert_eq!(st.get_msgs, cap + 1);
        assert_eq!(st.retries, cap);
        assert_eq!(plan.stats().retries, cap);
        assert_eq!(plan.stats().drops, cap);
    }

    #[test]
    fn get_cols_matches_per_column_gets_with_fewer_messages() {
        let data: Vec<f64> = (0..40).map(|x| (x as f64).cos()).collect();
        let m = DistMatrix::from_dense(4, 10, 3, &data);
        // Mixed-owner, non-contiguous column set as a σ family would use.
        let cols = [1usize, 2, 5, 6, 7, 9];
        let mut agg = vec![0.0; 4 * cols.len()];
        let mut st_agg = CommStats::default();
        m.get_cols(0, &cols, &mut agg, &mut st_agg);
        let mut per = vec![0.0; 4 * cols.len()];
        let mut st_per = CommStats::default();
        for (slot, &c) in cols.iter().enumerate() {
            m.get_cols(0, &[c], &mut per[slot * 4..(slot + 1) * 4], &mut st_per);
        }
        assert_eq!(agg, per, "aggregated gather altered the data");
        assert_eq!(st_agg.get_bytes, st_per.get_bytes, "bytes must match");
        // Owner layout 0..4 | 4..7 | 7..10 → runs [1,2]@0 (local, free),
        // [5,6]@1, [7,9]@2: 2 remote messages vs 4 per-column.
        assert_eq!(st_per.get_msgs, 4);
        assert_eq!(st_agg.get_msgs, 2, "one message per remote owner-run");
    }

    #[test]
    fn get_cols_checked_fallback_recovers_exact_values() {
        let cfg = fci_fault::FaultConfig {
            seed: 11,
            p_drop: 0.4,
            p_corrupt: 0.2,
            ..fci_fault::FaultConfig::default()
        };
        let data: Vec<f64> = (0..24).map(|x| x as f64).collect();
        let m = DistMatrix::from_dense(4, 6, 3, &data);
        m.attach_faults(Arc::new(FaultPlan::new(cfg)));
        let cols = [0usize, 3, 5];
        let mut out = vec![0.0; 12];
        let mut st = CommStats::default();
        m.get_cols(0, &cols, &mut out, &mut st);
        for (slot, &c) in cols.iter().enumerate() {
            assert_eq!(&out[slot * 4..(slot + 1) * 4], &data[c * 4..(c + 1) * 4]);
        }
    }

    #[test]
    fn map_cols_inplace_hands_out_whole_columns() {
        let m = DistMatrix::zeros(2, 5, 3);
        let mut seen = Vec::new();
        m.map_cols_inplace(|col, rows, vals| {
            assert_eq!(rows, 0..2);
            seen.push(col);
            vals[1] = col as f64;
        });
        assert_eq!(seen, [0, 1, 2, 3, 4]);
        let want = [0.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0];
        assert_eq!(m.to_dense(), want);
    }

    #[test]
    fn map_inplace_indexing() {
        let m = DistMatrix::zeros(2, 3, 2);
        m.map_inplace(|r, c, _| (r * 10 + c) as f64);
        assert_eq!(m.to_dense(), vec![0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
    }

    /// Two irreps, target 1: rows 0..3 | 3..7, columns 0..4 | 4..6, so
    /// columns 0..4 store rows 3..7 and columns 4..6 rows 0..3.
    fn blocked(nproc: usize) -> DistMatrix {
        let m =
            DistMatrix::with_layout(Arc::new(Layout::blocked(&[0, 3, 7], &[0, 4, 6], 1)), nproc);
        m.map_inplace(|r, c, _| (1 + r * 10 + c) as f64);
        m
    }

    /// Slots read and write what `get` and `set` do, in the caller's
    /// order, whatever ranks the elements sit on.
    #[test]
    fn slots_read_and_write_what_get_and_set_do() {
        // Stored elements in an order that visits ranks out of turn.
        let at = [(3, 0), (0, 4), (6, 3), (2, 5), (4, 1), (5, 2), (1, 4)];
        for nproc in [1, 2, 3, 7] {
            let m = blocked(nproc);
            let slots: Vec<_> = at.iter().map(|&(r, c)| m.slot(r, c)).collect();
            let mut read = vec![f64::NAN; at.len()];
            m.read_slots(&slots, |i, x| read[i] = x);
            let want: Vec<f64> = at.iter().map(|&(r, c)| m.get(r, c)).collect();
            assert_eq!(read, want, "nproc {nproc}");
            m.write_slots(&slots, |i| -(i as f64));
            for (i, &(r, c)) in at.iter().enumerate() {
                assert_eq!(m.get(r, c), -(i as f64), "nproc {nproc}");
            }
        }
    }

    /// Adding the transpose in place moves and charges what the
    /// transpose does, and sums what an axpy of it would, bit for bit —
    /// on a blocked layout at 1, 2, 3 and 7 ranks.
    #[test]
    fn transpose_add_to_is_transpose_then_axpy() {
        for nproc in [1, 2, 3, 7] {
            let m = blocked(nproc);
            let t = m.transpose(&mut vec![CommStats::default(); nproc]);
            t.map_inplace(|r, c, _| ((r * 7 + c) as f64).sin());
            let (mut via_copy, mut in_place) = (
                vec![CommStats::default(); nproc],
                vec![CommStats::default(); nproc],
            );
            let want = t.duplicate();
            want.axpy(1.0, &m.transpose(&mut via_copy));
            m.transpose_add_to(&t, &mut in_place);
            assert_eq!(bits(&t), bits(&want), "nproc {nproc}");
            let counts = |s: &[CommStats]| -> Vec<(u64, u64)> {
                s.iter().map(|s| (s.get_bytes, s.get_msgs)).collect()
            };
            assert_eq!(counts(&in_place), counts(&via_copy), "nproc {nproc}");
        }
    }

    #[test]
    fn blocked_layout_stores_only_its_sector() {
        let m = blocked(3);
        assert_eq!(m.layout().stored(), 4 * 4 + 2 * 3);
        let dense = m.to_dense();
        for (i, &v) in dense.iter().enumerate() {
            let (r, c) = (i % 7, i / 7);
            let stored = (r >= 3) == (c < 4);
            assert_eq!(v, if stored { (1 + r * 10 + c) as f64 } else { 0.0 });
            assert_eq!(m.get(r, c), v);
        }
        // A get fills only the stored rows of the caller's buffer and
        // charges only them; an accumulate adds only them.
        let mut st = CommStats::default();
        let mut out = [-1.0; 14];
        m.get_cols(0, &[5, 1], &mut out, &mut st);
        assert_eq!(&out[..7], &[6.0, 16.0, 26.0, -1.0, -1.0, -1.0, -1.0]);
        assert_eq!(&out[7..], &[-1.0, -1.0, -1.0, 32.0, 42.0, 52.0, 62.0]);
        assert_eq!((st.get_msgs, st.get_bytes), (1, 24));
        m.acc_col(0, 5, &[1.0; 7], &mut st);
        assert_eq!((st.acc_msgs, st.acc_bytes), (1, 48));
        assert_eq!(m.get(0, 5), 7.0);
        assert_eq!(m.get(3, 5), 0.0);
    }

    #[test]
    fn blocked_transpose_round_trips_and_charges_stored_bytes() {
        for nproc in [1, 2, 3, 7] {
            let m = blocked(nproc);
            let dense = m.to_dense();
            let mut stats = vec![CommStats::default(); nproc];
            let t = m.transpose(&mut stats);
            assert_eq!(**t.layout(), m.layout().transposed());
            let td = t.to_dense();
            for r in 0..7 {
                for c in 0..6 {
                    assert_eq!(td[c + r * 6], dense[r + c * 7]);
                }
            }
            // Bytes: every stored element whose old and new owners differ.
            let mut remote = 0;
            for c in 0..6 {
                for r in m.layout().rows(c) {
                    remote += 8 * usize::from(m.owner(c) != t.owner(r));
                }
            }
            let bytes: u64 = stats.iter().map(|s| s.get_bytes).sum();
            assert_eq!(bytes, remote as u64, "nproc {nproc}");
            let back = t.transpose(&mut stats);
            assert_eq!((back.layout(), back.to_dense()), (m.layout(), dense));
        }
    }
}
